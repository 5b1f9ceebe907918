"""Unit tests for the bench runner helpers."""

import math

import pytest

from repro.bench.runner import (
    ModeRun,
    geometric_mean,
    relative_to,
    render_table,
    run_all_modes,
)
from repro.engine.factorized import FactorizedResult
from repro.modes import ExecutionMode

from tests.helpers import make_running_example_query, make_small_catalog


def test_run_all_modes_produces_all_entries():
    catalog = make_small_catalog()
    query = make_running_example_query()
    runs = run_all_modes(catalog, query, ["R2", "R3", "R4", "R5", "R6"])
    assert set(runs) == set(ExecutionMode.all_modes())
    sizes = {run.output_size for run in runs.values()}
    assert len(sizes) == 1


def test_run_all_modes_budget_becomes_timeout():
    catalog = make_small_catalog()
    query = make_running_example_query()
    runs = run_all_modes(catalog, query, ["R2", "R3", "R4", "R5", "R6"],
                         max_intermediate_tuples=10)
    assert all(run.timed_out for run in runs.values())


#: ``run_all_modes`` over the small running-example catalog in
#: declaration order, as the figure harness measured it when the engine
#: still expanded every flat factorized run:
#: mode -> (hash, bitvector, semi-join probes, tuples generated, output)
FLAT_RUNS = {
    ExecutionMode.STD: (17879, 0, 0, 49504, 31685),
    ExecutionMode.COM: (1021, 0, 0, 34922, 31685),
    ExecutionMode.BVP_STD: (17630, 14096, 0, 49300, 31685),
    ExecutionMode.BVP_COM: (931, 1021, 0, 34718, 31685),
    ExecutionMode.SJ_STD: (17630, 0, 255, 49255, 31685),
    ExecutionMode.SJ_COM: (931, 0, 255, 34673, 31685),
}
#: the same with factorized output: COM variants skip the expansion
FACTORIZED_RUNS = {
    **FLAT_RUNS,
    ExecutionMode.COM: (1021, 0, 0, 3237, 31685),
    ExecutionMode.BVP_COM: (931, 1021, 0, 3033, 31685),
    ExecutionMode.SJ_COM: (931, 0, 255, 2988, 31685),
}


@pytest.mark.parametrize("flat_output, expected, expansions", [
    (True, FLAT_RUNS, 3),
    (False, FACTORIZED_RUNS, 0),
], ids=["flat", "factorized"])
def test_run_all_modes_times_the_flat_expansion(monkeypatch, flat_output,
                                                expected, expansions):
    """A flat figure run pays for its factorized modes' flat tuples once
    each (the engine generates none for a run keeping no rows); the
    counters and output sizes are the engine's."""
    expanded = []
    original = FactorizedResult.expand

    def spy(self, *args, **kwargs):
        expanded.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FactorizedResult, "expand", spy)
    runs = run_all_modes(make_small_catalog(), make_running_example_query(),
                         ["R2", "R3", "R4", "R5", "R6"],
                         flat_output=flat_output)
    assert len(expanded) == len(set(map(id, expanded))) == expansions
    assert {mode: (run.hash_probes, run.bitvector_probes,
                   run.semijoin_probes, run.tuples_generated,
                   run.output_size)
            for mode, run in runs.items()} == expected
    assert all(run.wall_time > 0 for run in runs.values())


def test_relative_to_normalizes():
    runs = {
        ExecutionMode.COM: ModeRun(ExecutionMode.COM, wall_time=2.0),
        ExecutionMode.STD: ModeRun(ExecutionMode.STD, wall_time=6.0),
    }
    ratios = relative_to(runs)
    assert ratios[ExecutionMode.COM] == pytest.approx(1.0)
    assert ratios[ExecutionMode.STD] == pytest.approx(3.0)


def test_relative_to_timeout_is_inf():
    runs = {
        ExecutionMode.COM: ModeRun(ExecutionMode.COM, wall_time=2.0),
        ExecutionMode.STD: ModeRun.timeout(ExecutionMode.STD),
    }
    ratios = relative_to(runs)
    assert math.isinf(ratios[ExecutionMode.STD])


def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert math.isnan(geometric_mean([]))
    assert math.isinf(geometric_mean([1.0, math.inf]))
    assert geometric_mean([2.0, math.nan]) == pytest.approx(2.0)


def test_render_table_formats():
    rows = [
        {"a": "x", "b": 1.23456, "c": math.inf},
        {"a": "longer", "b": math.nan, "c": 2},
    ]
    text = render_table(rows, ["a", "b", "c"], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "timeout" in text
    assert "-" in text  # NaN rendering
    assert "longer" in text


def test_render_table_empty_rows():
    text = render_table([], ["col1", "col2"])
    assert "col1" in text
