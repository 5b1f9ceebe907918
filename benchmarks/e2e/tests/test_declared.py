"""BENCHMARK.json against the contract's limits and the harness."""

import json
import re

import gen
import metrics
import pytest
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def document():
    return json.loads(metrics.BENCHMARK_JSON.read_text())


def test_keys_and_limits(document):
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert document["paths"] == ["benchmarks/e2e"]
    assert document["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= document["run_seconds"] <= 60
    assert len(document["workloads"]) == 6
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert len(metrics.BENCHMARK_JSON.read_bytes()) <= 64 * 1024


def test_names_units_and_bounds(document):
    names = []
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for spec in document["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 < spec["bound"] <= 0.25
    for spec in document["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}
    for spec in document["end_to_end"] + document["per_layer"]:
        assert UNIT.fullmatch(spec["unit"]), spec
        assert spec["better"] in ("lower", "higher")
        names.append(spec["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [s for s in document["end_to_end"] if s["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(s["bound"] for s in document["end_to_end"])


def test_workloads_are_the_generators(document):
    assert [w["name"] for w in document["workloads"]] \
        == list(gen.WORKLOAD_NAMES) == list(gen.GENERATORS)


@pytest.fixture(scope="module")
def quick_runs():
    """Two traced quick runs of one workload at one seed."""
    return [run.one_run("cyclic_skew", 3, 1.0, True, scale=0.25,
                        replay_ops=20) for _ in range(2)]


def test_harness_prints_exactly_the_declared_names(document, quick_runs):
    first = quick_runs[0]
    assert first["correct"] and first["failed"] == 0
    assert list(first["end_to_end"]) == [
        s["name"] for s in document["end_to_end"]]
    assert list(first["per_layer"]) == [
        s["name"] for s in document["per_layer"]]
    for group, kind in ((first["end_to_end"], "end_to_end"),
                        (first["per_layer"], "per_layer")):
        units = {s["name"]: s["unit"] for s in document[kind]}
        assert {n: v["unit"] for n, v in group.items()} == units


#: counts that must repeat exactly for a fixed seed
EXACT = ("optimizer.resolved_share.exhaustive", "optimizer.resolved_share.idp",
         "optimizer.resolved_share.beam", "plancache.evictions",
         "plancache.invalidations", "engine.hash_probes", "engine.tuples_out",
         "engine.peak_tuples", "engine.probes_per_output_tuple",
         "wcoj.peak_tuples", "wcoj.strategy_share",
         "distributed.worker_retries")


def test_counts_repeat_exactly_for_a_fixed_seed(quick_runs):
    first, second = (r["per_layer"] for r in quick_runs)
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
    assert 0.0 < first["wcoj.strategy_share"]["value"] < 1.0
    assert all(first[n]["value"] == 0.0 for n in first
               if n.startswith("distributed."))


def test_undeclared_metric_is_refused():
    with pytest.raises(KeyError, match="undeclared"):
        metrics.with_units({"qps": 1.0, "made_up": 2.0}, "end_to_end")
