"""Property: a robustness posture never changes answers, only plans.

The posture-equivalence sweep: ``robustness="off"`` and ``"bounded"``
over statistics that lie in several directions at once, across shard
counts {1, 2, 8}, both execution kernels and acyclic/cyclic shapes.
Results must be identical tuple for tuple — and, because results are
base-row-id tuples here, identical base-row-id sets — and must match the
brute-force reference.
"""

import numpy as np
import pytest

from repro import QuerySession
from repro.core.bounds import ROBUSTNESS_CHOICES
from repro.storage import Catalog

from tests.helpers import (
    StatsCorruptingCatalog,
    brute_force_join,
    make_running_example_query,
    make_small_catalog,
    result_tuples,
)

SHARD_COUNTS = (1, 2, 8)
EXECUTIONS = ("vectorized", "interpreted")

#: every relation's statistics lie in a different direction
SWEEP_CORRUPTION = {"R2": 0.02, "R5": 40.0, "R3": 0.1, "R6": 25.0}

CYCLIC_SQL = (
    "select * from A, B, C where A.x = B.x and A.y = C.y and B.z = C.z"
)


def make_cyclic_catalog(seed=11):
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.add_table("A", {"x": rng.integers(0, 6, 30),
                            "y": rng.integers(0, 6, 30)})
    catalog.add_table("B", {"x": rng.integers(0, 6, 25),
                            "z": rng.integers(0, 6, 25)})
    catalog.add_table("C", {"y": rng.integers(0, 6, 20),
                            "z": rng.integers(0, 6, 20)})
    return catalog


def triangle_reference(catalog):
    """Sorted ``(A, B, C)`` row-id triples satisfying all three edges."""
    a, b, c = (catalog.table(name) for name in "ABC")
    match = ((a.column("x")[:, None, None] == b.column("x")[None, :, None])
             & (a.column("y")[:, None, None] == c.column("y")[None, None, :])
             & (b.column("z")[None, :, None] == c.column("z")[None, None, :]))
    return sorted(tuple(int(i) for i in hit) for hit in np.argwhere(match))


def triangle_rows(result):
    rows = result.output_rows
    return sorted(zip(*(rows[name].tolist() for name in "ABC")))


def run_each_posture(catalog, query, **knobs):
    """One report per posture, each from a fresh session."""
    return {
        robustness: QuerySession(catalog, robustness=robustness, **knobs)
        .execute(query, collect_output=True)
        for robustness in ROBUSTNESS_CHOICES
    }


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("execution", EXECUTIONS)
def test_posture_equivalence_acyclic(num_shards, execution):
    catalog = make_small_catalog()
    corrupted = StatsCorruptingCatalog(catalog, SWEEP_CORRUPTION)
    query = make_running_example_query()
    expected = brute_force_join(catalog, query)
    reports = run_each_posture(corrupted, query, mode="STD",
                               partitioning=num_shards, execution=execution)
    for robustness, report in reports.items():
        context = (robustness, num_shards, execution)
        assert report.ok, context
        assert report.plan.robustness == robustness, context
        assert report.plan.num_shards == num_shards, context
        assert result_tuples(report.result, query) == expected, context


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("execution", EXECUTIONS)
def test_posture_equivalence_cyclic(num_shards, execution):
    """A cyclic plan is bound-annotated too: both postures return the
    brute-force triangle, whichever spanning tree each one runs."""
    catalog = make_cyclic_catalog()
    expected = triangle_reference(catalog)
    assert expected  # the sweep compares non-empty answers
    reports = run_each_posture(catalog, CYCLIC_SQL,
                               partitioning=num_shards, execution=execution)
    for robustness, report in reports.items():
        context = (robustness, num_shards, execution)
        assert report.ok, context
        assert report.plan.is_cyclic, context
        assert report.plan.robustness == robustness, context
        assert triangle_rows(report.result) == expected, context


@pytest.mark.parametrize("seed", (1, 7, 19))
def test_posture_equivalence_across_seeds(seed):
    """Different data draws: the sweep is not tuned to one catalog."""
    query = make_running_example_query()
    catalog = make_small_catalog(seed=seed)
    corrupted = StatsCorruptingCatalog(catalog, SWEEP_CORRUPTION)
    expected = brute_force_join(catalog, query)
    for robustness, report in run_each_posture(
            corrupted, query, mode="STD").items():
        assert report.ok, (seed, robustness)
        assert result_tuples(report.result, query) == expected, \
            (seed, robustness)
