"""Property: statistics that lie change plans, never answers.

The equivalence sweep: statistics that lie in several directions at
once, across shard counts {1, 2, 8}, both execution kernels, every
execution strategy and, for a cyclic query, every cyclic execution
choice.  Results must be identical tuple for tuple — and, because
results are base-row-id tuples here, identical base-row-id sets — to
the brute-force reference and to the plan built on honest statistics.
"""

import numpy as np
import pytest

from repro import QuerySession
from repro.core.cyclic import CYCLIC_EXECUTION_CHOICES
from repro.modes import ExecutionMode
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
MODES = tuple(mode.value for mode in ExecutionMode)

#: every relation's statistics lie in a different direction
SWEEP_CORRUPTION = {"R2": 0.02, "R5": 40.0, "R3": 0.1, "R6": 25.0}

#: B looks near-empty, C looks fat
CYCLIC_CORRUPTION = {"B": 0.02, "C": 30.0}

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


def run_honest_and_lying(catalog, corruption, query, **knobs):
    """One report on the honest catalog and one on its lying wrapper,
    each from a fresh session."""
    lying = StatsCorruptingCatalog(catalog, corruption)
    return {
        name: QuerySession(source, **knobs).execute(query,
                                                    collect_output=True)
        for name, source in (("honest", catalog), ("lying", lying))
    }


def test_the_sweep_corruption_moves_the_order():
    """Guards the sweep: if the lies stopped moving the plan, every
    equivalence below would hold vacuously."""
    catalog = make_small_catalog()
    query = make_running_example_query()
    reports = run_honest_and_lying(catalog, SWEEP_CORRUPTION, query,
                                   mode="STD")
    assert reports["honest"].plan.order != reports["lying"].plan.order


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("execution", EXECUTIONS)
def test_lying_stats_keep_the_acyclic_answer(mode, num_shards, execution):
    catalog = make_small_catalog()
    query = make_running_example_query()
    expected = brute_force_join(catalog, query)
    assert expected  # the sweep compares non-empty answers
    reports = run_honest_and_lying(catalog, SWEEP_CORRUPTION, query,
                                   mode=mode, partitioning=num_shards,
                                   execution=execution)
    for name, report in reports.items():
        context = (name, mode, num_shards, execution)
        assert report.ok, context
        assert report.plan.num_shards == num_shards, context
        assert result_tuples(report.result, query) == expected, context


@pytest.mark.parametrize("cyclic_execution", CYCLIC_EXECUTION_CHOICES)
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("execution", EXECUTIONS)
def test_lying_stats_keep_the_cyclic_answer(cyclic_execution, num_shards,
                                            execution):
    """Both catalogs return the brute-force triangle, whichever spanning
    tree, order or kernel each one runs."""
    catalog = make_cyclic_catalog()
    expected = triangle_reference(catalog)
    assert expected
    reports = run_honest_and_lying(catalog, CYCLIC_CORRUPTION, CYCLIC_SQL,
                                   partitioning=num_shards,
                                   execution=execution,
                                   cyclic_execution=cyclic_execution)
    for name, report in reports.items():
        context = (name, cyclic_execution, num_shards, execution)
        assert report.ok, context
        assert report.plan.is_cyclic, context
        assert triangle_rows(report.result) == expected, context


@pytest.mark.parametrize("seed", (1, 7, 19))
def test_lying_stats_keep_the_answer_across_seeds(seed):
    """Different data draws: the sweep is not tuned to one catalog."""
    query = make_running_example_query()
    catalog = make_small_catalog(seed=seed)
    expected = brute_force_join(catalog, query)
    reports = run_honest_and_lying(catalog, SWEEP_CORRUPTION, query,
                                   mode="STD")
    for name, report in reports.items():
        assert report.ok, (seed, name)
        assert result_tuples(report.result, query) == expected, (seed, name)
