"""Pessimistic cardinality bounds and the bounded-regret planning gate.

Covers the guarantee chain end to end: max-frequency statistics are
measured exactly (monolithic and sharded alike), per-prefix bounds
really do dominate the true prefix cardinalities, the regret gate swaps
to the bound-optimal order exactly when the estimated-optimal plan's
worst case exceeds the configured factor, and — the fault-injection
regression — corrupted statistics that make ``robustness="off"`` pick a
catastrophic order leave the bounded plan within its regret cap.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import EdgeStats, JoinEdge, JoinQuery, QueryStats
from repro.core.bounds import (
    REGRET_FACTOR,
    ROBUSTNESS_CHOICES,
    prefix_cardinality_bounds,
    resolve_robustness,
)
from repro.core.optimizer import worst_case_cost
from repro.core.stats import StatsReader
from repro.modes import ExecutionMode
from repro.planner import Planner
from repro.service import QuerySession
from repro.storage import Catalog

from tests.helpers import (
    StatsCorruptingCatalog,
    brute_force_join,
    make_running_example_query,
    make_small_catalog,
    result_tuples,
)
from tests.partitioning import partitioned_catalog



# ----------------------------------------------------------------------
# Adversarial workload: corrupted stats sell a catastrophic order
# ----------------------------------------------------------------------

N_DRIVER = 1500
HEAVY_FANOUT = 40
#: H claims near-perfect selectivity while it truly explodes, and S
#: claims to be 30x fatter than it is — the off planner orders H first
CORRUPTION = {"H": 1e-4, "S": 30.0}


def make_adversarial_catalog():
    """R drives; S is truly selective (1%), H truly multiplies by 40."""
    catalog = Catalog()
    catalog.add_table("R", {"a": np.arange(N_DRIVER)})
    catalog.add_table("S", {"a": np.arange(0, N_DRIVER, 100)})
    catalog.add_table(
        "H", {"a": np.repeat(np.arange(N_DRIVER), HEAVY_FANOUT)}
    )
    return catalog


def adversarial_query():
    return JoinQuery(
        "R", [JoinEdge("R", "S", "a", "a"), JoinEdge("R", "H", "a", "a")]
    )


def executed_cost(plan):
    result = plan.execute()
    return result.weighted_cost()


# ----------------------------------------------------------------------
# Knob resolution
# ----------------------------------------------------------------------


def test_resolve_robustness_accepts_all_choices():
    for choice in ROBUSTNESS_CHOICES:
        assert resolve_robustness(choice) == choice


def test_resolve_robustness_rejects_unknown():
    with pytest.raises(ValueError, match="robustness"):
        resolve_robustness("paranoid")


def test_planner_validates_robustness():
    with pytest.raises(ValueError):
        Planner(make_small_catalog(), robustness="sometimes")


#: the message naming the two postures that remain
TWO_POSTURES = r"robustness must be one of \('off', 'bounded'\), got 'auto'"


def test_retired_auto_posture_is_rejected():
    """There is no runtime-replanning posture: ``"auto"`` is refused by
    the planner and by a per-call override alike (the session's
    constructor is a row of the service tests' ``BAD_ARGUMENTS``)."""
    catalog = make_small_catalog()
    with pytest.raises(ValueError, match=TWO_POSTURES):
        Planner(catalog, robustness="auto")
    with pytest.raises(ValueError, match=TWO_POSTURES):
        Planner(catalog).plan(make_running_example_query(),
                              robustness="auto")


# ----------------------------------------------------------------------
# Max-frequency statistics
# ----------------------------------------------------------------------


def test_max_frequencies_match_numpy():
    catalog = make_small_catalog()
    query = make_running_example_query()
    reader = StatsReader(catalog)
    bound_stats = reader.bound_stats(query)
    for relation in query.relations:
        assert bound_stats.relation_size(relation) \
            == len(catalog.table(relation))
    for edge in query.edges:
        for relation, attr in (
            (edge.parent, edge.parent_attr),
            (edge.child, edge.child_attr),
        ):
            column = catalog.table(relation).column(attr)
            _, counts = np.unique(column, return_counts=True)
            assert reader.max_frequency(relation, attr) == int(counts.max())
        # bound statistics: every probe may match the heaviest key group
        assert bound_stats.m(edge.child) == 1.0
        assert bound_stats.fo(edge.child) == float(
            reader.max_frequency(edge.child, edge.child_attr)
        )


@pytest.mark.parametrize("num_shards", [2, 8])
def test_max_group_size_sharded_equals_monolithic(num_shards):
    catalog = make_small_catalog()
    query = make_running_example_query()
    sharded = partitioned_catalog(catalog, query, num_shards)
    for edge in query.edges:
        mono = catalog.hash_index(edge.child, edge.child_attr)
        part = sharded.hash_index(edge.child, edge.child_attr)
        assert part.max_group_size == mono.max_group_size


def test_max_group_size_empty_index():
    catalog = Catalog()
    catalog.add_table("E", {"x": np.array([], dtype=np.int64)})
    assert catalog.hash_index("E", "x").max_group_size == 0


# ----------------------------------------------------------------------
# Bound soundness
# ----------------------------------------------------------------------


def _prefix_query(query, order, length):
    """The sub-join-tree covering the driver plus ``order[:length]``."""
    kept = {query.root, *order[:length]}
    edges = [edge for edge in query.edges if edge.child in kept]
    return JoinQuery(query.root, edges)


def test_prefix_bounds_dominate_true_prefix_cardinalities():
    catalog = make_small_catalog()
    query = make_running_example_query()
    plan = Planner(catalog, robustness="bounded").plan(query)
    assert len(plan.prefix_bounds) == len(plan.order)
    for position in range(1, len(plan.order) + 1):
        prefix = _prefix_query(query, plan.order, position)
        truth = len(brute_force_join(catalog, prefix))
        assert truth <= plan.prefix_bounds[position - 1]


def test_peak_intermediate_tuples_within_bound():
    catalog = make_small_catalog()
    query = make_running_example_query()
    plan = Planner(catalog, robustness="bounded").plan(
        query, mode=ExecutionMode.STD
    )
    result = plan.execute()
    assert result.counters.peak_intermediate_tuples <= max(plan.prefix_bounds)


def test_prefix_bounds_are_nondecreasing_products():
    # bound statistics (m = 1, fo = mf) as StatsReader.bound_stats
    # assembles them, for mf(R2..R6) = 3, 2, 4, 5, 2 and |R1| = 10
    stats = QueryStats(10, {
        relation: EdgeStats(m=1.0, fo=float(mf))
        for relation, mf in
        {"R2": 3, "R3": 2, "R4": 4, "R5": 5, "R6": 2}.items()
    })
    bounds = prefix_cardinality_bounds(
        stats, ["R2", "R3", "R4", "R5", "R6"]
    )
    assert bounds == (30.0, 60.0, 240.0, 1200.0, 2400.0)
    assert list(bounds) == sorted(bounds)  # mf >= 1: never shrinks


# ----------------------------------------------------------------------
# The regret gate
# ----------------------------------------------------------------------


def test_worst_case_cost_discriminates_orders():
    catalog = make_adversarial_catalog()
    query = adversarial_query()
    bound_stats = StatsReader(catalog).bound_stats(query)
    heavy_first = worst_case_cost(query, bound_stats, ["H", "S"])
    selective_first = worst_case_cost(query, bound_stats, ["S", "H"])
    assert heavy_first > REGRET_FACTOR * selective_first


def test_bounded_gate_swaps_catastrophic_order():
    catalog = make_adversarial_catalog()
    corrupted = StatsCorruptingCatalog(catalog, CORRUPTION)
    query = adversarial_query()
    off = Planner(corrupted, robustness="off").plan(
        query, mode=ExecutionMode.STD
    )
    bounded = Planner(
        corrupted, robustness="bounded"
    ).plan(query, mode=ExecutionMode.STD)
    assert off.order == ["H", "S"]  # the lie worked on the off planner
    assert bounded.order == ["S", "H"]  # the gate did not buy it
    assert bounded.worst_case_bound <= REGRET_FACTOR * min(
        bounded.worst_case_bound, off.worst_case_bound or np.inf
    )


def test_off_mode_corrupted_plan_is_really_bad():
    """Fault-injection regression: the injected error must *matter*.

    Guards the test harness itself — if the corruption stopped fooling
    the off-mode planner (or the data stopped punishing the fooled
    order), every downstream "bounded fixes it" assertion would pass
    vacuously.
    """
    catalog = make_adversarial_catalog()
    corrupted = StatsCorruptingCatalog(catalog, CORRUPTION)
    query = adversarial_query()
    true_optimum = Planner(catalog, robustness="off").plan(
        query, mode=ExecutionMode.STD
    )
    off = Planner(corrupted, robustness="off").plan(
        query, mode=ExecutionMode.STD
    )
    bounded = Planner(
        corrupted, robustness="bounded"
    ).plan(query, mode=ExecutionMode.STD)
    optimum_cost = executed_cost(true_optimum)
    off_regret = executed_cost(off) / optimum_cost
    bounded_regret = executed_cost(bounded) / optimum_cost
    assert off_regret >= 5 * REGRET_FACTOR
    assert bounded_regret <= REGRET_FACTOR


def test_bounded_keeps_order_when_regret_is_small():
    """No gratuitous swaps: with honest stats the estimated plan stays."""
    catalog = make_small_catalog()
    query = make_running_example_query()
    off = Planner(catalog, robustness="off").plan(query)
    bounded = Planner(catalog, robustness="bounded").plan(query)
    if bounded.order != off.order:
        # a swap is only legitimate when the off plan's worst case
        # genuinely exceeds the cap
        assert off.worst_case_bound == 0.0 or (
            bounded.worst_case_bound < off.worst_case_bound
        )
    # either way the bounded plan's results are identical
    assert result_tuples(
        bounded.execute(collect_output=True), query
    ) == brute_force_join(catalog, query)


@pytest.mark.parametrize("num_shards", [1, 2, 8])
@pytest.mark.parametrize("execution", ["vectorized", "interpreted"])
def test_results_identical_across_postures(num_shards, execution):
    """A posture changes the order, never the answer: on every shard
    count and kernel plane the gate swaps the corrupted statistics'
    order, and both postures return the brute-force rows."""
    catalog = make_adversarial_catalog()
    corrupted = StatsCorruptingCatalog(catalog, CORRUPTION)
    query = adversarial_query()
    expected = brute_force_join(catalog, query)
    orders = {}
    for robustness in ROBUSTNESS_CHOICES:
        plan = Planner(corrupted, robustness=robustness,
                       partitioning=num_shards, execution=execution,
                       ).plan(query, mode="STD")
        assert plan.num_shards == num_shards, robustness
        assert result_tuples(
            plan.execute(collect_output=True), query
        ) == expected, robustness
        orders[robustness] = plan.order
    assert orders["off"] != orders["bounded"]


def test_cache_keys_distinguish_robustness_posture():
    session = QuerySession(make_small_catalog())
    query = make_running_example_query()
    assert session.cache_key(query, robustness="off") \
        != session.cache_key(query, robustness="bounded")


# ----------------------------------------------------------------------
# Fingerprints, specs, explain
# ----------------------------------------------------------------------


def test_fingerprint_covers_robustness():
    catalog = make_small_catalog()
    query = make_running_example_query()
    off = Planner(catalog, robustness="off").plan(query)
    bounded = Planner(catalog, robustness="bounded").plan(query)
    assert off.fingerprint() != bounded.fingerprint()
    # derived annotations must NOT shift the digest
    loosened = dataclasses.replace(bounded, spec=dataclasses.replace(
        bounded.spec,
        prefix_bounds=tuple(b + 1.0 for b in bounded.prefix_bounds),
        worst_case_bound=bounded.worst_case_bound + 1.0,
    ))
    assert loosened.fingerprint() == bounded.fingerprint()


def test_spec_roundtrip_preserves_bounds():
    catalog = make_small_catalog()
    query = make_running_example_query()
    planner = Planner(catalog, robustness="bounded")
    plan = planner.plan(query)
    spec = plan.to_spec(catalog.fingerprint())
    assert spec.robustness == "bounded"
    rehydrated = planner.rehydrate(spec, query)
    assert rehydrated.robustness == plan.robustness
    assert tuple(rehydrated.prefix_bounds) == tuple(plan.prefix_bounds)
    assert rehydrated.worst_case_bound == plan.worst_case_bound
    assert rehydrated.fingerprint() == plan.fingerprint()


def test_explain_shows_bounds():
    catalog = make_small_catalog()
    query = make_running_example_query()
    text = Planner(catalog, robustness="bounded").plan(query).explain()
    assert "ROBUSTNESS bounded" in text
    assert "ub=" in text
    off_text = Planner(catalog, robustness="off").plan(query).explain()
    assert "ROBUSTNESS" not in off_text
    assert "ub=" not in off_text


def test_cyclic_plans_carry_bounds_too():
    rng = np.random.default_rng(3)
    catalog = Catalog()
    catalog.add_table("A", {"x": rng.integers(0, 6, 30),
                            "y": rng.integers(0, 6, 30)})
    catalog.add_table("B", {"x": rng.integers(0, 6, 25),
                            "z": rng.integers(0, 6, 25)})
    catalog.add_table("C", {"y": rng.integers(0, 6, 20),
                            "z": rng.integers(0, 6, 20)})
    sql = (
        "select * from A, B, C "
        "where A.x = B.x and A.y = C.y and B.z = C.z"
    )
    plan = Planner(catalog, robustness="bounded").plan(
        sql, cyclic_execution="tree_filter"
    )
    assert plan.is_cyclic
    assert plan.robustness == "bounded"
    assert len(plan.prefix_bounds) == len(plan.order)
    assert np.isfinite(plan.worst_case_bound)
