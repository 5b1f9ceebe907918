"""Property tests for the optimizers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import exhaustive_optimal, greedy_order, optimize_sj
from repro.core.costmodel import com_probes_per_join
from repro.core.optimizer import GREEDY_HEURISTICS
from repro.core.stats import EdgeStats, QueryStats
from repro.workloads.random_trees import random_join_tree


@st.composite
def tree_and_stats(draw, max_nodes=6):
    tree_seed = draw(st.integers(0, 10_000))
    query = random_join_tree(max_nodes=max_nodes, seed=tree_seed)
    edge_stats = {
        relation: EdgeStats(
            m=draw(st.floats(0.05, 0.95)),
            fo=draw(st.floats(1.0, 8.0)),
        )
        for relation in query.non_root_relations
    }
    return query, QueryStats(draw(st.floats(1.0, 1000.0)), edge_stats)


def total_com_probes(query, stats, order):
    return sum(com_probes_per_join(query, stats, order).values())


@given(case=tree_and_stats())
@settings(max_examples=40, deadline=None)
def test_dp_is_global_minimum(case):
    query, stats = case
    plan = exhaustive_optimal(query, stats)
    assert query.is_valid_order(plan.order)
    for order in query.all_orders():
        assert plan.cost <= total_com_probes(query, stats, order) + 1e-9


@given(case=tree_and_stats())
@settings(max_examples=40, deadline=None)
def test_greedy_orders_valid_and_bounded_below_by_dp(case):
    query, stats = case
    optimal = exhaustive_optimal(query, stats)
    for heuristic in GREEDY_HEURISTICS:
        plan = greedy_order(query, stats, heuristic)
        assert query.is_valid_order(plan.order)
        cost = total_com_probes(query, stats, plan.order)
        assert cost >= optimal.cost - 1e-9


@given(case=tree_and_stats())
@settings(max_examples=40, deadline=None)
def test_sj_optimizer_phase1_is_minimal(case):
    """The increasing-m' child order minimizes phase-1 probes among all
    child permutations (checked exhaustively per node)."""
    import itertools

    from repro.core.costmodel_sj import sj_phase1_cost

    query, stats = case
    plan = optimize_sj(query, stats, factorized=False)
    best, _ = sj_phase1_cost(query, stats, child_orders=plan.child_orders)
    internals = query.internal_relations()
    # Enumerate alternative child orders node by node.
    for node in internals:
        children = query.children(node)
        for perm in itertools.permutations(children):
            orders = dict(plan.child_orders)
            orders[node] = list(perm)
            cost, _ = sj_phase1_cost(query, stats, child_orders=orders)
            assert best.semijoin_probes <= cost.semijoin_probes + 1e-9


@given(case=tree_and_stats(max_nodes=5))
@settings(max_examples=30, deadline=None)
def test_dp_deterministic(case):
    query, stats = case
    a = exhaustive_optimal(query, stats)
    b = exhaustive_optimal(query, stats)
    assert a.order == b.order
    assert a.cost == pytest.approx(b.cost)


@given(case=tree_and_stats(max_nodes=5), scale=st.floats(0.1, 100.0))
@settings(max_examples=30, deadline=None)
def test_dp_invariant_to_driver_scaling(case, scale):
    """Costs are linear in N: scaling the driver leaves the argmin
    unchanged."""
    query, stats = case
    scaled = QueryStats(stats.driver_size * scale, stats.edge_stats)
    a = exhaustive_optimal(query, stats)
    b = exhaustive_optimal(query, scaled)
    assert a.cost * scale == pytest.approx(b.cost, rel=1e-9)
