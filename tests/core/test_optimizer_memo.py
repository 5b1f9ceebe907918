"""The memoized, mask-native DP must match an unmemoized reference exactly.

The reference (``tests.helpers.reference_optimum``) prices joins over
plain name sets, straight from Sections 3.3 / 3.5 in the cost model's
canonical multiplication order, and minimizes over every valid order
(a name-set-keyed DP, so trees of 9-10 relations stay fast);
Algorithm 1 must return the same ``(order, cost)`` bit for bit — not
approximately.
"""

import pytest

from repro.core.costmodel import CostMemo, plan_cost
from repro.core.optimizer import exhaustive_optimal, incremental_order_cost
from repro.modes import ExecutionMode
from repro.workloads.random_trees import random_join_tree, random_stats
from repro.workloads.shapes import paper_snowflake_3_2, star
from tests.helpers import (
    make_running_example_query,
    make_running_example_stats,
    reference_optimum,
)

NON_SJ_MODES = [m for m in ExecutionMode.all_modes() if not m.uses_semijoin]


def assert_matches_reference(query, stats, mode, eps=0.01):
    plan = exhaustive_optimal(query, stats, mode=mode, eps=eps)
    order, cost = reference_optimum(query, stats, mode, eps)
    assert (plan.order, plan.cost) == (order, cost)


@pytest.mark.parametrize("mode", NON_SJ_MODES)
def test_memo_identical_on_running_example(mode):
    assert_matches_reference(make_running_example_query(),
                             make_running_example_stats(), mode)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mode", NON_SJ_MODES)
def test_memo_identical_on_random_trees(seed, mode):
    query = random_join_tree(max_nodes=9, seed=seed)
    stats = random_stats(query, (0.05, 0.9), seed=seed + 100)
    assert_matches_reference(query, stats, mode)


def test_memo_identical_on_star():
    query = star(8)
    stats = random_stats(query, (0.1, 0.6), seed=7)
    for mode in NON_SJ_MODES:
        assert_matches_reference(query, stats, mode)


def test_memo_identical_with_custom_eps_and_probe_costs():
    query = random_join_tree(max_nodes=9, seed=6)
    stats = random_stats(query, (0.05, 0.9), seed=106)
    stats.probe_costs.update(
        {rel: 1.0 + i for i, rel in enumerate(query.non_root_relations)}
    )
    for eps in (0.0, 0.01, 0.05):
        for mode in NON_SJ_MODES:
            assert_matches_reference(query, stats, mode, eps)


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_memo_identical_on_snowflake_with_probe_costs(eps):
    query = paper_snowflake_3_2()
    stats = random_stats(query, (0.1, 0.5), seed=3)
    stats.probe_costs.update(
        {rel: 1.0 + i for i, rel in enumerate(query.non_root_relations)}
    )
    mode = ExecutionMode.BVP_COM
    plan = exhaustive_optimal(query, stats, mode=mode, eps=eps)
    order, cost = reference_optimum(query, stats, mode, eps)
    assert (plan.order, plan.cost) == (order, cost)
    assert incremental_order_cost(query, stats, order, mode, eps) == cost


def test_cost_memo_structure():
    query = make_running_example_query()
    memo = CostMemo(query, make_running_example_stats())
    # one bit per relation, subtree masks contain the node's own bit
    assert len(memo.bit) == query.num_relations
    assert len(set(memo.bit.values())) == query.num_relations
    for node in query.preorder():
        assert memo.subtree_mask[node] & memo.bit[node]
    # the root's subtree covers everything
    full = memo.subtree_mask[query.root]
    for node in query.preorder():
        assert memo.subtree_mask[node] & full == memo.subtree_mask[node]
    # candidates in declared edge order, each with its parent's bit
    assert [name for name, _, _ in memo.non_root] == query.non_root_relations
    for name, bit, parent_bit in memo.non_root:
        assert bit == memo.bit[name]
        assert parent_bit == memo.bit[query.parent(name)]


def test_memo_for_other_inputs_refused():
    query, stats = make_running_example_query(), make_running_example_stats()
    memo = CostMemo(query, stats, eps=0.01)
    order = ["R2", "R3", "R5", "R4", "R6"]
    with pytest.raises(ValueError, match="different"):
        exhaustive_optimal(query, stats, mode=ExecutionMode.BVP_COM,
                           eps=0.05, memo=memo)
    with pytest.raises(ValueError, match="different"):
        plan_cost(query, make_running_example_stats(), order,
                  ExecutionMode.COM, memo=memo)
    # COM reads no eps-dependent table: any eps's memo prices it
    assert plan_cost(query, stats, order, ExecutionMode.COM, eps=0.05,
                     memo=memo) == plan_cost(query, stats, order,
                                             ExecutionMode.COM)
