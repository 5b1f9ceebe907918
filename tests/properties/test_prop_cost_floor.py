"""Soundness of the order-invariant cost floor and of bounded search.

The planner bounds every order search by ``(incumbent full cost -
floor) * max(1, largest probe cost)``.  That is only sound while, for
every valid order, the full cost dominates the search objective (in
full-cost units) plus the floor — checked here exhaustively on small
random trees, with random statistics, relation sizes and probe costs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import exhaustive_optimal, idp_order
from repro.core.optimizer import incremental_order_cost
from repro.core.costmodel import (
    CostWeights,
    cost_lower_bound,
    order_invariant_floor,
    plan_cost,
)
from repro.core.stats import EdgeStats, QueryStats
from repro.modes import ExecutionMode
from repro.workloads.random_trees import random_join_tree

WEIGHTS = CostWeights()


@st.composite
def priced_tree(draw, max_nodes=7):
    query = random_join_tree(max_nodes=max_nodes,
                             seed=draw(st.integers(0, 10_000)))
    relations = query.non_root_relations
    probe_costs = {
        relation: draw(st.floats(0.25, 5.0))
        for relation in relations if draw(st.booleans())
    }
    stats = QueryStats(
        draw(st.floats(0.0, 1000.0)),
        {relation: EdgeStats(m=draw(st.floats(0.0, 1.0)),
                             fo=draw(st.floats(1.0, 8.0)))
         for relation in relations},
        probe_costs=probe_costs,
        relation_sizes={relation: draw(st.floats(1.0, 1000.0))
                        for relation in relations if draw(st.booleans())},
    )
    return query, stats


def slack(value):
    # float sums taken in two different orders: equal up to rounding
    return 1e-9 * abs(value) + 1e-12


@given(case=priced_tree(), flat_output=st.booleans())
@settings(max_examples=60, deadline=None)
def test_full_cost_dominates_objective_plus_floor(case, flat_output):
    query, stats = case
    scale = max([1.0, *stats.probe_costs.values()])
    for mode in ExecutionMode.all_modes():
        floor = order_invariant_floor(query, stats, mode, WEIGHTS,
                                      flat_output)
        bound = cost_lower_bound(query, stats, mode, WEIGHTS, flat_output)
        assert bound >= floor >= 0.0
        for order in query.all_orders():
            full = plan_cost(query, stats, order, mode,
                             flat_output=flat_output).total(WEIGHTS)
            objective = 0.0
            if not mode.uses_semijoin:
                objective = incremental_order_cost(
                    query, stats, order, mode, weights=WEIGHTS)
            assert full >= objective / scale + floor - slack(full), (
                mode, order)
            assert full >= bound - slack(full), (mode, order)


@given(case=priced_tree(), flat_output=st.booleans(),
       incumbent_factor=st.floats(0.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_bounded_search_returns_the_unbounded_result(case, flat_output,
                                                     incumbent_factor):
    """Against any incumbent, the bound the planner derives either
    prunes a search that could not have won or returns the optimum
    (the same cost float; among exactly tied orders a bounded DP may
    keep a different one, since pruned states reorder its frontier)."""
    query, stats = case
    scale = max([1.0, *stats.probe_costs.values()])
    for mode in ExecutionMode.all_modes()[:4]:
        free = exhaustive_optimal(query, stats, mode=mode, weights=WEIGHTS)
        full = plan_cost(query, stats, free.order, mode,
                         flat_output=flat_output).total(WEIGHTS)
        incumbent = full * incumbent_factor
        upper_bound = (incumbent - order_invariant_floor(
            query, stats, mode, WEIGHTS, flat_output)) * scale
        bounded = exhaustive_optimal(query, stats, mode=mode,
                                     weights=WEIGHTS, upper_bound=upper_bound)
        if bounded is None:
            # pruned out: the unbounded optimum could not have won
            assert full >= incumbent - slack(full), mode
        else:
            assert query.is_valid_order(bounded.order)
            assert bounded.cost == free.cost
        blockwise = idp_order(query, stats, mode=mode, weights=WEIGHTS,
                              block_size=2)
        bounded = idp_order(query, stats, mode=mode, weights=WEIGHTS,
                            block_size=2, upper_bound=upper_bound)
        if bounded is not None:
            assert query.is_valid_order(bounded.order)
            assert bounded.cost == blockwise.cost


@pytest.mark.parametrize("mode", ExecutionMode.all_modes())
def test_floor_of_a_single_relation_is_its_output(mode):
    from repro.core.query import JoinQuery

    query, stats = JoinQuery("R", []), QueryStats(10.0, {})
    assert order_invariant_floor(query, stats, mode, WEIGHTS) \
        == cost_lower_bound(query, stats, mode, WEIGHTS) \
        == 10.0 * WEIGHTS.tuple_generation
