"""Property tests for the analytic cost model.

Invariants checked on random join trees and random statistics:

* survival probabilities lie in [0, 1];
* Eq. (1) probe counts depend only on the prefix *set*, not its order;
* COM probes never exceed STD probes, and coincide when every fo = 1;
* BVP with eps = 0 never probes hash tables more than the base model;
* the SJ adjustment identities of Theorem 3.4;
* Theorem 3.5: SJ+COM phase-2 cost is order-independent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costmodel import (
    bvp_plan_cost,
    com_probes_per_join,
    std_probes_per_join,
)
from repro.core.costmodel_sj import sj_plan_cost
from repro.core.stats import EdgeStats, QueryStats
from repro.workloads.random_trees import random_join_tree

from tests.helpers import survival_probability


@st.composite
def tree_and_stats(draw, max_nodes=9):
    tree_seed = draw(st.integers(0, 10_000))
    query = random_join_tree(max_nodes=max_nodes, seed=tree_seed)
    edge_stats = {}
    for relation in query.non_root_relations:
        m = draw(st.floats(0.01, 1.0))
        fo = draw(st.floats(1.0, 10.0))
        edge_stats[relation] = EdgeStats(m=m, fo=fo)
    driver = draw(st.floats(1.0, 10_000.0))
    stats = QueryStats(driver, edge_stats)
    return query, stats


@given(case=tree_and_stats())
@settings(max_examples=60, deadline=None)
def test_survival_in_unit_interval(case):
    query, stats = case
    members = set(query.relations)
    value = survival_probability(query, stats, members)
    assert 0.0 <= value <= 1.0 + 1e-12


@given(case=tree_and_stats(max_nodes=7), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_eq1_depends_only_on_prefix_set(case, seed):
    query, stats = case
    rng = np.random.default_rng(seed)
    order_a = query.random_order(rng)
    order_b = query.random_order(rng)
    last = order_a[-1]
    if order_b[-1] != last:
        order_b = [r for r in order_b if r != last] + [last]
        if not query.is_valid_order(order_b):
            return  # the reshuffle may break precedence; skip
    probes_a = com_probes_per_join(query, stats, order_a)[last]
    probes_b = com_probes_per_join(query, stats, order_b)[last]
    assert probes_a == pytest.approx(probes_b)


@given(case=tree_and_stats(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_com_bounded_by_std(case, seed):
    query, stats = case
    order = query.random_order(np.random.default_rng(seed))
    com = com_probes_per_join(query, stats, order)
    std = std_probes_per_join(query, stats, order)
    for relation in order:
        assert com[relation] <= std[relation] * (1 + 1e-9) + 1e-9


@given(case=tree_and_stats(), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_com_equals_std_with_unit_fanouts(case, seed):
    query, stats = case
    for relation in query.non_root_relations:
        stats = stats.with_edge(relation,
                                EdgeStats(m=stats.m(relation), fo=1.0))
    order = query.random_order(np.random.default_rng(seed))
    com = com_probes_per_join(query, stats, order)
    std = std_probes_per_join(query, stats, order)
    for relation in order:
        assert com[relation] == pytest.approx(std[relation])


@given(case=tree_and_stats(max_nodes=7), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_bvp_eps_zero_prunes(case, seed):
    query, stats = case
    order = query.random_order(np.random.default_rng(seed))
    for factorized, base_fn in ((False, std_probes_per_join),
                                (True, com_probes_per_join)):
        cost = bvp_plan_cost(query, stats, order, eps=0.0,
                             factorized=factorized)
        base = base_fn(query, stats, order)
        for relation in order:
            assert (
                cost.hash_probes_by_relation[relation]
                <= base[relation] * (1 + 1e-9) + 1e-9
            )


@given(case=tree_and_stats(max_nodes=7), seeds=st.tuples(
    st.integers(0, 2**16), st.integers(0, 2**16)))
@settings(max_examples=40, deadline=None)
def test_theorem_35_on_random_trees(case, seeds):
    query, stats = case
    rng_a, rng_b = (np.random.default_rng(s) for s in seeds)
    order_a = query.random_order(rng_a)
    order_b = query.random_order(rng_b)
    cost_a = sj_plan_cost(query, stats, order_a, factorized=True,
                          flat_output=False)
    cost_b = sj_plan_cost(query, stats, order_b, factorized=True,
                          flat_output=False)
    assert cost_a.hash_probes == pytest.approx(cost_b.hash_probes)
    assert cost_a.semijoin_probes == pytest.approx(cost_b.semijoin_probes)


@given(
    m=st.floats(0.01, 1.0),
    fo=st.floats(1.0, 20.0),
    ratio=st.floats(0.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_theorem_34_identities(m, fo, ratio):
    from repro.core.costmodel_sj import (
        adjusted_fanout,
        adjusted_match_probability,
    )

    m_prime = adjusted_match_probability(m, fo, ratio)
    fo_prime = adjusted_fanout(fo, ratio)
    # s' = ratio * s (up to float rounding in the power).
    assert m_prime * fo_prime == pytest.approx(ratio * m * fo, rel=1e-6,
                                               abs=1e-9)
    # Reduction can only shrink the match probability and fanout.
    assert m_prime <= m * (1 + 1e-9) + 1e-12
    assert fo_prime <= fo * (1 + 1e-6) + 1e-9
    # A surviving child keeps at least one match.
    if ratio > 0:
        assert fo_prime >= 1.0 - 1e-6


@given(case=tree_and_stats(max_nodes=7), seed=st.integers(0, 2**16),
       eps=st.floats(0.0, 0.5))
@settings(max_examples=40, deadline=None)
def test_all_costs_non_negative(case, seed, eps):
    query, stats = case
    order = query.random_order(np.random.default_rng(seed))
    from repro.core import plan_cost
    from repro.modes import ExecutionMode

    for mode in ExecutionMode.all_modes():
        cost = plan_cost(query, stats, order, mode, eps=eps)
        assert cost.hash_probes >= 0
        assert cost.bitvector_probes >= 0
        assert cost.semijoin_probes >= 0
        assert cost.tuples_generated >= 0
