"""The optimizer-scaling subsystem: IDP blocks, beam search, auto policy."""

import time

import pytest

from repro.core import beam_order, exhaustive_optimal, idp_order
from repro.core.costmodel import CostMemo
from repro.core.optimizer import (
    AUTO_EXHAUSTIVE_MAX_RELATIONS,
    AUTO_IDP_MAX_RELATIONS,
    choose_optimizer,
    incremental_order_cost,
)
from repro.core.stats import StatsReader
from repro.options import PlanOptions
from repro.planner import Planner, decide
from repro.workloads.random_trees import random_join_tree, random_stats
from tests.large_joins import (
    chain_query,
    large_query_stats,
    random_tree_query,
    star_query,
)


def small_cases(max_nodes=10, seeds=range(6)):
    for seed in seeds:
        query = random_join_tree(max_nodes=max_nodes, seed=seed)
        yield query, random_stats(query, (0.1, 0.5), seed=seed)


# ----------------------------------------------------------------------
# IDP
# ----------------------------------------------------------------------


def test_idp_full_block_bit_identical_to_exhaustive():
    for query, stats in small_cases():
        exact = exhaustive_optimal(query, stats)
        idp = idp_order(query, stats, block_size=query.num_relations)
        assert idp.order == exact.order
        assert idp.cost == exact.cost  # bit-identical, not approx


def test_idp_small_blocks_valid_and_bounded_below_by_exhaustive():
    for query, stats in small_cases():
        exact = exhaustive_optimal(query, stats)
        for block_size in (1, 2, 3):
            plan = idp_order(query, stats, block_size=block_size)
            assert query.is_valid_order(plan.order)
            assert plan.cost >= exact.cost - 1e-9


def test_idp_cost_matches_incremental_costing_of_its_order():
    for query, stats in small_cases(seeds=range(3)):
        plan = idp_order(query, stats, block_size=3)
        recosted = incremental_order_cost(query, stats, plan.order)
        assert recosted == pytest.approx(plan.cost, rel=1e-12)


def test_idp_block_size_validated():
    query = chain_query(4)
    stats = large_query_stats(query)
    with pytest.raises(ValueError, match="block_size"):
        idp_order(query, stats, block_size=0)


def test_idp_semijoin_mode_delegates_to_sj_optimizer():
    query = chain_query(5)
    stats = large_query_stats(query, seed=7)
    from repro.core import optimize_sj

    sj = optimize_sj(query, stats, factorized=True)
    assert idp_order(query, stats, mode="SJ+COM").order == sj.order


# ----------------------------------------------------------------------
# Beam
# ----------------------------------------------------------------------


def test_beam_valid_bounded_and_deterministic():
    for query, stats in small_cases():
        exact = exhaustive_optimal(query, stats)
        for width in (1, 4):
            a = beam_order(query, stats, beam_width=width)
            b = beam_order(query, stats, beam_width=width)
            assert query.is_valid_order(a.order)
            assert a.cost >= exact.cost - 1e-9
            assert a.order == b.order and a.cost == b.cost


def test_beam_wide_enough_recovers_the_optimum_on_chains():
    # A chain has at most n connected prefixes per length, so a beam
    # covering them all is the full DP.
    query = chain_query(8)
    stats = large_query_stats(query, seed=3)
    exact = exhaustive_optimal(query, stats)
    beam = beam_order(query, stats, beam_width=8)
    assert beam.cost == pytest.approx(exact.cost, rel=1e-12)


def test_beam_width_validated():
    query = chain_query(4)
    stats = large_query_stats(query)
    with pytest.raises(ValueError, match="beam_width"):
        beam_order(query, stats, beam_width=0)


def test_shared_memo_reuse_is_value_transparent():
    query = random_tree_query(9, seed=5)
    stats = large_query_stats(query, seed=5)
    memo = CostMemo(query, stats)
    fresh = idp_order(query, stats, block_size=4)
    shared = idp_order(query, stats, block_size=4, memo=memo)
    also_shared = beam_order(query, stats, beam_width=4, memo=memo)
    assert shared.order == fresh.order and shared.cost == fresh.cost
    assert also_shared.order == beam_order(query, stats, beam_width=4).order


# ----------------------------------------------------------------------
# Auto policy
# ----------------------------------------------------------------------


def test_choose_optimizer_crossovers():
    assert choose_optimizer(2) == "exhaustive"
    assert choose_optimizer(AUTO_EXHAUSTIVE_MAX_RELATIONS) == "exhaustive"
    assert choose_optimizer(AUTO_EXHAUSTIVE_MAX_RELATIONS + 1) == "idp"
    assert choose_optimizer(AUTO_IDP_MAX_RELATIONS) == "idp"
    assert choose_optimizer(AUTO_IDP_MAX_RELATIONS + 1) == "beam"
    assert choose_optimizer(64) == "beam"


def test_planner_resolve_optimizer():
    assert Planner.resolve_optimizer("auto", 6) == "exhaustive"
    assert Planner.resolve_optimizer("auto", 24) == "idp"
    assert Planner.resolve_optimizer("auto", 60) == "beam"
    # explicit choices resolve to themselves regardless of size
    assert Planner.resolve_optimizer("beam", 3) == "beam"
    assert Planner.resolve_optimizer("survival", 60) == "survival"


# ----------------------------------------------------------------------
# decide() on synthetic stats: no catalog data needed
# ----------------------------------------------------------------------


def _plan_with(optimizer, query, stats, mode="COM"):
    """Decide ``query``'s order and mode from synthetic ``stats``: a
    frozen reader holds them, and no row is read."""
    options = PlanOptions(mode=mode, optimizer=optimizer).resolved(None,
                                                                   query)
    spec, _, _ = decide(query, StatsReader.holding(query, stats), options)
    return spec


def test_planner_accepts_idp_beam_and_auto():
    query = random_tree_query(10, seed=2)
    stats = large_query_stats(query, seed=2)
    for optimizer in ("idp", "beam", "auto"):
        plan = _plan_with(optimizer, query, stats)
        assert query.is_valid_order(plan.order)
    exact = _plan_with("exhaustive", query, stats)
    # 10 relations: auto resolves to exhaustive -> identical plan
    auto = _plan_with("auto", query, stats)
    assert auto.order == exact.order


def test_planner_rejects_unknown_optimizer_still():
    query = chain_query(4)
    stats = large_query_stats(query)
    with pytest.raises(ValueError, match="optimizer"):
        _plan_with("bogus", query, stats)


@pytest.mark.parametrize("build", [chain_query, star_query])
def test_auto_plans_60_relations_under_a_second(build):
    query = build(60)
    stats = large_query_stats(query, m_range=(0.1, 0.6), seed=11)
    start = time.perf_counter()
    plan = _plan_with("auto", query, stats)
    elapsed = time.perf_counter() - start
    assert query.is_valid_order(plan.order)
    assert elapsed < 1.0, f"auto planning took {elapsed:.2f}s"


def test_auto_large_plan_not_much_worse_than_wide_beam():
    # Sanity guard on plan quality at scale: the auto-selected beam
    # order is within 2x of a much wider (slower) beam's cost.
    query = star_query(48)
    stats = large_query_stats(query, seed=13)
    auto = beam_order(query, stats, beam_width=8)
    wide = beam_order(query, stats, beam_width=48)
    assert auto.cost <= 2.0 * wide.cost
