"""Tests for branch-and-bound pruning and the cross-rooting driver search."""

import numpy as np
import pytest

from repro.core import (
    beam_order,
    exhaustive_optimal,
    idp_order,
    plan_cost,
    stats_from_data,
)
from repro.core.optimizer import incremental_order_cost
from repro.core.costmodel import CostWeights, expected_output_size
from repro.core.lru import LRUCache
from repro.core.stats import StatsReader, relation_tokens
from repro.modes import ExecutionMode
from repro.planner import Planner
from tests.large_joins import (
    large_join_catalog,
    large_query_stats,
    random_tree_query,
    star_query,
)

DP_MODES = (ExecutionMode.COM, ExecutionMode.STD, ExecutionMode.BVP_COM,
            ExecutionMode.BVP_STD)


class TestUpperBoundPruning:
    @pytest.mark.parametrize("mode", DP_MODES)
    def test_bound_above_optimum_changes_nothing(self, mode):
        query = random_tree_query(9, seed=5)
        stats = large_query_stats(query, seed=5)
        free = exhaustive_optimal(query, stats, mode=mode)
        bounded = exhaustive_optimal(query, stats, mode=mode,
                                     upper_bound=free.cost * (1 + 1e-9))
        assert bounded.order == free.order
        assert bounded.cost == free.cost

    @pytest.mark.parametrize("mode", DP_MODES)
    def test_bound_at_or_below_optimum_prunes_out(self, mode):
        query = random_tree_query(9, seed=6)
        stats = large_query_stats(query, seed=6)
        free = exhaustive_optimal(query, stats, mode=mode)
        assert exhaustive_optimal(query, stats, mode=mode,
                                  upper_bound=free.cost) is None
        assert exhaustive_optimal(query, stats, mode=mode,
                                  upper_bound=free.cost * 0.5) is None

    def test_idp_and_beam_prune_out_too(self):
        query = star_query(12)
        stats = large_query_stats(query, seed=7)
        for search in (
            lambda bound: idp_order(query, stats, block_size=4,
                                    upper_bound=bound),
            lambda bound: beam_order(query, stats, beam_width=4,
                                     upper_bound=bound),
        ):
            free = search(None)
            assert search(free.cost * 2).cost <= free.cost * 2
            assert search(free.cost * 1e-6) is None

    @pytest.mark.parametrize("mode", DP_MODES)
    def test_full_cost_dominates_dp_objective(self, mode):
        # The driver search prunes DP states against an incumbent's
        # *full* plan cost minus the output-size tuple floor; that is
        # only sound if full cost >= DP objective + floor for any
        # order.  Check the inequality on random orders.
        rng = np.random.default_rng(11)
        for seed in range(5):
            query = random_tree_query(8, seed=seed)
            stats = large_query_stats(query, seed=seed)
            order = query.random_order(rng)
            for flat_output in (True, False):
                weights = CostWeights()
                full = plan_cost(query, stats, order, mode,
                                 flat_output=flat_output).total(weights)
                incremental = incremental_order_cost(
                    query, stats, order, mode, weights=weights
                )
                floor = 0.0
                if flat_output or not mode.factorized:
                    floor = (expected_output_size(query, stats)
                             * weights.tuple_generation)
                assert full >= incremental + floor - 1e-9 * abs(full), (
                    mode, flat_output, seed
                )


class TestDirectedStats:
    def test_both_directions_match_per_rooting_derivation(self):
        query = random_tree_query(7, seed=2)
        catalog = large_join_catalog(query, rows_per_relation=200, seed=3)
        store = LRUCache(4096)
        reader = StatsReader(catalog, store=store,
                             tokens=relation_tokens(catalog, query))
        for root in query.relations:
            rooted = query.rerooted(root)
            assembled = reader.rooted_stats(rooted)
            reference = stats_from_data(catalog, rooted)
            assert assembled.driver_size == reference.driver_size
            for relation in rooted.non_root_relations:
                assert assembled.m(relation) == reference.m(relation)
                assert assembled.fo(relation) == reference.fo(relation)
        # every rooting assembled from one measurement per direction
        assert len(store) == store.stats.misses == 2 * len(query.edges)

    def test_store_keys_rooting_invariant(self):
        query = random_tree_query(7, seed=4)
        catalog = large_join_catalog(query, rows_per_relation=50, seed=4)
        store = LRUCache(4096)
        for root in query.relations:
            rooted = query.rerooted(root)
            # a fresh reader per rooting: only the store is shared
            StatsReader(
                catalog, store=store,
                tokens=relation_tokens(catalog, rooted),
            ).rooted_stats(rooted)
        # no rooting keyed an edge differently from another
        assert len(store) == 2 * len(query.edges)


class TestDriverAutoSearch:
    @pytest.mark.parametrize("mode", ["COM", "auto"])
    @pytest.mark.parametrize("optimizer", ["exhaustive", "auto"])
    def test_matches_naive_per_rooting_sweep(self, mode, optimizer):
        query = random_tree_query(8, seed=9)
        catalog = large_join_catalog(query, rows_per_relation=200, seed=9)
        auto = Planner(catalog, stats_cache=True).plan(
            query, mode=mode, driver="auto", optimizer=optimizer
        )
        best = None
        for root in query.relations:
            plan = Planner(catalog).plan(
                query.rerooted(root), mode=mode, driver="fixed",
                optimizer=optimizer,
            )
            if best is None or plan.predicted_cost < best.predicted_cost:
                best = plan
        assert auto.predicted_cost == pytest.approx(
            best.predicted_cost, rel=1e-12
        )
        assert auto.query.root == best.query.root
        assert auto.order == best.order

    def test_driver_auto_executes_correctly(self):
        query = random_tree_query(6, seed=12)
        catalog = large_join_catalog(query, rows_per_relation=150, seed=12)
        planner = Planner(catalog, stats_cache=True)
        fixed = planner.plan(query, mode="COM", driver="fixed")
        auto = planner.plan(query, mode="COM", driver="auto")
        assert auto.predicted_cost <= fixed.predicted_cost * (1 + 1e-9)
        fixed_result = fixed.execute(collect_output=True)
        auto_result = auto.execute(collect_output=True)
        assert auto_result.output_size == fixed_result.output_size

    def test_directed_derivation_shared_across_plans(self):
        query = random_tree_query(7, seed=15)
        catalog = large_join_catalog(query, rows_per_relation=150, seed=15)
        planner = Planner(catalog, stats_cache=True)
        planner.plan(query, mode="COM", driver="auto")
        misses_after_first = planner.stats_cache.stats.misses
        planner.plan(query.rerooted(query.relations[2]), mode="COM",
                     driver="auto")
        # the second search reuses the cached directed map (one hit, no
        # new directed derivation) — only dictionary assembly runs
        assert planner.stats_cache.stats.misses == misses_after_first
        assert planner.stats_cache.stats.hits > 0


class TestIdpEarlyExit:
    """``idp_order`` under a bound it cannot beat gives up after the
    first greedy pick's candidate scan, and never changes a plan."""

    @staticmethod
    def _count_delta_costs(monkeypatch):
        from repro.core import optimizer

        calls = []
        real = optimizer._delta_cost

        def counting(memo, joined, relation, *args):
            calls.append(relation)
            return real(memo, joined, relation, *args)

        monkeypatch.setattr(optimizer, "_delta_cost", counting)
        return calls

    @pytest.mark.parametrize("mode", DP_MODES)
    def test_losing_bound_costs_one_candidate_scan(self, monkeypatch, mode):
        query = random_tree_query(14, seed=21)
        stats = large_query_stats(query, seed=21)
        free = idp_order(query, stats, mode=mode, block_size=4)
        calls = self._count_delta_costs(monkeypatch)
        assert idp_order(query, stats, mode=mode, block_size=4,
                         upper_bound=free.cost * 1e-6) is None
        assert 0 < len(calls) <= len(query.eligible_next([]))

    def test_winning_bound_unaffected(self):
        query = random_tree_query(14, seed=22)
        stats = large_query_stats(query, seed=22)
        free = idp_order(query, stats, block_size=4)
        bounded = idp_order(query, stats, block_size=4,
                            upper_bound=free.cost * (1 + 1e-9))
        assert (bounded.order, bounded.cost) == (free.order, free.cost)
        assert idp_order(query, stats, block_size=4,
                         upper_bound=free.cost * 0.99) is None

    def test_driver_auto_plans_bit_identical(self, monkeypatch):
        # before/after on the scaling suite: the same searches with the
        # early exit disabled (the greedy block ignores its bound, as it
        # did before) must pick the same driver, order and cost float
        from repro.core import optimizer
        from tests.large_joins import scaling_suite

        cases = scaling_suite((10, 16), seed=3)

        def plans():
            out = []
            for _, _, query, _ in cases:
                catalog = large_join_catalog(query, rows_per_relation=120,
                                             seed=3)
                planner = Planner(catalog, stats_cache=True,
                                  idp_block_size=4)
                plan = planner.plan(query, mode="COM", driver="auto",
                                    optimizer="idp")
                out.append((plan.query.root, tuple(plan.order),
                            plan.predicted_cost))
            return out

        after = plans()
        bounded_block = optimizer._greedy_block

        def unbounded_block(*args, upper_bound=None):
            return bounded_block(*args)

        monkeypatch.setattr(optimizer, "_greedy_block", unbounded_block)
        assert plans() == after
