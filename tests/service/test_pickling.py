"""Pickling round-trips for the process-pool paths.

Execution workers receive a pickled catalog (+ planner config) once and
rehydrate :class:`~repro.planner.PlanSpec` objects; these tests pin the
content-addressing contract: fingerprints survive the trip, caches
reset instead of shipping state, and a rehydrated spec is the same
plan the local planner would have produced.
"""

import pickle

import numpy as np
import pytest

from repro.core.lru import LRUCache
from repro.planner import Planner, PlanSpec
from repro.storage import Catalog, PartitionedTable
from tests.helpers import make_small_catalog
from tests.large_joins import large_join_catalog, random_tree_query

SIX_RELATION_SQL = (
    "select * from R1, R2, R3, R4, R5, R6 "
    "where R1.B = R2.B and R2.C = R3.C and R2.D = R4.D "
    "and R1.E = R5.E and R5.F = R6.F"
)


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestCatalogPickling:
    def test_fingerprint_survives(self):
        catalog = make_small_catalog()
        clone = roundtrip(catalog)
        assert clone.fingerprint() == catalog.fingerprint()
        assert clone.table_names == catalog.table_names

    def test_cached_indexes_travel(self):
        catalog = make_small_catalog()
        index = catalog.hash_index("R2", "B")
        clone = roundtrip(catalog)
        cloned_index = clone.hash_index("R2", "B")
        keys = catalog.table("R1").column("B")
        matched, total = index.probe_stats(keys)
        assert cloned_index.probe_stats(keys) == (matched, total)

    def test_derived_registry_reset(self):
        catalog = make_small_catalog()
        derived = catalog.derived_with({})
        assert derived is not None
        clone = roundtrip(catalog)
        assert len(clone._derived) == 0  # fresh WeakSet, no stale refs

    def test_partitioned_table_layout_survives(self):
        catalog = Catalog()
        rng = np.random.default_rng(0)
        catalog.add_table("T", {"k": rng.integers(0, 50, 500)})
        partitioned = PartitionedTable.from_table(catalog.table("T"), "k", 4)
        clone = roundtrip(partitioned)
        assert clone.num_shards == partitioned.num_shards
        assert clone.fingerprint() == partitioned.fingerprint()
        rows = np.arange(10)
        assert (clone.original_rows(rows)
                == partitioned.original_rows(rows)).all()

    def test_mutation_after_pickle_diverges(self):
        catalog = make_small_catalog()
        clone = roundtrip(catalog)
        column = catalog.table("R3").column("C")
        column[0] += 1
        catalog.invalidate_indexes("R3")
        assert clone.fingerprint() != catalog.fingerprint()


class TestLRUCachePickling:
    def test_pickles_empty_with_capacity(self):
        cache = LRUCache(7)
        cache.put("a", 1)
        cache.get("a")
        clone = roundtrip(cache)
        assert clone.capacity == 7
        assert len(clone) == 0
        assert clone.stats.hits == 0
        # and the clone is fully functional (fresh lock)
        clone.put("b", 2)
        assert clone.get("b") == 2


class TestPlannerPickling:
    def test_planner_roundtrip_plans_identically(self):
        query = random_tree_query(7, seed=21)
        catalog = large_join_catalog(query, rows_per_relation=150, seed=21)
        planner = Planner(catalog, stats_cache=True, partitioning=2)
        clone = roundtrip(planner)
        local = planner.plan(query, mode="auto")
        remote = clone.plan(query, mode="auto")
        assert remote.order == local.order
        assert str(remote.mode) == str(local.mode)
        assert remote.predicted_cost == local.predicted_cost
        assert remote.num_shards == local.num_shards


class TestPlanSpec:
    @pytest.mark.parametrize("mode", ["auto", "COM", "SJ+COM"])
    def test_spec_roundtrip_and_rehydrate(self, mode):
        catalog = make_small_catalog()
        planner = Planner(catalog, stats_cache=True)
        plan = planner.plan(SIX_RELATION_SQL, mode=mode)
        spec = roundtrip(plan.to_spec(catalog.fingerprint()))
        assert isinstance(spec, PlanSpec)
        rehydrated = planner.rehydrate(spec, SIX_RELATION_SQL)
        assert rehydrated.order == plan.order
        assert rehydrated.mode == plan.mode
        assert rehydrated.child_orders == plan.child_orders
        assert rehydrated.predicted_cost == plan.predicted_cost
        a = plan.execute(collect_output=True)
        b = rehydrated.execute(collect_output=True)
        assert a.output_size == b.output_size
        assert a.counters.hash_probes == b.counters.hash_probes

    def test_stale_spec_rejected(self):
        catalog = make_small_catalog()
        planner = Planner(catalog)
        plan = planner.plan(SIX_RELATION_SQL)
        spec = plan.to_spec(catalog.fingerprint())
        column = catalog.table("R3").column("C")
        column[0] += 1
        catalog.invalidate_indexes("R3")
        with pytest.raises(ValueError, match="stale PlanSpec"):
            planner.rehydrate(spec, SIX_RELATION_SQL)

    def test_spec_child_orders_are_canonical(self):
        """``to_spec`` must not leak dict insertion order: two plans
        that differ only in the order ``child_orders`` was populated
        serialize to equal specs (specs are compared and cached)."""
        import dataclasses

        catalog = make_small_catalog()
        planner = Planner(catalog, stats_cache=True)
        plan = planner.plan(SIX_RELATION_SQL, mode="SJ+COM")
        assert plan.child_orders, "SJ mode should produce child orders"
        reversed_orders = dict(
            reversed(list(plan.child_orders.items()))
        )
        shuffled = dataclasses.replace(plan, spec=dataclasses.replace(
            plan.spec, child_orders=reversed_orders))
        fp = catalog.fingerprint()
        assert plan.to_spec(fp) == shuffled.to_spec(fp)
        assert plan.to_spec(fp).child_orders == tuple(
            sorted(plan.to_spec(fp).child_orders)
        )

    def test_partitioned_spec_pins_shard_count(self):
        query = random_tree_query(5, seed=22)
        catalog = large_join_catalog(query, rows_per_relation=200, seed=22)
        sharded = Planner(catalog, partitioning=2)
        plan = sharded.plan(query, mode="COM")
        assert plan.num_shards == 2
        spec = roundtrip(plan.to_spec(catalog.fingerprint()))
        rehydrated = sharded.rehydrate(spec, query)
        assert rehydrated.num_shards == 2
        unsharded = Planner(catalog, partitioning="off")
        with pytest.raises(ValueError, match="shard"):
            unsharded.rehydrate(spec, query)
