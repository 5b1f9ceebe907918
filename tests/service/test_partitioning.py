"""Partitioning threaded through Planner and QuerySession.

Covers the acceptance bar of the partition-aware storage refactor:
``partitioning="off"`` / ``num_shards=1`` is bit-identical to the
monolithic planner (plans, costs, results), larger shard counts change
only the physical layout, the plan cache keys on the *resolved* shard
count, and service reports carry the shard/per-phase timing shape.
"""

import pytest

from repro import ExecutionMode, Planner, QuerySession
from repro.options import (
    AUTO_MAX_SHARDS,
    AUTO_MIN_ROWS_PER_SHARD,
    PlanOptions,
)
from repro.storage import PartitionedTable
from tests.helpers import make_small_catalog, result_tuples
from tests.scan_probe import scan_probe_catalog, scan_probe_query

SIX_RELATION_SQL = (
    "select * from R1, R2, R3, R4, R5, R6 "
    "where R1.B = R2.B and R2.C = R3.C and R2.D = R4.D "
    "and R1.E = R5.E and R5.F = R6.F"
)


@pytest.fixture(scope="module")
def catalog():
    return make_small_catalog()


# ----------------------------------------------------------------------
# Planner knob
# ----------------------------------------------------------------------


class TestPlannerKnob:
    def test_off_and_one_shard_are_bit_identical_to_default(self, catalog):
        baseline = Planner(catalog).plan(SIX_RELATION_SQL, mode="auto")
        for partitioning in ("off", 1):
            plan = Planner(catalog, partitioning=partitioning).plan(
                SIX_RELATION_SQL, mode="auto"
            )
            assert plan.order == baseline.order
            assert plan.mode is baseline.mode
            assert plan.predicted_cost == baseline.predicted_cost
            assert plan.query.root == baseline.query.root
            assert plan.num_shards == 1
            for relation in plan.query.relations:
                assert not isinstance(
                    plan.catalog.table(relation), PartitionedTable
                )

    def test_sharded_plan_same_cost_same_results(self, catalog):
        baseline = Planner(catalog).plan(SIX_RELATION_SQL, mode="auto")
        plan = Planner(catalog, partitioning=3).plan(
            SIX_RELATION_SQL, mode="auto"
        )
        assert plan.num_shards == 3
        assert plan.order == baseline.order
        assert plan.predicted_cost == baseline.predicted_cost
        expected = result_tuples(
            baseline.execute(collect_output=True), baseline.query
        )
        got = result_tuples(plan.execute(collect_output=True), plan.query)
        assert got == expected
        for relation in plan.query.non_root_relations:
            table = plan.catalog.table(relation)
            assert isinstance(table, PartitionedTable)
            assert table.num_shards == 3
        assert not isinstance(
            plan.catalog.table(plan.query.root), PartitionedTable
        )

    def test_per_call_override_beats_planner_default(self, catalog):
        planner = Planner(catalog, partitioning=4)
        assert planner.plan(SIX_RELATION_SQL, partitioning="off").num_shards == 1
        assert planner.plan(SIX_RELATION_SQL).num_shards == 4

    def test_partitioned_relations_reused_across_plan_calls(self, catalog):
        planner = Planner(catalog, partitioning=2)
        first = planner.plan(SIX_RELATION_SQL)
        second = planner.plan(SIX_RELATION_SQL)
        # content-addressed reuse: one re-clustered copy per relation,
        # not one per call
        relations = first.query.non_root_relations
        assert relations
        for relation in relations:
            table = first.catalog.table(relation)
            assert isinstance(table, PartitionedTable)
            assert second.catalog.table(relation) is table

    def test_driver_auto_with_partitioning_is_correct(self, catalog):
        baseline = Planner(catalog).plan(
            SIX_RELATION_SQL, mode=ExecutionMode.COM, driver="auto"
        )
        plan = Planner(catalog, partitioning=2).plan(
            SIX_RELATION_SQL, mode=ExecutionMode.COM, driver="auto"
        )
        assert plan.query.root == baseline.query.root
        assert plan.predicted_cost == baseline.predicted_cost
        assert result_tuples(
            plan.execute(collect_output=True), plan.query
        ) == result_tuples(
            baseline.execute(collect_output=True), baseline.query
        )

    def test_explain_mentions_shards(self, catalog):
        plan = Planner(catalog, partitioning=2).plan(SIX_RELATION_SQL)
        assert "shards=2" in plan.explain()

    def test_rejects_invalid_partitioning(self, catalog):
        with pytest.raises(ValueError, match="partitioning"):
            Planner(catalog, partitioning="sideways")
        with pytest.raises(ValueError, match="shard count"):
            Planner(catalog, partitioning=0)
        with pytest.raises(ValueError, match="partitioning"):
            Planner(catalog).plan(SIX_RELATION_SQL, partitioning=True)


class TestAutoResolution:
    def test_off_resolves_to_one(self, catalog):
        assert PlanOptions(partitioning="off").shard_count(catalog) == 1
        assert PlanOptions().shard_count(catalog) == 1

    def test_int_resolves_to_itself(self, catalog):
        assert PlanOptions(partitioning=6).shard_count(catalog) == 6

    def test_auto_small_tables_resolve_to_one(self, catalog):
        planner = Planner(catalog, partitioning="auto")
        assert planner.options.shard_count(catalog, SIX_RELATION_SQL) == 1
        assert planner.plan(SIX_RELATION_SQL).num_shards == 1

    def test_auto_scales_with_table_size(self, monkeypatch):
        big = scan_probe_catalog(
            64, AUTO_MIN_ROWS_PER_SHARD * 3, seed=1
        )
        auto = PlanOptions(partitioning="auto")
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert auto.shard_count(big, scan_probe_query()) == 3
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert auto.shard_count(big, scan_probe_query()) == 2

    def test_auto_capped(self, monkeypatch):
        big = scan_probe_catalog(
            64, AUTO_MIN_ROWS_PER_SHARD * (AUTO_MAX_SHARDS + 5), seed=1
        )
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        resolved = PlanOptions(partitioning="auto").shard_count(
            big, scan_probe_query()
        )
        assert resolved == AUTO_MAX_SHARDS


# ----------------------------------------------------------------------
# QuerySession integration
# ----------------------------------------------------------------------


class TestSessionPartitioning:
    def test_resolved_shard_count_keys_the_plan_cache(self):
        session = QuerySession(make_small_catalog())
        plain = session.plan(SIX_RELATION_SQL)
        sharded = session.plan(SIX_RELATION_SQL, partitioning=2)
        assert plain.num_shards == 1 and sharded.num_shards == 2
        assert session.plan_cache.stats.misses == 2  # no cross-serving
        # repeat requests hit their own entries
        assert session.plan(SIX_RELATION_SQL) is plain
        assert session.plan(SIX_RELATION_SQL, partitioning=2) is sharded
        assert session.plan_cache.stats.hits == 2
        # "off" and an explicit 1 resolve identically -> shared entry
        assert session.plan(SIX_RELATION_SQL, partitioning=1) is plain

    def test_session_default_partitioning_forwarded(self):
        session = QuerySession(make_small_catalog(), partitioning=2)
        assert session.plan(SIX_RELATION_SQL).num_shards == 2
        assert session.plan(SIX_RELATION_SQL, partitioning="off").num_shards == 1

    def test_report_carries_shards_and_index_build_time(self):
        catalog = make_small_catalog()
        expected = result_tuples(
            QuerySession(catalog).plan(SIX_RELATION_SQL)
            .execute(collect_output=True),
            QuerySession(catalog).plan(SIX_RELATION_SQL).query,
        )
        session = QuerySession(catalog, partitioning=2)
        report = session.execute(SIX_RELATION_SQL, collect_output=True)
        assert report.ok
        assert report.shards_used == 2
        assert report.index_build_seconds >= 0.0
        assert report.execution_seconds >= report.index_build_seconds
        assert result_tuples(report.result, report.plan.query) == expected

    def test_execute_many_reports_share_the_timing_shape(self):
        session = QuerySession(make_small_catalog(), partitioning=2)
        queries = [
            SIX_RELATION_SQL,
            "select * from R1, R2 where R1.B = R2.B",
        ]
        reports = session.execute_many(queries)
        assert [r.ok for r in reports] == [True, True]
        for report in reports:
            assert report.shards_used == 2
            assert report.index_build_seconds >= 0.0

    def test_failed_execution_keeps_default_shape(self):
        session = QuerySession(make_small_catalog(), partitioning=2)
        report = session.execute(
            SIX_RELATION_SQL, max_intermediate_tuples=1
        )
        assert report.timed_out
        assert report.shards_used == 1  # engine never reported back
        assert report.index_build_seconds == 0.0

    def test_prepared_statement_over_partitioned_session(self):
        catalog = make_small_catalog()
        baseline = QuerySession(catalog).prepare(
            "select * from R1, R2 where R1.B = R2.B and R2.C = ?"
        )
        sharded = QuerySession(catalog, partitioning=2).prepare(
            "select * from R1, R2 where R1.B = R2.B and R2.C = ?"
        )
        for constant in (0, 3, 5):
            want = baseline.execute(constant, collect_output=True)
            got = sharded.execute(constant, collect_output=True)
            assert want.ok and got.ok
            assert result_tuples(got.result, got.plan.query) == \
                result_tuples(want.result, want.plan.query)


def test_partitioned_probe_counts_match_unpartitioned_session():
    catalog = scan_probe_catalog(3000, 6000, seed=9)
    query = scan_probe_query()
    base = QuerySession(catalog).execute(query, mode=ExecutionMode.COM)
    sharded = QuerySession(catalog, partitioning=4).execute(
        query, mode=ExecutionMode.COM
    )
    assert base.ok and sharded.ok
    assert sharded.shards_used == 4
    assert sharded.result.counters.hash_probes == \
        base.result.counters.hash_probes
    assert sharded.result.output_size == base.result.output_size
    assert sharded.plan.predicted_cost == base.plan.predicted_cost


# ----------------------------------------------------------------------
# Regression tests from review: staleness, value access, dtype mixes
# ----------------------------------------------------------------------


def test_inplace_mutation_repartitions_after_invalidate():
    """The content-addressed partition cache must miss once an in-place
    mutation is acknowledged via Catalog.invalidate_indexes."""
    catalog = scan_probe_catalog(500, 1000, seed=4)
    planner = Planner(catalog, partitioning=2)
    query = scan_probe_query()
    before = planner.plan(query, mode=ExecutionMode.COM).execute()
    # wipe the build side's keys out of the probe domain, in place
    catalog.table("build").column("key")[:] = -1
    catalog.invalidate_indexes()
    after = planner.plan(query, mode=ExecutionMode.COM).execute()
    unpartitioned = Planner(catalog).plan(
        query, mode=ExecutionMode.COM
    ).execute()
    assert before.output_size > 0
    assert after.output_size == unpartitioned.output_size == 0


def test_partitioned_gather_speaks_base_row_ids():
    """ExecutionResult.output_rows are base ids; gather() through the
    plan's (partitioned) catalog must return the same values as the
    unpartitioned run."""
    catalog = scan_probe_catalog(400, 800, seed=5)
    query = scan_probe_query()
    base_plan = Planner(catalog).plan(query, mode=ExecutionMode.COM)
    part_plan = Planner(catalog, partitioning=3).plan(
        query, mode=ExecutionMode.COM
    )
    base = base_plan.execute(collect_output=True)
    part = part_plan.execute(collect_output=True)

    def payload_pairs(plan, result):
        rows = result.output_rows
        driver = plan.catalog.table("driver").gather(rows["driver"], ["id"])
        build = plan.catalog.table("build").gather(rows["build"], ["payload"])
        return sorted(zip(driver["id"].tolist(), build["payload"].tolist()))

    assert payload_pairs(part_plan, part) == payload_pairs(base_plan, base)


def test_invalidation_survives_collected_intermediate_catalog():
    """A derivation chain must keep propagating invalidation even when
    an intermediate derivative goes out of scope."""
    import gc

    from repro.storage import Catalog

    parent = Catalog()
    parent.add_table("t", {"a": [1, 1]})
    leaf = parent.derived_with({}).derived_with({})
    stale = leaf.hash_index("t", "a")
    gc.collect()  # the unnamed intermediate must not break the chain
    parent.table("t").column("a")[:] = [3, 4]
    parent.invalidate_indexes()
    rebuilt = leaf.hash_index("t", "a")
    assert rebuilt is not stale
    assert rebuilt.num_distinct == 2


def test_invalidate_indexes_refreshes_fingerprints():
    from repro.storage import Catalog

    catalog = Catalog()
    catalog.add_table("t", {"a": [1, 2]})
    before = catalog.fingerprint()
    catalog.table("t").column("a")[0] = 9
    catalog.invalidate_indexes("t")
    assert catalog.fingerprint() != before


def test_float_probe_column_into_partitioned_int_key():
    """Float probe keys execute identically with partitioning on/off."""
    import numpy as np

    from repro.core.query import JoinEdge, JoinQuery
    from repro.storage import Catalog

    catalog = Catalog()
    keys = np.asarray([0.0, 1.0, 2.5, 3.0, np.nan, np.inf, -1.0, 1e300])
    catalog.add_table("d", {"key": keys})
    catalog.add_table("b", {"key": np.asarray([0, 1, 3, 3, 7]),
                            "payload": np.arange(5)})
    query = JoinQuery("d", [JoinEdge("d", "b", "key", "key")])
    base = Planner(catalog).plan(query, mode=ExecutionMode.COM)
    part = Planner(catalog, partitioning=4).plan(
        query, mode=ExecutionMode.COM
    )
    r0 = base.execute(collect_output=True)
    r1 = part.execute(collect_output=True)
    assert r0.output_size == r1.output_size == 4  # 0, 1, 3, 3
    for rel in ("d", "b"):
        assert sorted(r0.output_rows[rel].tolist()) == \
            sorted(r1.output_rows[rel].tolist())


def test_factorized_expansion_speaks_base_row_ids():
    """flat_output=False keeps the factorized object; its expansion must
    yield the same base ids as the unpartitioned run (no double-map
    through gather)."""
    import numpy as np

    catalog = scan_probe_catalog(300, 600, seed=6)
    query = scan_probe_query()
    base_plan = Planner(catalog).plan(query, mode=ExecutionMode.COM)
    part_plan = Planner(catalog, partitioning=3).plan(
        query, mode=ExecutionMode.COM
    )
    base = base_plan.execute(flat_output=False).factorized.expand_all()
    part = part_plan.execute(flat_output=False).factorized.expand_all()
    rels = sorted(base)
    assert sorted(zip(*(part[r].tolist() for r in rels))) == \
        sorted(zip(*(base[r].tolist() for r in rels)))
    # gather over expanded rows returns joined values, not garbage
    values = part_plan.catalog.table("build").gather(part["build"], ["key"])
    probes = catalog.table("driver").column("key")[part["driver"]]
    assert (np.asarray(values["key"]) == probes).all()


def test_bool_probe_keys_route_like_merged_index():
    import numpy as np

    from repro.storage.hashindex import HashIndex
    from repro.storage.partition import _probe_shard_ids

    keys = np.asarray([0, 1, 1, 2, 0])
    probes = np.asarray([True, False, True])
    # a bool probe routes to the shard of its integer value
    assert (_probe_shard_ids(probes, 4)
            == _probe_shard_ids(probes.astype(np.int64), 4)).all()
    sharded = PartitionedTable("b", {"k": keys}, "k", 4).build_hash_index("k")
    merged = HashIndex(keys)
    assert (sharded.lookup(probes).counts
            == merged.lookup(probes).counts).all()
    assert (sharded.contains(probes) == merged.contains(probes)).all()


def test_keys_beyond_float_exact_range_stay_unpartitioned():
    """int64 keys >= 2**53 make float probes ambiguous under float64
    comparison (several ints collapse onto one float), so such
    relations are never sharded: the planner keeps the base layout."""
    import numpy as np

    from repro.core.query import JoinEdge, JoinQuery
    from repro.storage import Catalog
    from repro.storage.hashindex import HashIndex
    from tests.partitioning import partitioned_catalog

    big = 2**53 + 1
    assert not PartitionedTable.can_shard(np.asarray([big, 5]))
    assert not PartitionedTable.can_shard(np.asarray([-big, 5]))
    assert PartitionedTable.can_shard(np.asarray([2**53 - 1, 5]))

    catalog = Catalog()
    catalog.add_table("d", {"key": np.asarray([float(big), 5.0])})
    catalog.add_table("b", {"key": np.asarray([big, 5], dtype=np.int64),
                            "payload": np.arange(2)})
    query = JoinQuery("d", [JoinEdge("d", "b", "key", "key")])
    derived = partitioned_catalog(catalog, query, 4)
    assert not isinstance(derived.table("b"), PartitionedTable)
    # planner path: base layout, identical to unpartitioned execution
    base = Planner(catalog).plan(query, mode=ExecutionMode.COM)
    part = Planner(catalog, partitioning=4).plan(query, mode=ExecutionMode.COM)
    assert isinstance(part.catalog.hash_index("b", "key"), HashIndex)
    r0 = base.execute(collect_output=True)
    r1 = part.execute(collect_output=True)
    assert r0.output_size == r1.output_size
    for rel in ("d", "b"):
        assert sorted(r0.output_rows[rel].tolist()) == \
            sorted(r1.output_rows[rel].tolist())


def test_float_safe_huge_probes_still_miss_cleanly():
    import numpy as np

    from repro.storage.hashindex import HashIndex
    from repro.storage.partition import shard_ids
    from repro.storage.partition import _probe_shard_ids

    keys = np.asarray([0, 5, 2**52], dtype=np.int64)
    probes = np.asarray([5.0, float(2**52), 2.0**53, 2.0**63, -(2.0**63)])
    # integral probes route with their key; the rest go to shard 0
    assert _probe_shard_ids(probes, 4).tolist() == \
        shard_ids(keys[1:], 4).tolist() + [0, 0, 0]
    sharded = PartitionedTable("b", {"k": keys}, "k", 4).build_hash_index("k")
    merged = HashIndex(keys)
    assert (sharded.lookup(probes).counts
            == merged.lookup(probes).counts).all()
    assert sharded.lookup(probes).counts.tolist() == [1, 1, 0, 0, 0]


def test_recluster_reused_across_driver_side_literals():
    """Queries differing only in a driver-side selection constant must
    reuse the re-clustered probe tables, not re-partition."""
    catalog = scan_probe_catalog(500, 1000, seed=11)
    planner = Planner(catalog, partitioning=2)
    plans = [
        planner.plan(
            f"select * from driver, build "
            f"where driver.key = build.key and driver.id = {constant}"
        )
        for constant in (1, 2, 3)
    ]
    tables = [plan.catalog.table("build") for plan in plans]
    assert all(isinstance(t, PartitionedTable) for t in tables)
    assert tables[0] is tables[1] is tables[2]
    # a selection on the partitioned relation itself must re-cluster
    filtered = planner.plan(
        "select * from driver, build "
        "where driver.key = build.key and build.payload = 7"
    )
    assert filtered.catalog.table("build") is not tables[0]
    assert len(filtered.catalog.table("build")) == 1


def test_num_shards_reports_effective_fanout():
    """When nothing is shardable the plan must not claim a fan-out."""
    import numpy as np

    from repro.core.query import JoinEdge, JoinQuery
    from repro.storage import Catalog

    catalog = Catalog()
    catalog.add_table("d", {"key": np.asarray([1.5, 2.5])})
    catalog.add_table("b", {"key": np.asarray([1.5, 2.5]),
                            "p": np.arange(2)})
    query = JoinQuery("d", [JoinEdge("d", "b", "key", "key")])
    plan = Planner(catalog, partitioning=8).plan(query, mode=ExecutionMode.COM)
    assert plan.num_shards == 1
    assert "shards=" not in plan.explain()
    assert plan.execute().shards_used == 1


def test_report_carries_reduction_seconds_for_sj_modes():
    session = QuerySession(make_small_catalog(), partitioning=2)
    report = session.execute(SIX_RELATION_SQL, mode=ExecutionMode.SJ_COM)
    assert report.ok
    assert report.reduction_seconds > 0.0
    plain = session.execute(SIX_RELATION_SQL, mode=ExecutionMode.COM)
    assert plain.ok and plain.reduction_seconds == 0.0


def test_planning_sql_over_user_partitioned_catalog_returns_base_ids():
    """push_down_selections over an already re-clustered catalog must
    rebuild relations in base row order (layout-independent results)."""
    from tests.partitioning import partitioned_catalog

    catalog = scan_probe_catalog(300, 600, seed=12)
    pre_partitioned = partitioned_catalog(catalog, scan_probe_query(), 4)
    sql = "select * from driver, build where driver.key = build.key"
    base = Planner(catalog).plan(sql).execute(collect_output=True)
    part = Planner(pre_partitioned).plan(sql).execute(collect_output=True)
    for rel in ("driver", "build"):
        assert sorted(part.output_rows[rel].tolist()) == \
            sorted(base.output_rows[rel].tolist())
    # with a selection on the partitioned relation
    sql_sel = sql + " and build.payload = 5"
    base_sel = Planner(catalog).plan(sql_sel).execute(collect_output=True)
    part_sel = Planner(pre_partitioned).plan(sql_sel).execute(
        collect_output=True
    )
    assert sorted(zip(part_sel.output_rows["driver"].tolist(),
                      part_sel.output_rows["build"].tolist())) == \
        sorted(zip(base_sel.output_rows["driver"].tolist(),
                   base_sel.output_rows["build"].tolist()))


def test_prepared_statement_rebinds_keep_shard_fanout():
    """Every binding of a prepared statement over a partitioned session
    must fan out, not just the first."""
    catalog = scan_probe_catalog(400, 900, seed=13)
    session = QuerySession(catalog, partitioning=4)
    statement = session.prepare(
        "select * from driver, build "
        "where driver.key = build.key and build.payload = ?"
    )
    baseline = QuerySession(catalog).prepare(
        "select * from driver, build "
        "where driver.key = build.key and build.payload = ?"
    )
    for constant in (3, 7, 11):
        got = statement.execute(constant, collect_output=True)
        want = baseline.execute(constant, collect_output=True)
        assert got.ok and want.ok
        assert got.shards_used == 4, constant
        assert result_tuples(got.result, got.plan.query) == \
            result_tuples(want.result, want.plan.query)


def test_held_plan_sees_parent_invalidation_through_pushdown():
    """A pushdown catalog shares the base catalog's arrays; re-running a
    held plan after an acknowledged in-place mutation must rebuild its
    indexes instead of serving stale join rows."""
    import numpy as np

    from repro.storage import Catalog

    rng = np.random.default_rng(17)
    catalog = Catalog()
    catalog.add_table("d", {"key": rng.integers(0, 20, 200)})
    catalog.add_table("b", {"key": rng.integers(0, 20, 300),
                            "payload": np.arange(300)})
    sql = "select * from d, b where d.key = b.key"
    plan = Planner(catalog).plan(sql)
    before = plan.execute().output_size
    assert before > 0
    catalog.table("b").column("key")[:] = -1  # in-place, out of domain
    catalog.invalidate_indexes("b")
    assert plan.execute().output_size == 0


def test_auto_mode_skips_reclustering_heavily_filtered_tables(monkeypatch):
    """auto sizes shards from base tables; a selective pushdown must not
    re-cluster the tiny filtered result (explicit ints still do)."""
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    catalog = scan_probe_catalog(64, AUTO_MIN_ROWS_PER_SHARD * 2, seed=15)
    planner = Planner(catalog, partitioning="auto")
    assert planner.options.shard_count(catalog, scan_probe_query()) == 2
    sql = ("select * from driver, build "
           "where driver.key = build.key and build.payload = 7")
    plan = planner.plan(sql)
    assert plan.num_shards == 1  # filtered build has 1 row
    assert not isinstance(plan.catalog.table("build"), PartitionedTable)
    explicit = Planner(catalog, partitioning=2).plan(sql)
    assert isinstance(explicit.catalog.table("build"), PartitionedTable)


def test_held_partitioned_plan_rebuilds_after_invalidation():
    """The in-place-mutation escape hatch must reach the re-clustered
    copies a held partitioned plan pins, not just shared arrays."""
    catalog = scan_probe_catalog(300, 700, seed=18)
    query = scan_probe_query()
    plan = Planner(catalog, partitioning=4).plan(query, mode=ExecutionMode.COM)
    assert plan.execute().output_size > 0
    catalog.table("build").column("key")[:] = -1
    catalog.invalidate_indexes("build")
    assert plan.execute().output_size == 0
    # and back again: a second mutation re-clusters once more
    catalog.table("build").column("key")[:] = catalog.table(
        "driver"
    ).column("key")[0]
    catalog.invalidate_indexes()
    assert plan.execute().output_size > 0


def test_auto_and_explicit_equal_resolutions_do_not_share_plans(monkeypatch):
    """auto applies a post-selection floor explicit counts don't, so an
    equal resolved count must still be a distinct plan-cache entry."""
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    catalog = scan_probe_catalog(64, AUTO_MIN_ROWS_PER_SHARD * 2, seed=19)
    session = QuerySession(catalog)
    sql = ("select * from driver, build "
           "where driver.key = build.key and build.payload = 7")
    auto_plan = session.plan(sql, partitioning="auto")
    explicit_plan = session.plan(sql, partitioning=2)
    assert auto_plan.num_shards == 1      # floor suppressed re-clustering
    assert explicit_plan.num_shards == 2  # explicit always applies
    assert auto_plan is not explicit_plan
    assert session.plan(sql, partitioning="auto") is auto_plan
    assert session.plan(sql, partitioning=2) is explicit_plan


def test_pushdown_keeps_user_partitioned_layout():
    """Unselected aliases of a user-prepartitioned catalog keep their
    layout (zero-copy rename) instead of being flattened."""
    from tests.partitioning import partitioned_catalog

    catalog = scan_probe_catalog(200, 500, seed=20)
    pre = partitioned_catalog(catalog, scan_probe_query(), 4)
    sql = "select * from driver, build where driver.key = build.key"
    plan = Planner(pre).plan(sql)
    alias_table = plan.catalog.table("build")
    assert isinstance(alias_table, PartitionedTable)
    assert alias_table.num_shards == 4
    # zero-copy: the alias shares the pre-partitioned table's arrays
    assert alias_table.column("key") is pre.table("build").column("key")
    result = plan.execute()
    assert result.shards_used == 4


def test_prepared_rebind_with_unshardable_binding_falls_back():
    """A binding that admits keys >= 2**53 must run on a merged index,
    not fail, matching the direct-execution fallback."""
    import numpy as np

    from repro.storage import Catalog

    catalog = Catalog()
    rng = np.random.default_rng(22)
    keys = rng.integers(0, 50, 500).astype(np.int64)
    group = np.zeros(500, dtype=np.int64)
    keys[0] = 2**53 + 10   # huge key, only in group 1
    group[0] = 1
    catalog.add_table("d", {"key": rng.integers(0, 50, 200)})
    catalog.add_table("b", {"key": keys, "grp": group})
    session = QuerySession(catalog, partitioning=2)
    statement = session.prepare(
        "select * from d, b where d.key = b.key and b.grp = ?"
    )
    first = statement.execute(0, collect_output=True)   # shardable subset
    assert first.ok
    second = statement.execute(1, collect_output=True)  # huge key admitted
    assert second.ok, second.error
    direct = session.execute(
        "select * from d, b where d.key = b.key and b.grp = 1",
        collect_output=True,
    )
    assert direct.ok
    assert second.result.output_size == direct.result.output_size


def test_exact_stats_cache_shared_across_shard_counts():
    from repro.core.lru import LRUCache

    catalog = scan_probe_catalog(2000, 4000, seed=24)
    cache = LRUCache(4096)
    planner = Planner(catalog, stats_cache=cache)
    planner.plan(scan_probe_query(), partitioning="off")
    misses = cache.stats.misses
    planner.plan(scan_probe_query(), partitioning=4)
    assert cache.stats.misses == misses


def test_directly_held_partitioned_table_reclusters_on_invalidate():
    """Mutating a catalog-held PartitionedTable's own key column and
    acknowledging it must re-cluster the layout, not just drop caches."""
    import numpy as np

    from repro.storage import Catalog, PartitionedTable
    from repro.storage.table import Table

    base = Table("build", {"key": np.arange(64, dtype=np.int64) % 8,
                           "payload": np.arange(64, dtype=np.int64)})
    catalog = Catalog()
    catalog.add(PartitionedTable.from_table(base, "key", 4))
    assert catalog.hash_index("build", "key").contains(
        np.asarray([1000])
    ).tolist() == [False]
    catalog.table("build").column("key")[0] = 1000  # breaks shard layout
    catalog.invalidate_indexes("build")
    index = catalog.hash_index("build", "key")
    assert index.contains(np.asarray([1000])).tolist() == [True]
    # base-row frame is preserved through the re-cluster
    table = catalog.table("build")
    payload = table.gather(np.arange(64, dtype=np.int64))["payload"]
    assert sorted(payload.tolist()) == list(range(64))


def test_renamed_alias_refreshes_from_its_own_mutated_arrays():
    """A zero-copy alias of a mutated partitioned table must re-cluster
    from the shared (mutated) arrays and keep its alias name."""
    import numpy as np

    from repro.storage import Catalog, PartitionedTable
    from repro.storage.table import Table

    base = Table("build", {"key": np.arange(40, dtype=np.int64) % 5})
    parent = Catalog()
    parent.add(PartitionedTable.from_table(base, "key", 4))
    derived = parent.derived_with({})
    alias = parent.table("build").renamed("b2")
    derived.add(alias)
    derived.hash_index("b2", "key")
    parent.table("build").column("key")[0] = 777
    parent.invalidate_indexes("build")
    refreshed = derived.table("b2")
    assert refreshed.name == "b2"
    assert derived.hash_index("b2", "key").contains(
        np.asarray([777])
    ).tolist() == [True]


def test_refresh_is_lazy_for_untouched_catalogs():
    catalog = scan_probe_catalog(200, 500, seed=25)
    plan = Planner(catalog, partitioning=4).plan(
        scan_probe_query(), mode=ExecutionMode.COM
    )
    held = plan.catalog
    catalog.table("build").column("key")[:] = -1
    catalog.invalidate_indexes("build")
    # not re-clustered yet: the refresh is pending until next access
    assert held._pending_refresh
    assert plan.execute().output_size == 0  # access flushes + re-clusters
    assert not held._pending_refresh
