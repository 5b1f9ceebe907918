"""End-to-end distributed execution through the service layer."""

import dataclasses

import numpy as np
import pytest

from repro.service.session import QuerySession

from tests.helpers import make_small_catalog, result_tuples

FOUR_RELATION_SQL = (
    "SELECT * FROM R1, R2, R3, R5 "
    "WHERE R1.B = R2.B AND R2.C = R3.C AND R1.E = R5.E"
)
TRIANGLE_SQL = (
    "SELECT * FROM R1, R2, R5 "
    "WHERE R1.B = R2.B AND R1.E = R5.E AND R2.C = R5.F"
)

COUNTER_FIELDS = None  # filled lazily to avoid import-order surprises


def assert_reports_identical(local_report, dist_report):
    global COUNTER_FIELDS
    if COUNTER_FIELDS is None:
        from repro.engine.executor import ExecutionCounters
        COUNTER_FIELDS = [
            f.name for f in dataclasses.fields(ExecutionCounters)
        ]
    assert local_report.ok, local_report.error
    assert dist_report.ok, dist_report.error
    assert dist_report.result.output_size == local_report.result.output_size
    if local_report.result.output_rows is not None:
        for relation, rows in local_report.result.output_rows.items():
            assert np.array_equal(
                rows, dist_report.result.output_rows[relation]
            ), relation
    for name in COUNTER_FIELDS:
        assert getattr(dist_report.result.counters, name) == \
            getattr(local_report.result.counters, name), name


@pytest.fixture
def catalog():
    return make_small_catalog()


class TestDistributedExecution:
    def test_matches_local_with_telemetry(self, catalog):
        local = QuerySession(catalog)
        dist = QuerySession(catalog, placement="distributed", num_workers=2)
        try:
            want = local.execute(FOUR_RELATION_SQL, collect_output=True)
            got = dist.execute(FOUR_RELATION_SQL, collect_output=True)
            assert_reports_identical(want, got)
            assert got.workers_used == 2
            assert got.scatter_seconds >= 0.0
            assert got.gather_seconds >= 0.0
            assert got.worker_retries == 0
            assert got.worker_events == ()
            # the placement descriptor rides on the raw result
            descriptor = got.result.placement
            assert descriptor["routing"] in ("hash", "stripe")
            covered = sorted(
                shard
                for shards in descriptor["shards_by_worker"].values()
                for shard in shards
            )
            assert covered == list(range(descriptor["num_shards"]))
            # local runs must not carry distributed telemetry
            assert want.workers_used == 0
        finally:
            dist.close()

    def test_hash_routed_partitioned_catalog(self, catalog):
        local = QuerySession(catalog, partitioning=4)
        dist = QuerySession(
            catalog, partitioning=4,
            placement="distributed", num_workers=2,
        )
        try:
            want = local.execute(FOUR_RELATION_SQL, collect_output=True)
            got = dist.execute(FOUR_RELATION_SQL, collect_output=True)
            assert_reports_identical(want, got)
            assert got.result.placement["routing"] == "hash"
        finally:
            dist.close()

    def test_warm_path_stays_distributed(self, catalog):
        dist = QuerySession(catalog, placement="distributed", num_workers=2)
        try:
            cold = dist.execute(FOUR_RELATION_SQL)
            warm = dist.execute(FOUR_RELATION_SQL)
            assert not cold.cache_hit and warm.cache_hit
            assert cold.workers_used == warm.workers_used == 2
            assert warm.result.output_size == cold.result.output_size
        finally:
            dist.close()

    def test_cyclic_tree_filter_distributes(self, catalog):
        local = QuerySession(catalog, cyclic_execution="tree_filter")
        dist = QuerySession(
            catalog, cyclic_execution="tree_filter",
            placement="distributed", num_workers=2,
        )
        try:
            want = local.execute(TRIANGLE_SQL, collect_output=True)
            got = dist.execute(TRIANGLE_SQL, collect_output=True)
            assert_reports_identical(want, got)
            assert got.workers_used == 2
        finally:
            dist.close()

    def test_wcoj_falls_back_to_local(self, catalog):
        local = QuerySession(catalog, cyclic_execution="wcoj")
        dist = QuerySession(
            catalog, cyclic_execution="wcoj",
            placement="distributed", num_workers=2,
        )
        try:
            want = local.execute(TRIANGLE_SQL, collect_output=True)
            got = dist.execute(TRIANGLE_SQL, collect_output=True)
            assert want.ok and got.ok
            assert got.workers_used == 0  # ran in-process
            assert result_tuples(got.result, got.plan.query) == \
                result_tuples(want.result, want.plan.query)
        finally:
            dist.close()

    def test_factorized_output_falls_back_to_local(self, catalog):
        dist = QuerySession(catalog, placement="distributed", num_workers=2)
        try:
            report = dist.execute(FOUR_RELATION_SQL, flat_output=False)
            assert report.ok, report.error
            assert report.workers_used == 0
            assert report.result.factorized is not None
        finally:
            dist.close()

    def test_execute_many_carries_telemetry(self, catalog):
        local = QuerySession(catalog)
        dist = QuerySession(catalog, placement="distributed", num_workers=2)
        try:
            queries = [FOUR_RELATION_SQL, TRIANGLE_SQL]
            want = local.execute_many(queries)
            got = dist.execute_many(queries)
            for one_local, one_dist in zip(want, got):
                assert one_local.ok and one_dist.ok
                assert one_dist.result.output_size == \
                    one_local.result.output_size
            # the acyclic query distributes; the triangle resolves to
            # wcoj under cyclic_execution="auto" and falls back local
            assert got[0].workers_used == 2
            assert got[1].workers_used == (
                2 if got[1].plan.cyclic_strategy != "wcoj" else 0
            )
        finally:
            dist.close()

    def test_per_query_placement_override(self, catalog):
        # a local session can opt one query into distribution...
        session = QuerySession(catalog)
        try:
            report = session.execute(
                FOUR_RELATION_SQL, placement="distributed", num_workers=2
            )
            assert report.ok, report.error
            assert report.workers_used == 2
            # ...and a distributed session can opt out per query
            dist = QuerySession(
                catalog, placement="distributed", num_workers=2
            )
            local_again = dist.execute(FOUR_RELATION_SQL, placement="local")
            assert local_again.ok and local_again.workers_used == 0
            dist.close()
        finally:
            session.close()

    def test_placement_is_plan_cache_keyed(self, catalog):
        from repro.core import parse_query

        session = QuerySession(catalog)
        parsed = parse_query(FOUR_RELATION_SQL)
        a = session.cache_key(parsed)
        b = session.cache_key(
            parsed, placement="distributed", num_workers=2
        )
        c = session.cache_key(
            parsed, placement="distributed", num_workers=4
        )
        assert a != b and b != c

    def test_budget_exceeded_surfaces_as_timeout(self, catalog):
        dist = QuerySession(catalog, placement="distributed", num_workers=2)
        try:
            report = dist.execute(
                FOUR_RELATION_SQL, max_intermediate_tuples=1
            )
            assert not report.ok
            assert report.timed_out
        finally:
            dist.close()

    def test_close_is_idempotent_and_restartable(self, catalog):
        dist = QuerySession(catalog, placement="distributed", num_workers=2)
        first = dist.execute(FOUR_RELATION_SQL)
        assert first.ok and dist._worker_pool is not None
        dist.close()
        dist.close()
        assert dist._worker_pool is None
        again = dist.execute(FOUR_RELATION_SQL)
        assert again.ok and again.workers_used == 2
        dist.close()


class TestPreparedStatements:
    def test_prepared_matches_local_across_bindings(self, catalog):
        sql = "select * from R1, R2 where R1.B = R2.B and R2.C = ?"
        baseline = QuerySession(catalog).prepare(sql)
        dist_session = QuerySession(
            catalog, placement="distributed", num_workers=2
        )
        statement = dist_session.prepare(sql)
        try:
            for constant in (0, 3, 5):
                want = baseline.execute(constant, collect_output=True)
                got = statement.execute(constant, collect_output=True)
                assert want.ok and got.ok, (want.error, got.error)
                assert got.workers_used == 2
                assert result_tuples(got.result, got.plan.query) == \
                    result_tuples(want.result, want.plan.query)
        finally:
            dist_session.close()
