"""AsyncQueryService: equivalence with the sync session, admission,
process-pool planning, failure isolation."""

import ast
import asyncio
import io
import pickle
from pathlib import Path

import pytest

from repro import AsyncQueryService, QuerySession
from tests.helpers import make_small_catalog, result_tuples

SIX_RELATION_SQL = (
    "select * from R1, R2, R3, R4, R5, R6 "
    "where R1.B = R2.B and R2.C = R3.C and R2.D = R4.D "
    "and R1.E = R5.E and R5.F = R6.F"
)
TWO_RELATION_SQL = "select * from R1, R5 where R1.E = R5.E"


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def catalog():
    return make_small_catalog()


@pytest.fixture
def sync_report(catalog):
    return QuerySession(catalog).execute(SIX_RELATION_SQL,
                                         collect_output=True)


#: (constructor, keyword arguments, the error and its message) a service
#: or session rejects at construction, before any query could hang or
#: fail on it
BAD_ARGUMENTS = [
    ("service", dict(planning_workers=-1),
     ValueError, "planning_workers must be an int >= 0"),
    ("service", dict(process_min_relations="x"),
     ValueError, "process_min_relations must be an int >= 1"),
    ("service", dict(max_concurrency=0),
     ValueError, "max_concurrency must be an int"),
    ("service", dict(executor_workers=0),
     ValueError, "executor_workers must be an int"),
    ("service", dict(executor_workers=1.0),
     ValueError, "executor_workers must be an int"),
    ("service", dict(max_concurrency=True),
     ValueError, "max_concurrency must be an int"),
    ("service", dict(planning_workers="2"),
     ValueError, "planning_workers must be an int >= 0"),
    # the runtime-replanning surface is gone, with no alias
    ("session", dict(replan_threshold=8.0),
     TypeError, "unexpected keyword argument 'replan_threshold'"),
    ("session", dict(max_replans=2),
     TypeError, "unexpected keyword argument 'max_replans'"),
    ("session", dict(robustness="bounded"),
     TypeError, "unexpected keyword argument 'robustness'"),
    ("session", dict(plan_cache_size=0),
     ValueError, "capacity must be >= 1"),
]


@pytest.mark.parametrize(
    "target, kwargs, error, message", BAD_ARGUMENTS,
    ids=[f"{target}-{'-'.join(f'{k}={v!r}' for k, v in kwargs.items())}"
         for target, kwargs, _, _ in BAD_ARGUMENTS])
def test_bad_arguments_are_rejected_at_construction(catalog, target, kwargs,
                                                    error, message):
    with pytest.raises(error, match=message):
        if target == "session":
            QuerySession(catalog, **kwargs)
        else:
            AsyncQueryService(QuerySession(catalog), **kwargs)


class TestEquivalence:
    def test_single_query_matches_sync(self, catalog, sync_report):
        async def go():
            async with AsyncQueryService(QuerySession(catalog)) as service:
                return await service.execute(SIX_RELATION_SQL,
                                             collect_output=True)

        report = run(go())
        assert report.ok
        assert report.plan.order == sync_report.plan.order
        assert report.plan.predicted_cost == sync_report.plan.predicted_cost
        assert (result_tuples(report.result, report.plan.query)
                == result_tuples(sync_report.result, sync_report.plan.query))
        counters = report.result.counters
        assert counters.hash_probes == sync_report.result.counters.hash_probes

    def test_many_concurrent_clients_match_sync(self, catalog, sync_report):
        async def go():
            async with AsyncQueryService(QuerySession(catalog),
                                         max_concurrency=16) as service:
                return await service.execute_many(
                    [SIX_RELATION_SQL] * 12, collect_output=True
                )

        reports = run(go())
        assert len(reports) == 12
        for report in reports:
            assert report.ok
            assert report.result.output_size == \
                sync_report.result.output_size
            assert report.result.counters.tuples_generated == \
                sync_report.result.counters.tuples_generated

    def test_mixed_queries_and_options(self, catalog):
        session = QuerySession(catalog)
        sync_six = session.execute(SIX_RELATION_SQL, mode="SJ+COM")
        sync_two = session.execute(TWO_RELATION_SQL, mode="STD")

        async def go():
            async with AsyncQueryService(QuerySession(catalog)) as service:
                return await asyncio.gather(
                    service.execute(SIX_RELATION_SQL, mode="SJ+COM"),
                    service.execute(TWO_RELATION_SQL, mode="STD"),
                )

        six, two = run(go())
        assert six.result.output_size == sync_six.result.output_size
        assert two.result.output_size == sync_two.result.output_size


class TestAdmission:
    def test_cache_hit_fast_path_counted(self, catalog):
        async def go():
            session = QuerySession(catalog)
            async with AsyncQueryService(session) as service:
                await service.execute(SIX_RELATION_SQL)
                await service.execute(SIX_RELATION_SQL)
                return service.stats()

        stats = run(go())
        assert stats["submitted"] == 2
        assert stats["completed"] == 2
        assert stats["cache_hit_fast_path"] == 1
        assert stats["planned_inline"] == 1

    def test_single_flight_cold_planning(self, catalog):
        async def go():
            session = QuerySession(catalog)
            async with AsyncQueryService(session) as service:
                await service.execute_many([SIX_RELATION_SQL] * 8)
                return service.stats(), session.plan_cache.stats.misses

        stats, cache_misses = run(go())
        # eight concurrent cold arrivals: one planning pass, the rest
        # either await it or hit the populated cache
        assert stats["planned_inline"] == 1
        assert cache_misses == 1

    def test_repeated_concurrent_batches_complete(self, catalog,
                                                  sync_report):
        async def go():
            async with AsyncQueryService(QuerySession(catalog)) as service:
                await service.execute_many([SIX_RELATION_SQL] * 3)
                return await service.execute_many(
                    [SIX_RELATION_SQL] * 3, collect_output=True
                )

        reports = run(go())
        assert all(report.ok for report in reports)
        assert all(report.result.output_size
                   == sync_report.result.output_size for report in reports)


class TestFailureIsolation:
    def test_mid_batch_failures_recorded(self, catalog):
        async def go():
            async with AsyncQueryService(QuerySession(catalog)) as service:
                return await service.execute_many(
                    [SIX_RELATION_SQL,
                     "select * frm broken",
                     "select * from NOPE, R2 where NOPE.B = R2.B",
                     SIX_RELATION_SQL],
                    budgets=[50_000_000, 50_000_000, 50_000_000, 10],
                )

        reports = run(go())
        assert reports[0].ok
        assert not reports[1].ok and reports[1].error is not None
        assert not reports[2].ok and reports[2].error is not None
        assert reports[3].timed_out and reports[3].error is None

    def test_budget_arity_still_checked(self, catalog):
        async def go():
            async with AsyncQueryService(QuerySession(catalog)) as service:
                await service.execute_many([SIX_RELATION_SQL], budgets=[1, 2])

        with pytest.raises(ValueError, match="budgets"):
            run(go())

    def test_closed_service_rejects_work(self, catalog):
        service = AsyncQueryService(QuerySession(catalog))
        service.close()

        async def go():
            await service.execute(SIX_RELATION_SQL)

        with pytest.raises(RuntimeError, match="closed"):
            run(go())


class TestProcessPoolPlanning:
    def test_worker_planned_spec_matches_inline(self, catalog, sync_report):
        async def go():
            session = QuerySession(catalog)
            async with AsyncQueryService(
                session, planning_workers=1, process_min_relations=2
            ) as service:
                report = await service.execute(SIX_RELATION_SQL,
                                               collect_output=True)
                return report, service.stats()

        report, stats = run(go())
        assert stats["planned_in_process_pool"] == 1
        assert stats["process_pool_fallbacks"] == 0
        assert report.ok
        assert report.plan.order == sync_report.plan.order
        assert report.plan.mode == sync_report.plan.mode
        assert report.plan.predicted_cost == sync_report.plan.predicted_cost
        assert (result_tuples(report.result, report.plan.query)
                == result_tuples(sync_report.result, sync_report.plan.query))

    def test_small_queries_stay_inline(self, catalog):
        async def go():
            session = QuerySession(catalog)
            async with AsyncQueryService(
                session, planning_workers=1, process_min_relations=10
            ) as service:
                await service.execute(TWO_RELATION_SQL)
                return service.stats()

        stats = run(go())
        assert stats["planned_in_process_pool"] == 0
        assert stats["planned_inline"] == 1

    def test_a_write_keeps_the_pool(self, catalog):
        """Workers decide from shipped statistics and hold no catalog,
        so a write neither retires the pool nor stales its plans."""
        async def go():
            session = QuerySession(catalog)
            async with AsyncQueryService(
                session, planning_workers=1, process_min_relations=2
            ) as service:
                first = await service.execute(SIX_RELATION_SQL)
                pool = service._planning_pool
                table = catalog.table("R4")
                catalog.add_table("R4", {"D": table.column("D")[:-1]})
                second = await service.execute(SIX_RELATION_SQL)
                return first, second, pool, service._planning_pool, \
                    service.stats()

        first, second, pool, kept, stats = run(go())
        assert first.ok and second.ok
        assert pool is not None and kept is pool
        assert stats["planned_in_process_pool"] == 2
        assert stats["process_pool_fallbacks"] == 0
        assert second.plan.fingerprint() == \
            QuerySession(catalog).plan(SIX_RELATION_SQL).fingerprint()

    def test_pool_ships_no_catalog(self, catalog, monkeypatch):
        """Nothing the planning pool is started with or sent per query
        pickles a ``Catalog`` or a ``Table``."""
        import concurrent.futures

        from repro.storage.table import Catalog, Table

        shipped, real = [], concurrent.futures.ProcessPoolExecutor

        class Recording(real):
            def __init__(self, *args, **kwargs):
                shipped.append((args, kwargs))
                super().__init__(*args, **kwargs)

            def submit(self, fn, *args, **kwargs):
                shipped.append((args, kwargs))
                return super().submit(fn, *args, **kwargs)

        class Refusing(pickle.Pickler):
            def reducer_override(self, obj):
                assert not isinstance(obj, (Catalog, Table)), type(obj)
                return NotImplemented

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recording)

        async def go():
            async with AsyncQueryService(
                QuerySession(catalog), planning_workers=1,
                process_min_relations=2,
            ) as service:
                await service.execute(SIX_RELATION_SQL)
                return service.stats()

        stats = run(go())
        assert stats["planned_in_process_pool"] == 1
        assert len(shipped) == 2  # the pool's start, one decision
        for payload in shipped:
            Refusing(io.BytesIO()).dump(payload)


class TestReportObservability:
    def test_cache_stats_snapshot_on_reports(self, catalog):
        session = QuerySession(catalog)
        first = session.execute(SIX_RELATION_SQL)
        second = session.execute(SIX_RELATION_SQL)
        assert first.cache_stats["plan_cache"]["misses"] == 1
        assert second.cache_stats["plan_cache"]["hits"] == 1
        # snapshots are frozen dicts, not live counters
        session.execute(SIX_RELATION_SQL)
        assert second.cache_stats["plan_cache"]["hits"] == 1

    def test_session_cache_stats_shape(self, catalog):
        session = QuerySession(catalog)
        session.execute(SIX_RELATION_SQL)
        stats = session.cache_stats()
        for cache in ("plan_cache", "stats_cache"):
            for field in ("hits", "misses", "evictions", "invalidations",
                          "size", "hit_rate"):
                assert field in stats[cache], (cache, field)
        assert stats["plan_cache"]["size"] == 1


def _benchmark_service_keys():
    """The ``service["..."]`` keys ``benchmarks/e2e/metrics.py`` reads
    off ``AsyncQueryService.stats()`` in the traced benchmark run."""
    path = Path(__file__).resolve().parents[2] / "benchmarks/e2e/metrics.py"
    return {node.slice.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == "service"
            and isinstance(node.slice, ast.Constant)}


def test_stats_serve_every_key_the_benchmark_reads(catalog):
    """Deleting a counter from the product must not crash the traced
    benchmark run that indexes it."""
    keys = _benchmark_service_keys()
    assert "submitted" in keys
    service = AsyncQueryService(QuerySession(catalog))
    try:
        assert keys <= set(service.stats())
    finally:
        service.close()
