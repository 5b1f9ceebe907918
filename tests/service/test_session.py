"""QuerySession: plan-cache semantics, invalidation, batching, speedup."""

import time

import numpy as np
import pytest

from repro import QuerySession, parse_query
from tests.helpers import (
    brute_force_join,
    make_small_catalog,
    result_tuples,
)

SIX_RELATION_SQL = (
    "select * from R1, R2, R3, R4, R5, R6 "
    "where R1.B = R2.B and R2.C = R3.C and R2.D = R4.D "
    "and R1.E = R5.E and R5.F = R6.F"
)


@pytest.fixture
def session():
    return QuerySession(make_small_catalog())


def test_plan_cache_hit_and_miss(session):
    plan_a = session.plan(SIX_RELATION_SQL)
    assert session.plan_cache.stats.misses == 1
    plan_b = session.plan(SIX_RELATION_SQL)
    assert plan_b is plan_a
    assert session.plan_cache.stats.hits == 1
    # a structurally equal but textually different query also hits
    shuffled = (
        "SELECT * FROM R1, R2, R3, R4, R5, R6 "
        "WHERE R5.F = R6.F AND R1.E = R5.E AND R2.D = R4.D "
        "AND R2.C = R3.C AND R1.B = R2.B"
    )
    assert session.plan(shuffled) is plan_a
    assert session.plan_cache.stats.hits == 2


def test_from_order_plans_its_own_driver(session):
    forward = "select * from R1, R5 where R1.E = R5.E"
    reversed_from = "select * from R5, R1 where R1.E = R5.E"
    plan_forward = session.plan(forward, mode="COM")
    plan_reversed = session.plan(reversed_from, mode="COM")
    assert plan_forward.query.root == "R1"
    assert plan_reversed.query.root == "R5"
    assert session.plan_cache.stats.misses == 2


def test_different_options_miss(session):
    session.plan(SIX_RELATION_SQL, mode="auto")
    session.plan(SIX_RELATION_SQL, mode="COM")
    assert session.plan_cache.stats.misses == 2


def test_catalog_change_invalidates(session):
    plan_a = session.plan(SIX_RELATION_SQL)
    session.catalog.add_table("R6", {
        "F": np.array([0, 1, 2]), "K": np.array([5, 6, 7]),
    })
    plan_b = session.plan(SIX_RELATION_SQL)
    assert plan_b is not plan_a
    assert session.plan_cache.stats.misses == 2


def test_write_to_an_unread_table_keeps_the_plan(session):
    sql = "select * from R1, R2 where R1.B = R2.B"
    plan = session.plan(sql)
    session.catalog.add_table("R6", {
        "F": np.array([0, 1, 2]), "K": np.array([5, 6, 7]),
    })
    assert session.plan(sql) is plan
    assert session.plan_cache.stats.invalidations == 0


def test_write_reclaims_only_the_plans_reading_the_table(session):
    reading = session.plan(SIX_RELATION_SQL)
    other = session.plan("select * from R1, R2 where R1.B = R2.B")
    session.catalog.table("R6").column("K")[0] += 1
    session.catalog.invalidate_indexes("R6")
    assert session.plan("select * from R1, R2 where R1.B = R2.B") is other
    assert session.plan_cache.stats.invalidations == 1
    assert len(session.plan_cache) == 1
    assert session.plan(SIX_RELATION_SQL) is not reading


def test_missing_table_is_reported_not_raised(session):
    sql = "select * from NOPE, R2 where NOPE.B = R2.B"
    assert session.cache_key(parse_query(sql)) is not None
    report = session.execute(sql)
    assert not report.ok and isinstance(report.error, KeyError)
    assert len(session.plan_cache) == 0


def test_cached_plan_executes_identically(session):
    cold = session.execute(SIX_RELATION_SQL, collect_output=True)
    cached = session.execute(SIX_RELATION_SQL, collect_output=True)
    assert not cold.cache_hit and cached.cache_hit
    assert cold.ok and cached.ok
    rows_cold = result_tuples(cold.result, cold.plan.query)
    rows_cached = result_tuples(cached.result, cached.plan.query)
    assert rows_cold == rows_cached
    assert rows_cold == brute_force_join(session.catalog, cold.plan.query)


def test_cache_hit_at_least_10x_faster(session):
    """Acceptance: cached replan >= 10x faster than the cold plan."""
    t0 = time.perf_counter()
    session.plan(SIX_RELATION_SQL)
    cold = time.perf_counter() - t0
    hot = min(
        _timed(lambda: session.plan(SIX_RELATION_SQL)) for _ in range(5)
    )
    assert session.plan_cache.stats.hits >= 5
    assert cold / hot >= 10.0, f"cold {cold * 1e3:.2f}ms / hot {hot * 1e3:.2f}ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_stats_cache_reused_across_drivers(session):
    session.plan(SIX_RELATION_SQL, driver="auto")
    misses = session.planner.stats_cache.stats.misses
    assert misses >= 6  # one rooting per relation
    session.plan_cache.clear()
    session.plan(SIX_RELATION_SQL, driver="auto")
    # replanning the same query re-derives nothing
    assert session.planner.stats_cache.stats.misses == misses
    assert session.planner.stats_cache.stats.hits >= 6


def test_execute_many_budgets_and_timing(session):
    small = "select * from R1, R5 where R1.E = R5.E"
    reports = session.execute_many(
        [SIX_RELATION_SQL, small], budgets=[10, 50_000_000],
    )
    assert reports[0].timed_out and not reports[0].ok
    assert reports[1].ok
    for report in reports:
        assert report.planning_seconds >= 0.0
        assert report.execution_seconds >= 0.0
        assert report.total_seconds == (
            report.planning_seconds + report.execution_seconds
        )


def test_execute_many_budget_arity_checked(session):
    with pytest.raises(ValueError, match="budgets"):
        session.execute_many(["select * from R1, R5 where R1.E = R5.E"],
                             budgets=[1, 2])


def test_execute_reports_errors_instead_of_raising(session):
    report = session.execute("select * from Nope, R1 where Nope.X = R1.B")
    assert not report.ok
    assert isinstance(report.error, Exception)


def test_cache_info_exposes_both_caches(session):
    session.plan(SIX_RELATION_SQL)
    info = session.cache_info()
    assert info["plan_cache"].misses == 1
    assert info["stats_cache"].misses >= 1


# ----------------------------------------------------------------------
# Optimizer resolution in the cache key (ISSUE 2)
# ----------------------------------------------------------------------


def test_auto_shares_cache_entry_with_resolved_algorithm(session):
    # 6 relations: "auto" resolves to "exhaustive", so the two requests
    # share one plan-cache entry.
    session.plan(SIX_RELATION_SQL, optimizer="auto")
    assert session.plan_cache.stats.misses == 1
    session.plan(SIX_RELATION_SQL, optimizer="exhaustive")
    assert session.plan_cache.stats.hits == 1
    assert len(session.plan_cache) == 1


def test_different_resolved_algorithms_key_separately(session):
    session.plan(SIX_RELATION_SQL, optimizer="exhaustive")
    session.plan(SIX_RELATION_SQL, optimizer="beam")
    assert session.plan_cache.stats.misses == 2
    assert len(session.plan_cache) == 2


def test_session_accepts_scaling_optimizers(session):
    for optimizer in ("idp", "beam", "auto"):
        plan = session.plan(SIX_RELATION_SQL, optimizer=optimizer)
        assert plan.query.is_valid_order(plan.order)


# ----------------------------------------------------------------------
# Concurrent session use (ISSUE 2: thread-safe shared caches)
# ----------------------------------------------------------------------


def test_concurrent_planning_on_one_session(session):
    import threading

    queries = [
        SIX_RELATION_SQL,
        "select * from R1, R2 where R1.B = R2.B",
        "select * from R1, R2, R3 where R1.B = R2.B and R2.C = R3.C",
        "select * from R1, R5, R6 where R1.E = R5.E and R5.F = R6.F",
    ]
    errors = []
    barrier = threading.Barrier(8)

    def worker(idx):
        try:
            barrier.wait()
            for i in range(12):
                plan = session.plan(queries[(idx + i) % len(queries)])
                assert plan is not None
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors, errors
    stats = session.plan_cache.stats
    assert stats.lookups == 8 * 12
    # every distinct query planned at least once, the rest were hits
    assert len(session.plan_cache) == len(queries)


def test_scaling_knobs_are_part_of_the_cache_key():
    from tests.helpers import make_small_catalog

    catalog = make_small_catalog()
    a = QuerySession(catalog, beam_width=8)
    a.plan(SIX_RELATION_SQL, optimizer="beam")
    a.plan(SIX_RELATION_SQL, optimizer="beam")
    assert a.plan_cache.stats.hits == 1

    # sessions built with different tuning must not share a key
    query = parse_query(SIX_RELATION_SQL)
    for knob, values in (("beam_width", (8, 32)), ("idp_block_size", (4, 6))):
        first, second = (QuerySession(catalog, **{knob: value})
                         for value in values)
        assert first.cache_key(query) != second.cache_key(query), knob


def test_execute_many_isolates_mid_batch_failures(session):
    """Regression: one bad query must never abort the rest of a batch."""
    small = "select * from R1, R5 where R1.E = R5.E"
    reports = session.execute_many([
        small,
        "select * frm broken",                        # parse error
        "select * from Nope, R1 where Nope.X = R1.B",  # unknown table
        SIX_RELATION_SQL,                              # budget overrun
        small,
    ], budgets=[50_000_000, 50_000_000, 50_000_000, 10, 50_000_000])
    assert [report.ok for report in reports] == \
        [True, False, False, False, True]
    assert reports[1].error is not None and not reports[1].timed_out
    assert reports[2].error is not None and not reports[2].timed_out
    assert reports[3].timed_out and reports[3].error is None
    # the good queries are full-fidelity reports, not placeholders
    assert reports[0].result is not None
    assert reports[4].cache_hit  # same query as reports[0]


def test_budget_overrun_in_plan_phase_reports_timeout(session):
    """A BudgetExceededError raised while the plan phase runs (e.g. a
    prepared statement's rebind executing) is a timeout, not an error."""
    from repro.engine import BudgetExceededError
    from repro.service.session import _reported_run

    def plan_phase():
        raise BudgetExceededError("COM", "R2", 100, 10)

    report = _reported_run("q", plan_phase, session=session)
    assert report.timed_out and report.error is None
    assert report.cache_stats is not None
