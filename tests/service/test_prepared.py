"""Prepared statements: plan once, execute many with new constants."""

import numpy as np
import pytest

from repro import QuerySession
from tests.helpers import make_small_catalog, result_tuples

TEMPLATE = ("select * from R1, R2, R3 "
            "where R1.B = R2.B and R2.C = R3.C and R2.D = ?")


@pytest.fixture
def session():
    return QuerySession(make_small_catalog())


def test_reexecution_matches_fresh_plans(session):
    stmt = session.prepare(TEMPLATE)
    for constant in range(6):
        prepared = stmt.execute(constant, collect_output=True)
        fresh = session.execute(
            TEMPLATE.replace("?", str(constant)), collect_output=True,
        )
        assert prepared.ok and fresh.ok
        rows_prepared = result_tuples(prepared.result, prepared.plan.query)
        rows_fresh = result_tuples(fresh.result, fresh.plan.query)
        assert rows_prepared == rows_fresh, constant
    assert stmt.executions == 6


def test_plans_only_once(session):
    stmt = session.prepare(TEMPLATE)
    first = stmt.execute(1)
    again = stmt.execute(2)
    assert not first.cache_hit       # first binding planned the template
    assert again.cache_hit           # later bindings reuse it
    assert again.plan is first.plan


def test_second_statement_over_same_sql_hits_plan_cache(session):
    first = session.prepare(TEMPLATE).execute(1)
    assert not first.cache_hit
    # a new statement's "fresh" template is served by the session's
    # plan cache and reported as a hit
    second = session.prepare(TEMPLATE).execute(1)
    assert second.cache_hit
    assert second.plan is first.plan


def test_catalog_change_forces_replan(session):
    stmt = session.prepare(TEMPLATE)
    first = stmt.execute(1)
    session.catalog.add_table("R3", {
        "C": np.array([0, 1, 2, 3]), "G": np.array([0, 0, 1, 1]),
    })
    replanned = stmt.execute(1)
    assert not replanned.cache_hit
    assert replanned.plan is not first.plan


def test_write_to_an_unread_table_keeps_the_template(session):
    stmt = session.prepare(TEMPLATE)
    first = stmt.execute(1)
    template = stmt._template
    session.catalog.add_table("R5", {
        "E": np.array([0, 1, 2, 3]), "F": np.array([0, 0, 1, 1]),
    })
    again = stmt.execute(2)
    assert again.ok and again.cache_hit
    assert stmt._template is template and again.plan is first.plan


def test_missing_table_is_reported_not_raised(session):
    stmt = session.prepare(
        "select * from NOPE, R2 where NOPE.B = R2.B and R2.D = ?"
    )
    report = stmt.execute(1)
    assert not report.ok and isinstance(report.error, KeyError)
    assert stmt._template is None


def test_invalidate_drops_template(session):
    stmt = session.prepare(TEMPLATE)
    stmt.execute(1)
    stmt.invalidate()
    assert stmt._template is None
    # the replan is transparently served by the session's plan cache
    # (same SQL + binding), so it still reports as a cache hit
    report = stmt.execute(1)
    assert report.ok and report.cache_hit
    assert stmt._template is not None
    # clearing the session plan cache too makes the replan cold
    stmt.invalidate()
    session.plan_cache.clear()
    assert not stmt.execute(1).cache_hit


def test_binding_arity_enforced(session):
    stmt = session.prepare(TEMPLATE)
    assert stmt.num_params == 1
    with pytest.raises(ValueError):
        stmt.execute()
    with pytest.raises(ValueError):
        stmt.execute(1, 2)


def test_prepare_rejects_join_queries(session):
    with pytest.raises(TypeError):
        session.prepare(session.plan(
            "select * from R1, R2 where R1.B = R2.B").query)


def test_prepared_without_placeholders_is_allowed(session):
    stmt = session.prepare("select * from R1, R2 where R1.B = R2.B")
    assert stmt.num_params == 0
    report = stmt.execute(collect_output=True)
    assert report.ok
    fresh = session.execute("select * from R1, R2 where R1.B = R2.B",
                            collect_output=True)
    assert (result_tuples(report.result, report.plan.query)
            == result_tuples(fresh.result, fresh.plan.query))


def test_budget_overrun_reported(session):
    stmt = session.prepare(TEMPLATE)
    report = stmt.execute(1, max_intermediate_tuples=1)
    assert report.timed_out and not report.ok


def test_prepare_time_flat_output_is_honored(session):
    stmt = session.prepare(TEMPLATE, flat_output=False)
    report = stmt.execute(1)
    assert report.ok
    assert stmt._template_flat_output is False   # not clobbered by default
    # an explicit per-execution override still wins
    assert stmt.execute(1, flat_output=True).ok
    assert stmt._template_flat_output is True


def test_output_shape_change_replans_template(session):
    stmt = session.prepare(TEMPLATE)
    flat = stmt.execute(1, flat_output=True)
    factorized = stmt.execute(1, flat_output=False)
    assert not factorized.cache_hit      # shape change forces a replan
    assert stmt.execute(2, flat_output=False).cache_hit
    assert flat.ok and factorized.ok


def test_planning_failure_reported_not_raised(session):
    # the column only fails at push-down, after a successful parse
    stmt = session.prepare(
        "select * from R1, R2 where R1.B = R2.B and R2.NOPE = ?"
    )
    report = stmt.execute(1)
    assert not report.ok
    assert isinstance(report.error, Exception)
    assert "NOPE" in str(report.error)
    # later bindings keep reporting rather than raising mid-batch
    assert not stmt.execute(2).ok
