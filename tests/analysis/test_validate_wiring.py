"""The retired ``validate`` knob, through Planner, QuerySession and the
async service: ``validate=`` is an unknown knob everywhere, plans are
checked when they are built, a cache hit builds (and checks) nothing,
and key hazards are a caller's explicit :func:`verify_plan` call."""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro import AsyncQueryService, Planner, QuerySession, verify_plan
from repro.storage.table import Table
from repro.core.parser import parse_query
from repro.planner import PhysicalPlan
from repro.storage import Catalog

SQL = "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b AND r.x = 3"
CYCLIC_SQL = (
    "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b AND t.c = r.x"
)


@pytest.fixture()
def catalog():
    rng = np.random.default_rng(7)
    catalog = Catalog()
    catalog.add(Table("r", {
        "a": rng.integers(0, 40, 500),
        "x": rng.integers(0, 5, 500),
    }))
    catalog.add(Table("s", {
        "a": rng.integers(0, 40, 900),
        "b": rng.integers(0, 25, 900),
    }))
    catalog.add(Table("t", {
        "b": rng.integers(0, 25, 400),
        "c": rng.integers(0, 5, 400),
    }))
    return catalog


def nan_catalog():
    hazard = Catalog()
    hazard.add(Table("R", {"a": np.array([1.0, np.nan, 3.0])}))
    hazard.add(Table("S", {"a": np.array([np.nan, 1.0, 2.0])}))
    return hazard


def test_planner_validate_default_and_override(catalog):
    """Neither a planner default nor a per-call override exists."""
    with pytest.raises(TypeError):
        Planner(catalog, validate="full")
    with pytest.raises(TypeError, match="validate"):
        Planner(catalog).plan(SQL, validate="full")


def test_planner_validate_attaches_warnings():
    """Hazards are what :func:`verify_plan` returns; the plan carries
    no findings of its own."""
    hazard = Catalog()
    hazard.add(Table("r", {"k": np.array([1.0, np.nan])}))
    hazard.add(Table("s", {"k": np.array([1, 2], dtype=np.int64)}))
    plan = Planner(hazard).plan("SELECT * FROM r, s WHERE r.k = s.k")
    assert [d.code for d in verify_plan(plan, level="full")] == ["KEY002"]
    assert not hasattr(plan, "diagnostics")


def test_validate_does_not_change_the_plan(catalog):
    """The construction checks are pure: rebuilding a plan through
    them changes nothing it decides."""
    plan = Planner(catalog).plan(SQL)
    rebuilt = dataclasses.replace(plan)
    assert rebuilt.fingerprint() == plan.fingerprint()
    assert rebuilt.spec == plan.spec


def test_verdict_cached_per_fingerprint(catalog, monkeypatch):
    """A plan-cache hit constructs nothing, so it checks nothing."""
    built, checks = [], PhysicalPlan.__post_init__

    def counting(plan):
        built.append(plan)
        checks(plan)

    monkeypatch.setattr(PhysicalPlan, "__post_init__", counting)
    session = QuerySession(catalog)
    session.plan(SQL)
    session.plan(SQL)
    assert len(built) == 1


def test_session_surfaces_diagnostics_and_warm_path(catalog):
    session = QuerySession(catalog, partitioning=2)
    cold = session.execute(SQL)
    assert cold.ok and not cold.cache_hit
    warm = session.execute(SQL)
    assert warm.ok and warm.cache_hit
    cyclic = session.execute(CYCLIC_SQL)
    assert cyclic.ok and cyclic.residual_predicates
    assert not hasattr(cold, "diagnostics")


def test_cache_hit_is_verified_at_the_requested_level():
    """A cached plan verifies like a cold one, and verifying it leaves
    the cache entry untouched."""
    sql = "SELECT * FROM R, S WHERE R.a = S.a"
    session = QuerySession(nan_catalog())
    cached = session.plan(sql)
    warm = session.execute(sql)
    cold = QuerySession(nan_catalog()).plan(sql)
    assert warm.cache_hit and warm.plan is cached
    assert [d.code for d in verify_plan(warm.plan, sql, level="full")] \
        == [d.code for d in verify_plan(cold, sql, level="full")] \
        == ["KEY002", "KEY002"]
    assert session.plan(sql) is cached


def test_session_cache_key_ignores_validate(catalog):
    session = QuerySession(catalog)
    parsed = parse_query("SELECT * FROM r, s WHERE r.a = s.a")
    with pytest.raises(TypeError):
        QuerySession(catalog, validate="off")
    with pytest.raises(TypeError, match="validate"):
        session.cache_key(parsed, validate="off")
    assert isinstance(session.execute(SQL, validate="full").error,
                      TypeError)


def test_rehydrate_rejects_corrupt_spec(catalog):
    planner = Planner(catalog)
    plan = planner.plan(CYCLIC_SQL)
    spec = plan.to_spec(catalog.fingerprint())
    roundtrip = planner.rehydrate(spec, CYCLIC_SQL)
    assert roundtrip.fingerprint() == plan.fingerprint()
    bad = dataclasses.replace(spec, order=tuple(reversed(spec.order)))
    with pytest.raises(ValueError, match="^PLAN002"):
        planner.rehydrate(bad, CYCLIC_SQL)


def test_async_service_with_validation(catalog):
    async def main():
        session = QuerySession(catalog)
        async with AsyncQueryService(session) as service:
            report = await service.execute(SQL)
            assert report.ok, report.error
            # reported like the synchronous path, not raised
            report = await service.execute(SQL, validate="basic")
            assert isinstance(report.error, TypeError)
            assert "validate" in str(report.error)
        return True

    assert asyncio.run(main())


def test_async_worker_config_carries_validate(catalog):
    """Planning workers rebuild their planner from ``planner_config()``,
    which carries no ``validate``."""
    session = QuerySession(catalog)
    service = AsyncQueryService(session, planning_workers=0)
    try:
        config = session.planner.options.planner_config()
        assert "validate" not in config
        assert Planner(catalog, **config).options == session.planner.options
    finally:
        service.close()
