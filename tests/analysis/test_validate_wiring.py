"""The ``validate`` knob through Planner, QuerySession and the async
service: cold plans verified, verdicts cached per fingerprint, findings
surfaced on QueryReport, corrupt specs rejected at rehydration."""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro import (
    AsyncQueryService,
    Planner,
    PlanVerificationError,
    QuerySession,
    Table,
)
from repro.analysis import planlint
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


def test_planner_validate_default_and_override(catalog):
    planner = Planner(catalog, validate="full")
    plan = planner.plan(SQL)
    assert plan.diagnostics == ()  # clean plan, no findings
    off = planner.plan(SQL, validate="off")
    assert off.diagnostics == ()
    with pytest.raises(ValueError, match="validate must be one of"):
        Planner(catalog, validate="loud")
    with pytest.raises(ValueError, match="validate must be one of"):
        Planner(catalog).plan(SQL, validate="loud")


def test_planner_validate_attaches_warnings(catalog):
    hazard = Catalog()
    hazard.add(Table("r", {"k": np.array([1.0, np.nan])}))
    hazard.add(Table("s", {"k": np.array([1, 2], dtype=np.int64)}))
    plan = Planner(hazard, validate="full").plan(
        "SELECT * FROM r, s WHERE r.k = s.k"
    )
    assert "KEY002" in {d.code for d in plan.diagnostics}


def test_validate_does_not_change_the_plan(catalog):
    baseline = Planner(catalog).plan(SQL)
    validated = Planner(catalog, validate="full").plan(SQL)
    assert baseline.fingerprint() == validated.fingerprint()


def test_verdict_cached_per_fingerprint(catalog, monkeypatch):
    planner = Planner(catalog, validate="full")
    calls = []
    original = planlint.verify_plan

    def counting(plan, source=None, level="full"):
        calls.append(level)
        return original(plan, source=source, level=level)

    monkeypatch.setattr(planlint, "verify_plan", counting)
    planner.plan(SQL)
    planner.plan(SQL)  # same fingerprint: verdict-cache hit
    assert len(calls) == 1


def test_session_surfaces_diagnostics_and_warm_path(catalog):
    session = QuerySession(catalog, validate="full", partitioning=2)
    cold = session.execute(SQL)
    assert cold.ok and not cold.cache_hit
    warm = session.execute(SQL)
    assert warm.ok and warm.cache_hit
    cyclic = session.execute(CYCLIC_SQL)
    assert cyclic.ok and cyclic.residual_predicates
    assert isinstance(cold.diagnostics, tuple)


def test_cache_hit_is_verified_at_the_requested_level():
    """``validate`` is cache-key exempt, so a ``validate="full"`` request
    can hit an entry planned with ``validate="off"``: it must still be
    verified — and the cached plan must not be mutated by it."""
    def nan_catalog():
        hazard = Catalog()
        hazard.add(Table("R", {"a": np.array([1.0, np.nan, 3.0])}))
        hazard.add(Table("S", {"a": np.array([np.nan, 1.0, 2.0])}))
        return hazard

    sql = "SELECT * FROM R, S WHERE R.a = S.a"
    session = QuerySession(nan_catalog())
    assert session.execute(sql).diagnostics == ()
    warm = session.execute(sql, validate="full")
    cold = QuerySession(nan_catalog()).execute(sql, validate="full")
    assert warm.cache_hit and not cold.cache_hit
    assert [d.code for d in warm.diagnostics] == ["KEY002", "KEY002"]
    assert [d.code for d in warm.diagnostics] \
        == [d.code for d in cold.diagnostics]
    assert session.plan(sql).diagnostics == ()  # the entry is untouched


def test_session_cache_key_ignores_validate(catalog):
    from repro.core.parser import parse_query

    session = QuerySession(catalog, validate="off")
    parsed = parse_query("SELECT * FROM r, s WHERE r.a = s.a")
    key_off = session.cache_key(parsed, validate="off")
    key_full = session.cache_key(parsed, validate="full")
    assert key_off == key_full


def test_rehydrate_rejects_corrupt_spec(catalog):
    planner = Planner(catalog, validate="full")
    plan = planner.plan(CYCLIC_SQL)
    spec = plan.to_spec(catalog.fingerprint())
    roundtrip = planner.rehydrate(spec, CYCLIC_SQL)
    assert roundtrip.fingerprint() == plan.fingerprint()
    bad = dataclasses.replace(spec, order=tuple(reversed(spec.order)))
    with pytest.raises(PlanVerificationError) as excinfo:
        planner.rehydrate(bad, CYCLIC_SQL)
    assert "PLAN002" in excinfo.value.result.codes()
    # validate="off" preserves the legacy behavior: structural checks
    # only happen downstream, the spec itself is trusted
    unvalidated = Planner(catalog)
    hydrated = unvalidated.rehydrate(spec, CYCLIC_SQL)
    assert hydrated.fingerprint() == plan.fingerprint()


def test_async_service_with_validation(catalog):
    async def main():
        session = QuerySession(catalog, validate="basic")
        async with AsyncQueryService(session) as service:
            report = await service.execute(SQL)
            assert report.ok, report.error
            again = await service.execute(SQL)
            assert again.ok
        return True

    assert asyncio.run(main())


def test_async_worker_config_carries_validate(catalog):
    session = QuerySession(catalog, validate="basic")
    service = AsyncQueryService(session, planning_workers=0)
    try:
        assert session.planner.validate == "basic"
    finally:
        service.close()
