"""The two robustness postures through the session and async service.

``robustness="bounded"`` is decided once, at planning time: the
bounded-regret gate may swap the estimated order for the bound-optimal
one, and the cached plan serves warm traffic as it was decided.  Neither
posture changes an answer, empty answers included, and both keep the
request's planning budget.
"""

import asyncio

import numpy as np
import pytest

from repro import AsyncQueryService, QuerySession
from repro.core import JoinEdge, JoinQuery
from repro.planner import Planner
from repro.storage import Catalog

from tests.core.test_bounds import (
    CORRUPTION,
    adversarial_query,
    make_adversarial_catalog,
)
from tests.helpers import StatsCorruptingCatalog, brute_force_join, result_tuples

POSTURES = ("off", "bounded")


def make_corrupted_session(**kwargs):
    catalog = make_adversarial_catalog()
    corrupted = StatsCorruptingCatalog(catalog, CORRUPTION)
    return catalog, QuerySession(corrupted, **kwargs)


@pytest.mark.parametrize("robustness, order", [
    ("off", ["H", "S"]),      # the lie works on the estimate
    ("bounded", ["S", "H"]),  # the gate does not buy it
])
def test_session_serves_each_postures_order(robustness, order):
    catalog, session = make_corrupted_session(robustness=robustness)
    query = adversarial_query()
    report = session.execute(query, mode="STD", collect_output=True)
    assert report.ok
    assert report.plan.robustness == robustness
    assert report.plan.order == order
    assert result_tuples(report.result, query) == brute_force_join(
        catalog, query
    )


def test_bounded_plan_serves_warm_traffic():
    _, session = make_corrupted_session(robustness="bounded")
    query = adversarial_query()
    cold = session.execute(query, mode="STD")
    warm = session.execute(query, mode="STD")
    assert cold.ok and warm.ok
    assert not cold.cache_hit and warm.cache_hit
    assert warm.plan.order == cold.plan.order == ["S", "H"]
    assert warm.result.output_size == cold.result.output_size


def test_bounded_gate_keeps_the_order_where_bounds_tie():
    """X and Y share max frequency 8, so guaranteed bounds cannot tell
    the corrupted order from the true one: the gate keeps the estimated
    order rather than swap on a tie, and the answer is unchanged."""
    n_driver = 2000
    catalog = Catalog()
    catalog.add_table("R", {"a": np.arange(n_driver)})
    # 0.5% of keys present, 8 rows each: true selectivity 0.04
    catalog.add_table("X", {"a": np.repeat(np.arange(0, n_driver, 200), 8)})
    # every key present, 8 rows each: true selectivity 8
    catalog.add_table("Y", {"a": np.repeat(np.arange(n_driver), 8)})
    query = JoinQuery("R", [JoinEdge("R", "X", "a", "a"),
                            JoinEdge("R", "Y", "a", "a")])
    corrupted = StatsCorruptingCatalog(catalog, {"Y": 1e-4, "X": 50.0})

    truth = Planner(catalog).plan(query, mode="STD")
    off = Planner(corrupted).plan(query, mode="STD")
    bounded = Planner(corrupted, robustness="bounded").plan(query, mode="STD")
    assert truth.order == ["X", "Y"]
    assert bounded.order == off.order == ["Y", "X"]
    assert bounded.execute().output_size == truth.execute().output_size


def run_empty_four_way_join(mode, robustness):
    """``A.x = B.x AND A.y = C.y AND A.x = D.x`` with ``A.y = A.x`` and
    the ``B`` and ``C`` keys on disjoint halves of ``A``'s domain: the
    answer is empty, but no single edge's statistics say so."""
    rng = np.random.default_rng(0)
    x = rng.integers(0, 50, 200)
    catalog = Catalog()
    catalog.add_table("A", {"x": x, "y": x.copy()})
    catalog.add_table("B", {"x": rng.integers(0, 25, 200)})
    catalog.add_table("C", {"y": rng.integers(25, 50, 200)})
    catalog.add_table("D", {"x": rng.integers(0, 50, 200)})
    sql = ("SELECT * FROM A, B, C, D WHERE A.x = B.x AND A.y = C.y "
           "AND A.x = D.x")
    return QuerySession(catalog, robustness=robustness).execute(
        sql, mode=mode, collect_output=True)


@pytest.mark.parametrize("robustness", POSTURES)
@pytest.mark.parametrize("mode", ["STD", "COM", "BVP+STD", "BVP+COM"])
def test_empty_answer_in_every_mode(mode, robustness):
    """An intermediate that empties part-way (a join step that matches
    nothing, or a bitvector prefilter that passes nothing) ends the run
    with an empty, well-formed answer."""
    report = run_empty_four_way_join(mode, robustness)
    assert report.ok
    assert report.plan.robustness == robustness
    assert report.result.output_size == 0
    assert all(len(rows) == 0 for rows in report.result.output_rows.values())


@pytest.mark.parametrize("robustness", POSTURES)
def test_posture_keeps_the_requests_planning_budget(monkeypatch, robustness):
    """Every order search a request runs — the bounded gate's
    bound-optimal search included — is bounded by the request's
    deadline, never by the planner's unbudgeted default."""
    import repro.planner as planner_module
    from tests.large_joins import chain_query, large_join_catalog

    query = chain_query(8)
    catalog = large_join_catalog(query, rows_per_relation=48,
                                 key_domain=32, seed=3)
    session = QuerySession(catalog, robustness=robustness)
    deadlines = []
    for name in ("exhaustive_optimal", "idp_order"):
        def spy(*args, _search=getattr(planner_module, name), **kwargs):
            deadlines.append(kwargs.get("deadline"))
            return _search(*args, **kwargs)
        monkeypatch.setattr(planner_module, name, spy)
    report = session.execute(query, mode="STD", optimizer="auto",
                             planning_budget_ms=0.001)
    assert report.ok
    # the estimated search, plus the bound search under "bounded", each
    # start on the exhaustive rung
    assert len(deadlines) >= (2 if robustness == "bounded" else 1)
    assert None not in deadlines


def test_async_service_serves_the_bounded_plan():
    catalog, session = make_corrupted_session(robustness="bounded")
    query = adversarial_query()

    async def go():
        async with AsyncQueryService(session) as service:
            return await service.execute(query, mode="STD",
                                         collect_output=True)

    report = asyncio.run(go())
    assert report.ok
    assert report.plan.order == ["S", "H"]
    assert result_tuples(report.result, query) == brute_force_join(
        catalog, query
    )
