"""Tests for the scaling-optimizer knobs and the planning-budget ladder."""

import pytest

from repro.core.optimizer import PlanningBudgetExceeded, idp_order
from repro.planner import Planner
from tests.large_joins import (
    chain_query,
    large_join_catalog,
    large_query_stats,
    star_query,
)


class TestPlannerKnobResolution:
    def test_bad_knobs_rejected(self):
        catalog = large_join_catalog(star_query(4), seed=0)
        with pytest.raises(ValueError, match="idp_block_size"):
            Planner(catalog, idp_block_size=0)
        with pytest.raises(ValueError, match="beam_width"):
            Planner(catalog, beam_width="wide")
        with pytest.raises(ValueError, match="planning_budget_ms"):
            Planner(catalog, planning_budget_ms=-5)
        # the scaling knobs are plain ints: no value derived at run time
        with pytest.raises(ValueError, match="idp_block_size"):
            Planner(catalog, idp_block_size="auto")
        with pytest.raises(ValueError, match="beam_width"):
            Planner(catalog, beam_width="auto")


class TestBudgetLadder:
    def test_deadline_aborts_the_dp(self):
        query = star_query(18)
        stats = large_query_stats(query, seed=1)
        with pytest.raises(PlanningBudgetExceeded):
            # a deadline in the past must abort promptly
            idp_order(query, stats, deadline=0.0)

    def test_budgeted_plan_still_valid(self):
        # An 18-relation star through optimizer="exhaustive" with a tiny
        # budget: the ladder must fall back (IDP, then beam) and still
        # produce a valid plan instead of hanging or raising.
        query = star_query(18)
        catalog = large_join_catalog(query, rows_per_relation=128, seed=2)
        planner = Planner(catalog)
        plan = planner.plan(query, mode="COM", optimizer="exhaustive",
                            planning_budget_ms=20)
        assert plan.query.is_valid_order(plan.order)

    def test_generous_budget_matches_unbudgeted(self):
        query = star_query(8)
        catalog = large_join_catalog(query, rows_per_relation=128, seed=3)
        planner = Planner(catalog)
        unbudgeted = planner.plan(query, mode="COM", optimizer="exhaustive")
        budgeted = planner.plan(query, mode="COM", optimizer="exhaustive",
                                planning_budget_ms=60_000)
        assert budgeted.order == unbudgeted.order
        assert budgeted.predicted_cost == unbudgeted.predicted_cost

    def test_budget_never_moves_the_auto_rung(self):
        # the budget arms a deadline; where "auto" starts is the
        # relation count's alone
        query = star_query(16)
        catalog = large_join_catalog(query, rows_per_relation=16, seed=5)
        options = Planner(catalog, optimizer="auto").options
        rungs = {
            options.override(planning_budget_ms=budget)
            .resolved(catalog, query).optimizer
            for budget in (None, 0.001, 60_000.0)
        }
        assert rungs == {"idp"}

    def test_session_keeps_the_requests_planning_budget(self, monkeypatch):
        """Every order search a session request runs is bounded by the
        request's deadline, never by the planner's unbudgeted
        default."""
        import repro.planner as planner_module
        from repro.service import QuerySession

        query = chain_query(8)
        catalog = large_join_catalog(query, rows_per_relation=48,
                                     key_domain=32, seed=3)
        deadlines = []
        for name in ("exhaustive_optimal", "idp_order"):
            def spy(*args, _search=getattr(planner_module, name), **kwargs):
                deadlines.append(kwargs.get("deadline"))
                return _search(*args, **kwargs)
            monkeypatch.setattr(planner_module, name, spy)
        report = QuerySession(catalog).execute(
            query, mode="STD", optimizer="auto", planning_budget_ms=0.001)
        assert report.ok
        assert deadlines and None not in deadlines

    def test_session_budget_in_cache_key(self):
        from repro.service import QuerySession

        query = star_query(6)
        catalog = large_join_catalog(query, rows_per_relation=64, seed=4)
        session = QuerySession(catalog)
        a = session.cache_key(query, planning_budget_ms=None)
        b = session.cache_key(query, planning_budget_ms=5)
        assert a != b
