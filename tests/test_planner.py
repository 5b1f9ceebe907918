"""Tests for the end-to-end Planner."""

import pytest

from repro import ExecutionMode, Planner, QuerySession, stats_from_data
from repro.planner import push_down_selections
from repro.core import parse_query

from tests.helpers import brute_force_join, make_running_example_query, make_small_catalog


@pytest.fixture(scope="module")
def catalog():
    return make_small_catalog()


SQL = (
    "select * from R1, R2, R3, R4, R5, R6 "
    "where R1.B = R2.B and R2.C = R3.C and R2.D = R4.D "
    "and R1.E = R5.E and R5.F = R6.F"
)


class TestPlanning:
    def test_plan_from_sql(self, catalog):
        planner = Planner(catalog)
        plan = planner.plan(SQL, mode=ExecutionMode.COM)
        assert plan.mode is ExecutionMode.COM
        assert plan.query.is_valid_order(plan.order)
        assert plan.predicted_cost > 0

    def test_plan_from_join_query(self, catalog):
        planner = Planner(catalog)
        plan = planner.plan(make_running_example_query(), mode="COM")
        assert plan.query.root == "R1"

    def test_invalid_query_type(self, catalog):
        with pytest.raises(TypeError, match="query must be"):
            Planner(catalog).plan(42)

    def test_invalid_optimizer(self, catalog):
        with pytest.raises(ValueError, match="optimizer"):
            Planner(catalog).plan(SQL, optimizer="bogus")

    def test_auto_mode_picks_cheapest(self, catalog):
        planner = Planner(catalog)
        auto = planner.plan(SQL, mode="auto")
        for mode in ExecutionMode.all_modes():
            fixed = planner.plan(SQL, mode=mode)
            assert auto.predicted_cost <= fixed.predicted_cost + 1e-9

    def test_auto_driver_not_worse_than_fixed(self, catalog):
        planner = Planner(catalog)
        fixed = planner.plan(SQL, mode="COM", driver="fixed")
        auto = planner.plan(SQL, mode="COM", driver="auto")
        assert auto.predicted_cost <= fixed.predicted_cost + 1e-9

    def test_greedy_optimizer_variant(self, catalog):
        planner = Planner(catalog)
        plan = planner.plan(SQL, mode="COM", optimizer="survival")
        assert plan.query.is_valid_order(plan.order)


class TestExecution:
    def test_executes_correctly(self, catalog):
        planner = Planner(catalog)
        query = make_running_example_query()
        expected = brute_force_join(catalog, query)
        for mode in ("auto", "STD", "SJ+COM"):
            plan = planner.plan(SQL, mode=mode)
            result = plan.execute(flat_output=True, collect_output=True)
            assert result.output_size == len(expected)

    def test_selection_pushdown(self, catalog):
        planner = Planner(catalog)
        sql = SQL + " and R1.B = 3"
        plan = planner.plan(sql, mode="COM")
        # The derived driver table only holds B = 3 rows.
        driver = plan.catalog.table("R1")
        assert (driver.column("B") == 3).all()
        result = plan.execute(collect_output=True)
        # Cross-check against brute force on the filtered catalog.
        expected = brute_force_join(plan.catalog, plan.query)
        assert result.output_size == len(expected)

    def test_push_down_selections_keeps_aliases_distinct(self, catalog):
        parsed = parse_query(
            "select * from R2 a, R2 b where a.C = b.D and a.B = 3"
        )
        derived = push_down_selections(catalog, parsed)
        assert set(derived.table_names) == {"a", "b"}
        assert (derived.table("a").column("B") == 3).all()
        assert len(derived.table("b")) == len(catalog.table("R2"))


class TestStatsMethods:
    def test_sampling_stats(self, catalog):
        query = make_running_example_query()
        exact = stats_from_data(catalog, query)
        sampled = stats_from_data(catalog, query, ("sampling", 1.0, 0))
        for rel in query.non_root_relations:
            assert sampled.m(rel) == pytest.approx(exact.m(rel), abs=0.02)
        # the planner's stats="sampling" is the default-parameter sample
        planned = Planner(catalog).plan(query, stats="sampling").stats
        default = stats_from_data(catalog, query, "sampling")
        assert planned.edge_stats == default.edge_stats

    def test_prebuilt_stats_passthrough(self, catalog):
        query = make_running_example_query()
        stats = stats_from_data(catalog, query)
        assert stats_from_data(catalog, query, stats) is stats
        assert Planner(catalog).plan(query, stats=stats).stats is stats

    @pytest.mark.parametrize("query", [
        SQL,                                        # acyclic, fixed driver
        "select * from R1, R2, R5 where R1.B = R2.B and R1.E = R5.E "
        "and R2.B = R5.E",                          # cyclic
    ])
    def test_unknown_method_rejected(self, catalog, query):
        # once, at construction — not per query shape at the first plan()
        with pytest.raises(ValueError, match="stats method"):
            Planner(catalog, stats="bogus")
        with pytest.raises(ValueError, match="stats method"):
            QuerySession(catalog, stats="bogus")
        for driver in ("fixed", "auto"):
            with pytest.raises(ValueError, match="stats method"):
                Planner(catalog).plan(query, driver=driver, stats="bogus")


class TestExplain:
    def test_explain_mentions_every_join(self, catalog):
        planner = Planner(catalog)
        plan = planner.plan(SQL, mode="COM")
        text = plan.explain()
        for relation in plan.order:
            assert f"JOIN {relation}" in text
        assert "SCAN R1" in text
        assert "est_probes" in text

    def test_explain_sj_mentions_child_orders(self, catalog):
        planner = Planner(catalog)
        plan = planner.plan(SQL, mode="SJ+COM")
        assert "semi-join child orders" in plan.explain()
