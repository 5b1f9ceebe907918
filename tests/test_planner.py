"""Tests for the end-to-end Planner."""

import gc
from collections import Counter

import numpy as np
import pytest

from repro import ExecutionMode, Planner, QuerySession
from repro.planner import push_down_selections
from repro.core import parse_query
from repro.storage import Catalog, PartitionedTable
from repro.storage.hashindex import HashIndex
from repro.storage.table import Table

from tests.helpers import (
    brute_force_join,
    make_running_example_query,
    make_small_catalog,
    result_tuples,
)


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


#: R1 drives, R2 is probed unselected, R3 carries the selection
CHAIN_SQL = ("select * from R1, R2, R3 "
             "where R1.B = R2.B and R2.C = R3.C and R3.G = {}")


def _live_hash_indexes():
    gc.collect()
    return sum(isinstance(obj, HashIndex) for obj in gc.get_objects())


@pytest.fixture()
def index_builds(monkeypatch):
    """Every hash-index build, as ``(table kind, indexed array id)`` —
    a rename indexes its base table's array."""
    builds = Counter()
    build = Table.build_hash_index

    def counting(table, attribute, rows=None):
        builds[type(table).__name__, id(table.column(attribute))] += 1
        return build(table, attribute, rows)

    monkeypatch.setattr(Table, "build_hash_index", counting)
    return builds


class TestSharedIndexes:
    """An unselected relation is a rename of its base table, so every
    plan, alias and self-join probes the base table's one index."""

    def test_plans_with_different_constants_share_the_base_index(self):
        catalog = make_small_catalog()
        planner = Planner(catalog)
        plans = [planner.plan(CHAIN_SQL.format(value), mode="COM")
                 for value in (1, 2)]
        for plan in plans:
            assert plan.query.root == "R1"
            plan.execute()
        first, second = (plan.catalog.hash_index("R2", "B") for plan in plans)
        assert first is second
        assert first is catalog.hash_index("R2", "B")
        # the selected relation is a filtered copy with its own index
        assert plans[0].catalog.hash_index("R3", "C") \
            is not plans[1].catalog.hash_index("R3", "C")

    def test_self_join_builds_one_index_per_attribute(self, index_builds):
        catalog = make_small_catalog()
        sql = "select * from R2 a, R2 b, R3 where a.B = b.B and b.C = R3.C"
        for mode in ("COM", "STD", "SJ+COM"):
            plan = Planner(catalog).plan(sql, mode=mode, driver="auto")
            result = plan.execute(collect_output=True)
            assert result_tuples(result, plan.query) \
                == brute_force_join(plan.catalog, plan.query)
        assert index_builds
        assert set(index_builds.values()) == {1}
        assert plan.catalog.hash_index("a", "B") \
            is plan.catalog.hash_index("b", "B") \
            is catalog.hash_index("R2", "B")

    def test_session_pins_one_index_per_base_attribute(self):
        before = _live_hash_indexes()
        catalog = make_small_catalog()
        session = QuerySession(catalog)
        constants = range(5)
        for value in constants:
            report = session.execute(CHAIN_SQL.format(value), mode="COM")
            assert report.ok
            edges = [(edge.child, edge.child_attr)
                     for edge in report.plan.query.edges]
            assert edges == [("R2", "B"), ("R3", "C")]
        # R2.B once for every plan, R3.C once per filtered R3
        assert _live_hash_indexes() - before == 1 + len(constants)


class TestWritesReachSharedIndexes:
    """A plan cached before an acknowledged in-place write reads the
    post-write rows, and each rename in it and its base table rebuild
    one shared index."""

    @pytest.mark.parametrize("knobs", [{}, {"partitioning": 4}])
    def test_held_plan_after_in_place_write(self, knobs, index_builds):
        catalog = make_small_catalog()
        session = QuerySession(catalog, **knobs)
        sql = CHAIN_SQL.format(1)
        plan = session.plan(sql, mode="COM")
        # R1 drives as a rename; R2 is one too, or a re-clustered copy
        renames = ["R1"] if knobs else ["R1", "R2"]
        assert isinstance(plan.catalog.table("R2"), PartitionedTable) \
            == bool(knobs)
        before = result_tuples(plan.execute(collect_output=True), plan.query)
        stale = {name: catalog.hash_index(name, "B") for name in renames}
        for name, shift in (("R1", 3), ("R2", 7)):
            column = catalog.table(name).column("B")
            column[:] = np.roll(column, shift)
            catalog.invalidate_indexes(name)
        fresh = Catalog()
        for name in catalog.table_names:
            fresh.add_table(name, {column: values.copy() for column, values
                                   in catalog.table(name).columns.items()})
        reference = Planner(fresh).plan(sql, mode="COM")
        expected = result_tuples(reference.execute(collect_output=True),
                                 reference.query)
        index_builds.clear()
        after = result_tuples(plan.execute(collect_output=True), plan.query)
        assert after == expected != before
        assert session.execute(sql, mode="COM").ok  # replans after the write
        for name in renames:
            rebuilt = plan.catalog.hash_index(name, "B")
            assert rebuilt is not stale[name]
            assert rebuilt is catalog.hash_index(name, "B")
            base = id(catalog.table(name).column("B"))
            assert index_builds["Table", base] == 1


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
