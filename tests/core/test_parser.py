"""Tests for the SQL-subset parser."""

import pytest

from repro.core import parse_query
from repro.core.parser import Contradiction, ParseError

PAPER_QUERY = """
select * from R1, R2, R3, R4, R5, R6
where R1.B = R2.B and R2.C = R3.C and R2.D = R4.D
  and R1.E = R5.E and R5.F = R6.F
"""


def test_paper_query_parses():
    parsed = parse_query(PAPER_QUERY)
    assert set(parsed.relations) == {"R1", "R2", "R3", "R4", "R5", "R6"}
    assert len(parsed.join_predicates) == 5
    assert parsed.selections == {}
    assert parsed.is_acyclic()
    assert parsed.is_connected()


def test_paper_query_to_join_tree():
    parsed = parse_query(PAPER_QUERY)
    query = parsed.to_join_query(driver="R1")
    assert query.root == "R1"
    assert set(query.children("R1")) == {"R2", "R5"}
    assert set(query.children("R2")) == {"R3", "R4"}
    assert query.children("R5") == ["R6"]
    edge = query.edge_to("R2")
    assert (edge.parent_attr, edge.child_attr) == ("B", "B")


def test_driver_choice_reroots():
    parsed = parse_query(PAPER_QUERY)
    query = parsed.to_join_query(driver="R3")
    assert query.root == "R3"
    assert query.num_relations == 6
    with pytest.raises(KeyError):
        parsed.to_join_query(driver="R9")


def test_selection_predicates():
    parsed = parse_query(
        "SELECT * FROM orders, items "
        "WHERE orders.oid = items.oid AND orders.region = 3 "
        "AND items.kind = 'gift'"
    )
    assert parsed.selections == {
        "orders": {"region": 3},
        "items": {"kind": "gift"},
    }
    assert len(parsed.join_predicates) == 1


def test_aliases():
    parsed = parse_query(
        "select * from trusts t1, trusts as t2 where t1.dst = t2.src"
    )
    assert parsed.relations == {"t1": "trusts", "t2": "trusts"}
    assert parsed.table_name("t1") == "trusts"
    query = parsed.to_join_query()
    assert query.num_relations == 2


def test_case_insensitive_keywords():
    parsed = parse_query("SeLeCt * FrOm A, B WhErE A.x = B.y")
    assert set(parsed.relations) == {"A", "B"}


def test_no_where_clause():
    parsed = parse_query("select * from Solo")
    assert parsed.relations == {"Solo": "Solo"}
    query = parsed.to_join_query()
    assert query.num_relations == 1


def test_cyclic_detected():
    parsed = parse_query(
        "select * from A, B, C where A.x = B.x and B.y = C.y and C.z = A.z"
    )
    assert not parsed.is_acyclic()
    with pytest.raises(ParseError, match="cyclic"):
        parsed.to_join_query()


def test_disconnected_rejected():
    parsed = parse_query("select * from A, B, C where A.x = B.x")
    assert not parsed.is_connected()
    with pytest.raises(ParseError, match="disconnected"):
        parsed.to_join_query()


@pytest.mark.parametrize("bad", [
    "",
    "select x from A",
    "select * from",
    "select * from A where A.x =",
    "select * from A, A where A.x = A.y",
    "select * from A where B.x = A.y",
    "select * from A, B where A.x = A.y",  # self-join predicate
    "select * from A, B where A.x = B.y extra",
    "insert into A values (1)",
])
def test_malformed_queries_rejected(bad):
    with pytest.raises((ParseError, KeyError)):
        parse_query(bad)


def test_negative_and_string_literals():
    parsed = parse_query(
        "select * from A, B where A.x = B.x and A.v = -7 and B.w = 'abc'"
    )
    assert parsed.selections["A"]["v"] == -7
    assert parsed.selections["B"]["w"] == "abc"


def test_duplicate_alias_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_query("select * from A t, B t where t.x = t.y")


# ----------------------------------------------------------------------
# Conjunctive constant selections (ISSUE 2 bugfix): equal literals
# dedupe, distinct literals yield a provably-empty predicate — never
# silent last-literal-wins.
# ----------------------------------------------------------------------


class TestConjunctiveSelections:
    def test_equal_literals_dedupe(self):
        parsed = parse_query(
            "select * from A, B where A.x = B.x and A.v = 1 and A.v = 1"
        )
        assert parsed.selections == {"A": {"v": 1}}
        assert not parsed.is_contradictory

    def test_distinct_literals_are_a_contradiction(self):
        parsed = parse_query(
            "select * from A, B where A.x = B.x and A.v = 1 and A.v = 2"
        )
        assert parsed.selections["A"]["v"] == Contradiction((1, 2))
        assert parsed.is_contradictory

    def test_contradiction_absorbs_further_duplicates(self):
        parsed = parse_query(
            "select * from A, B where A.x = B.x "
            "and A.v = 1 and A.v = 2 and A.v = 2 and A.v = 3"
        )
        assert parsed.selections["A"]["v"] == Contradiction((1, 2, 3))

    def test_type_mismatched_literals_contradict(self):
        # 1 and '1' are different constants, never conflated
        parsed = parse_query(
            "select * from A, B where A.x = B.x and A.v = 1 and A.v = '1'"
        )
        assert parsed.is_contradictory

    def test_same_column_name_on_different_relations_untouched(self):
        parsed = parse_query(
            "select * from A, B where A.x = B.x and A.v = 1 and B.v = 2"
        )
        assert parsed.selections == {"A": {"v": 1}, "B": {"v": 2}}
        assert not parsed.is_contradictory

    def test_contradictory_query_executes_to_empty_result(self):
        from repro import Planner
        from tests.helpers import make_small_catalog

        catalog = make_small_catalog()
        sql = (
            "select * from R1, R2 where R1.B = R2.B "
            "and R2.C = 1 and R2.C = 2"
        )
        plan = Planner(catalog).plan(sql, mode="COM")
        assert len(plan.catalog.table("R2")) == 0  # empty push-down
        result = plan.execute(collect_output=True)
        assert result.output_size == 0

    def test_contradiction_flows_through_the_service_layer(self):
        from repro import QuerySession
        from tests.helpers import make_small_catalog

        session = QuerySession(make_small_catalog())
        sql = (
            "select * from R1, R2 where R1.B = R2.B "
            "and R2.C = 3 and R2.C = 4"
        )
        report = session.execute(sql, collect_output=True)
        assert report.ok
        assert report.result.output_size == 0
        # distinct contradictions key distinct cache entries
        other = "select * from R1, R2 where R1.B = R2.B and R2.C = 3"
        session.plan(other)
        assert session.plan_cache.stats.misses >= 2
