"""Tests for the naive estimator (Section 3.2 formulas)."""

import pytest

from repro.estimation import naive_estimate_from_tables
from repro.estimation.naive import naive_estimate, predicate_selectivity
from repro.storage.table import Table


def test_basic_formula():
    # V(A,R)=100, V(A,S)=50, |S|=200:
    # m = 50/100, fo = 200/50.
    est = naive_estimate(100, 50, 200)
    assert est.m == pytest.approx(0.5)
    assert est.fo == pytest.approx(4.0)
    assert est.selectivity == pytest.approx(200 / 100)


def test_build_side_has_more_distincts():
    # V(A,S) > V(A,R): every probe value should match, m = 1.
    est = naive_estimate(50, 100, 300)
    assert est.m == pytest.approx(1.0)
    assert est.fo == pytest.approx(3.0)


def test_predicate_scales_fanout():
    est = naive_estimate(100, 50, 200, build_predicate_selectivity=0.5)
    assert est.m == pytest.approx(0.5)
    assert est.fo == pytest.approx(2.0)


def test_scarce_predicate_switches_regime():
    """s_p |S| < V(A,S): fanout pinned to 1, m rescaled (Section 3.2)."""
    est = naive_estimate(100, 50, 200, build_predicate_selectivity=0.1)
    # s_p * |S| = 20 < 50.
    assert est.fo == pytest.approx(1.0)
    assert est.m == pytest.approx(20 / 100)


def test_degenerate_inputs():
    assert naive_estimate(0, 50, 200).m == 0.0
    assert naive_estimate(100, 0, 200).m == 0.0
    assert naive_estimate(100, 50, 0).m == 0.0


def test_predicate_selectivity_helper():
    table = Table("t", {"a": [1, 1, 2, 3], "b": [0, 1, 0, 0]})
    assert predicate_selectivity(table, {}) == 1.0
    assert predicate_selectivity(table, {"a": 1}) == pytest.approx(0.5)
    assert predicate_selectivity(table, {"a": 1, "b": 1}) == pytest.approx(0.25)
    assert predicate_selectivity(table, {"a": 9}) == 0.0


def test_from_tables_uses_distinct_counts_only():
    probe = Table("r", {"k": [1, 2, 3, 4]})
    build = Table("s", {"k": [1, 1, 2, 2, 9, 9], "p": [0, 1, 0, 1, 0, 1]})
    est = naive_estimate_from_tables(probe, build, "k", "k")
    # V(k,R)=4, V(k,S)=3, |S|=6: m=3/4, fo=2 — regardless of which keys
    # actually overlap (that is exactly the naive estimator's blindness).
    assert est.m == pytest.approx(0.75)
    assert est.fo == pytest.approx(2.0)


def test_from_tables_with_build_predicate():
    probe = Table("r", {"k": [1, 2]})
    build = Table("s", {"k": [1, 1, 2, 2], "p": [0, 1, 0, 1]})
    est = naive_estimate_from_tables(
        probe, build, "k", "k", build_predicate={"p": 0}
    )
    # s_p = 0.5; s_p |S| = 2 = V(k,S) -> fanout scaled, floor at 1.
    assert est.fo == pytest.approx(1.0)
