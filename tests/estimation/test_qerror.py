"""Tests for the q-error metric."""

from repro.estimation import q_error


def test_perfect_estimate():
    assert q_error(5.0, 5.0) == 1.0


def test_symmetric():
    assert q_error(2.0, 8.0) == q_error(8.0, 2.0) == 4.0


def test_floor_guards_zero():
    assert q_error(0.0, 0.0) == 1.0
    assert q_error(0.0, 1.0, floor=0.1) == 10.0

