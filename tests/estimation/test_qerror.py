"""Tests for the q-error metric."""

from repro.estimation import q_error
from repro.estimation.qerror import running_q_error


def test_perfect_estimate():
    assert q_error(5.0, 5.0) == 1.0


def test_symmetric():
    assert q_error(2.0, 8.0) == q_error(8.0, 2.0) == 4.0


def test_floor_guards_zero():
    assert q_error(0.0, 0.0) == 1.0
    assert q_error(0.0, 1.0, floor=0.1) == 10.0


def test_running_q_error_is_running_max():
    running = 1.0
    observations = [(1.0, 1.0), (2.0, 8.0), (5.0, 5.0), (1.0, 2.0)]
    for estimate, truth in observations:
        running = running_q_error(running, estimate, truth)
    assert running == 4.0  # the (2, 8) pair dominates


def test_running_q_error_never_decreases():
    assert running_q_error(10.0, 5.0, 5.0) == 10.0
    assert running_q_error(1.0, 0.0, 1.0, floor=0.1) == 10.0
