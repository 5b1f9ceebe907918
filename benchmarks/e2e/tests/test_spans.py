"""Percentile, quartile and span self-time helpers."""

import statistics

import pytest
from spans import Span, Tracer, percentile, quartiles, self_times_ns


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 0.50) == 50
    assert percentile(samples, 0.95) == 95
    assert percentile(samples, 0.99) == 99
    assert percentile(samples, 1.0) == 100
    assert percentile([7], 0.95) == 7
    assert percentile([3, 1, 2], 0.5) == 2      # sorts its input


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_quartiles_match_the_drivers_rule():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 9.7]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("op", 0, -1, start_ns=0, end_ns=100),
        Span("a", 0, 0, start_ns=10, end_ns=40),
        Span("b", 0, 0, start_ns=30, end_ns=60),     # overlaps a
        Span("c", 0, 0, start_ns=90, end_ns=120),    # clipped to parent
        Span("leaf", 0, 1, start_ns=15, end_ns=20),
    ]
    own = self_times_ns(spans)
    # children cover [10, 60) and [90, 100): 60 of the parent's 100
    assert own[0] == 40
    assert own[1] == 25
    assert own[2] == 30
    assert own[4] == 5


def test_tracer_records_parent_and_shared_op_id():
    tracer = Tracer()
    with tracer.span("op", 7) as (root, _):
        with tracer.span("layer", 7, root) as (_, inner):
            inner.attrs = {"rows": 3}
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (-1, 0)
    assert outer.op_id == inner.op_id == 7
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns
    assert tracer.to_json()[1]["attrs"] == {"rows": 3}
