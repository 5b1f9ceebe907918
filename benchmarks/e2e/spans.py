"""Benchmark-side spans and the small statistics every report uses.

Spans are recorded from the benchmark's own files, around the calls
into each layer's public entry point; nothing under ``src/`` is
instrumented.  They stay in memory until the run ends.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    op_id: int                  # spans of one operation share it
    parent: int                 # index of the causing span, -1 for a root
    start_ns: int = 0
    end_ns: int = 0
    #: counts copied from the program at the same boundary
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self):
        return self.end_ns - self.start_ns


class Tracer:
    """An in-memory list of spans; ``span()`` times one layer call."""

    def __init__(self):
        self.spans = []

    @contextmanager
    def span(self, name, op_id, parent=-1):
        index = len(self.spans)
        record = Span(name, op_id, parent)
        self.spans.append(record)
        record.start_ns = time.perf_counter_ns()
        try:
            yield index, record
        finally:
            record.end_ns = time.perf_counter_ns()

    def to_json(self):
        return [asdict(span) for span in self.spans]


def self_times_ns(spans):
    """Per span: its duration minus the interval its children cover.

    Children may overlap each other (concurrent work), so the covered
    part is the length of the union of their intervals, clipped to the
    parent.
    """
    children = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span.start_ns
        for child in sorted(children.get(index, ()),
                            key=lambda i: spans[i].start_ns):
            start = max(spans[child].start_ns, reach)
            end = min(spans[child].end_ns, span.end_ns)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.duration_ns - covered)
    return result


def percentile(samples, fraction):
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def mean(samples):
    samples = list(samples)
    return sum(samples) / len(samples) if samples else 0.0


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them — the driver's own spread rule."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
