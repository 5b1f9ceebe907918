"""Guaranteed cardinality upper bounds for pessimistic planning.

The cost model's estimates (:mod:`repro.core.stats`) are *averages* —
a single correlated or skewed join can make the true cardinality blow
past them by orders of magnitude, and the optimizer happily builds a
plan around the error.  This module derives the UES-style answer
(PostBOUND / Hertzschuch et al.): a **guaranteed** per-prefix tuple
bound from per-attribute *max-frequency* statistics.

The bound
---------

For a rooted join tree, let ``mf(R)`` be the largest number of rows of
relation ``R`` sharing one value of its join attribute
(:attr:`repro.storage.hashindex.HashIndex.max_group_size`).  Each tuple of the
running prefix frame probes ``R`` with a single key, so it can match at
most ``mf(R)`` rows — no matter how skewed or correlated the data is::

    |frame after joining R|  <=  |frame before|  *  mf(R)

Chaining from the driver gives, for a join order ``o_1 .. o_k``::

    bound(prefix k)  =  N_driver * mf(o_1) * ... * mf(o_k)

This holds for *every* execution mode: STD materializes exactly the
frame; COM's factorized nodes, bitvector pruning and semi-join
reduction only ever shrink it.

The pessimistic objective
-------------------------

Crucially the bound is *set-determined* — it depends only on which
relations joined, not their order — and since ``mf >= 1`` for any
non-empty relation the per-prefix bounds are nondecreasing, so the
**maximum** prefix bound equals the order-independent full product and
cannot discriminate join orders.  What does discriminate is the
worst-case *work*: the sum over join steps of the probes each step may
have to issue, i.e. the STD probe objective evaluated under "bound
statistics" (``m = 1``, ``fo = mf``).  Those deltas are exactly the
set-determined increments the exhaustive / IDP / beam dynamic programs
of :mod:`repro.core.optimizer` minimize, so handing them
:meth:`repro.core.stats.StatsReader.bound_stats` output with
``ExecutionMode.STD`` makes the existing machinery find the
**bound-optimal** (minimal worst-case cost) join order with no new
search code.

The bound statistics themselves are assembled in
:mod:`repro.core.stats` — one cached ``max_group_size`` read per tree
edge, a column entry of the same store the ``(m, fo)`` measurements
live in.
"""

from __future__ import annotations

__all__ = [
    "REGRET_FACTOR",
    "ROBUSTNESS_CHOICES",
    "prefix_cardinality_bounds",
    "resolve_robustness",
]

#: Valid values of the ``robustness`` Planner / QuerySession knob:
#: ``"off"`` trusts estimates unconditionally (the historical
#: behavior), ``"bounded"`` adds pessimistic bound annotations and the
#: bounded-regret order gate.
ROBUSTNESS_CHOICES = ("off", "bounded")

#: Worst-case regret cap of the bounded-regret gate: under
#: ``robustness="bounded"`` the served plan's guaranteed cardinality
#: bound cost never exceeds this multiple of the best achievable one.
REGRET_FACTOR = 4.0


def resolve_robustness(robustness):
    """Validate a ``robustness`` knob value (returns it unchanged)."""
    if robustness not in ROBUSTNESS_CHOICES:
        raise ValueError(
            f"robustness must be one of {ROBUSTNESS_CHOICES}, "
            f"got {robustness!r}"
        )
    return robustness


def prefix_cardinality_bounds(bound_stats, order):
    """Guaranteed tuple-count upper bound after each join of ``order``.

    ``bounds[k]`` bounds the intermediate-result cardinality once the
    first ``k + 1`` joins have run, for every execution mode (COM
    frames and semi-join-reduced pipelines are never larger than the
    STD frame the bound tracks).
    """
    bounds = []
    size = bound_stats.driver_size
    for relation in order:
        size *= bound_stats.selectivity(relation)
        bounds.append(size)
    return tuple(bounds)
