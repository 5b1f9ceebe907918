"""Q-error, the standard cardinality-estimation accuracy metric.

Used by Figure 4 to compare the naive and sampling-based estimators of
match probability and fanout (Moerkotte et al., "Preventing bad plans
by bounding the impact of cardinality estimation errors").
"""

from __future__ import annotations

__all__ = ["q_error"]

#: floor applied to both estimate and truth, avoiding division blow-ups
_FLOOR = 1e-9


def q_error(estimate, truth, floor=_FLOOR):
    """``max(estimate / truth, truth / estimate)`` with floor guards.

    A perfect estimate scores 1.0; the metric is symmetric in over- and
    under-estimation.  Zero (or near-zero) values are floored so that an
    estimator that predicts "no match" for a genuinely empty join is not
    penalized with infinity.
    """
    est = max(float(estimate), floor)
    tru = max(float(truth), floor)
    return max(est / tru, tru / est)

