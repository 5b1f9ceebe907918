"""Runtime cardinality feedback: observe, compare, signal a replan.

The execution pipelines already compute, at every join step, the two
integers an estimator cares about — how many keys were probed and how
many matches came back.  :class:`CardinalityMonitor` turns them into an
observed edge selectivity, compares it against the plan's estimate with
the running-maximum q-error helper
(:func:`repro.estimation.qerror.running_q_error` — one O(1) scalar
update per join, no arrays), and raises :class:`ReplanSignal` the
moment the running q-error crosses the configured threshold.

The signal is control flow, not an error (the same pattern as
:class:`~repro.engine.executor.BudgetExceededError`): the session-level
replan loop (:meth:`repro.service.session.QuerySession.execute` with
``robustness="auto"``) catches it, corrects the plan's statistics from
the monitor's observations via :func:`corrected_stats`, re-plans and
re-executes — bounded retries, with the final attempt running
unmonitored so repeated trips fall back to finishing a plan instead of
looping forever.
"""

from __future__ import annotations

from ..core.stats import edge_with_selectivity
from ..estimation.qerror import running_q_error

__all__ = ["CardinalityMonitor", "ReplanSignal", "corrected_stats"]


class ReplanSignal(Exception):
    """Observed cardinalities left the trusted region — abort and replan.

    Carries everything the replan loop needs: the join that tripped the
    threshold, the running q-error at that point, and every
    ``relation -> (probes, matches)`` observation made so far (the
    corrected statistics are built from these).
    """

    def __init__(self, relation, position, q_error, observed):
        super().__init__(
            f"running cardinality q-error {q_error:.3g} at join "
            f"{position} ({relation!r}) crossed the replan threshold"
        )
        self.relation = relation
        self.position = position
        self.q_error = q_error
        self.observed = dict(observed)


class CardinalityMonitor:
    """O(1)-per-join observed-vs-estimated selectivity tracker.

    ``expected`` maps each relation in the join order to its estimated
    edge selectivity ``m * fo``; :meth:`observe` is called once per join
    step with the probe/match counters the pipelines already hold, so
    monitoring adds two integer reads, one division and one comparison
    per join — nothing that can bend the warm-path throughput guard.
    """

    __slots__ = ("expected", "threshold", "observed", "_running",
                 "_position")

    def __init__(self, expected_selectivities, threshold):
        if threshold < 1.0:
            raise ValueError(
                f"replan threshold is a q-error (>= 1.0), got {threshold}"
            )
        self.expected = dict(expected_selectivities)
        self.threshold = float(threshold)
        #: relation -> (probes, matches), every join observed so far
        self.observed = {}
        self._running = 1.0  # an empty prefix is exact by definition
        self._position = 0

    @property
    def max_q_error(self):
        """Largest per-join q-error observed so far (1.0 = all exact)."""
        return self._running

    def observe(self, relation, probes, matches):
        """Record one join step; raises :class:`ReplanSignal` on a trip.

        A join probed with zero keys teaches nothing (the prefix frame
        already died) and is skipped, as is a relation the monitor has
        no estimate for.  So is a join that matched nothing: an empty
        intermediate already decides an inner join, and no replanned
        order can finish it sooner.
        """
        self._position += 1
        expected = self.expected.get(relation)
        if expected is None or probes <= 0 or matches <= 0:
            return
        self.observed[relation] = (int(probes), int(matches))
        self._running = running_q_error(
            self._running, expected, matches / probes
        )
        if self._running > self.threshold:
            raise ReplanSignal(
                relation, self._position, self._running, self.observed
            )


def corrected_stats(stats, observed):
    """``QueryStats`` with every observed edge snapped to its measurement.

    ``observed`` is :attr:`CardinalityMonitor.observed` (or
    :attr:`ReplanSignal.observed`); each entry replaces the relation's
    estimated selectivity with ``matches / probes`` via
    :func:`repro.core.stats.edge_with_selectivity`.  Unobserved edges
    keep their estimates — the replanned suffix still needs them.
    """
    current = stats
    for relation, (probes, matches) in observed.items():
        if probes <= 0 or relation not in current.edge_stats:
            continue
        current = current.with_edge(
            relation,
            edge_with_selectivity(current.stats(relation),
                                  matches / probes),
        )
    return current
