"""Cost model for semi-join full reduction (Section 3.6).

The paper's practical Yannakakis variant has two phases:

* **Phase 1** reduces relations bottom-up: every internal node checks
  each of its tuples against each (already reduced) child and discards
  tuples without a match.  At the end the root is fully reduced, leaves
  are untouched, and other relations are partially reduced.
* **Phase 2** runs a normal left-deep plan from the reduced root.  All
  match probabilities are 1; fanouts are adjusted by each child's
  reduction ratio via Theorem 3.4.

Theorem 3.4 (adjusted stats when the child is reduced by ``ratio``):

.. math::

    m' = m (1 - (1 - ratio)^{fo}), \\qquad
    fo' = fo \\cdot ratio / (1 - (1 - ratio)^{fo})

Theorem 3.5: under COM the phase-2 cost is independent of the join
order (verified by property tests).
"""

from __future__ import annotations

from .costmodel import PlanCost, expected_output_size

__all__ = [
    "adjusted_match_probability",
    "adjusted_fanout",
    "reduction_ratios",
    "sj_phase1_cost",
    "sj_phase2_fanouts",
    "sj_plan_cost",
]


def _hit_probability(ratio, fo):
    """P(at least one of ``fo`` matches survives a reduction by ``ratio``)."""
    return 1.0 - (1.0 - ratio) ** fo


def adjusted_match_probability(m, fo, ratio):
    """Theorem 3.4: ``m'`` when the child is reduced by ``ratio``."""
    return m * _hit_probability(ratio, fo)


def adjusted_fanout(fo, ratio):
    """Theorem 3.4: ``fo'`` when the child is reduced by ``ratio``."""
    if ratio <= 0.0:
        return 0.0
    hit = _hit_probability(ratio, fo)
    if hit <= 0.0:
        # Underflow regime: (1 - ratio)**fo rounded to 1.0 although
        # ratio > 0.  The mathematical limit of fo * ratio / hit as
        # ratio -> 0+ is 1 (a surviving parent keeps one match).
        return 1.0
    # In exact arithmetic fo' always lies in [1, fo]; clamp away float
    # noise near the underflow boundary.
    return min(max(fo * ratio / hit, 1.0), max(fo, 1.0))


def reduction_ratios(query, stats):
    """Phase-1 reduction ratio of every relation, plus adjusted ``m'``.

    Returns ``(ratios, m_primes)`` where ``ratios[rel]`` is the expected
    fraction of ``rel``'s tuples surviving semi-joins with its children
    subtree, and ``m_primes[child]`` is the adjusted match probability
    ``m'_{parent(child) -> child}`` against the reduced child.
    Leaves have ratio 1 (they are never reduced).
    """
    ratios = {}
    m_primes = {}
    for node in query.postorder():
        ratio = 1.0
        for child in query.children(node):
            edge = stats.stats(child)
            m_prime = adjusted_match_probability(edge.m, edge.fo, ratios[child])
            m_primes[child] = m_prime
            ratio *= m_prime
        ratios[node] = ratio
    return ratios, m_primes


def sj_phase1_cost(query, stats, child_orders=None, reduction=None):
    """Semi-join probe counts of the bottom-up reduction pass.

    For each internal node ``p`` its children are probed in sequence;
    after probing child ``c`` only an ``m'_{p->c}`` fraction of ``p``'s
    tuples remain to probe the next child.  ``child_orders`` optionally
    maps an internal relation to the order of its children; the default
    (optimal, Section 3.6) is increasing ``m'``.  ``reduction`` is an
    already computed :func:`reduction_ratios` result for this
    (query, stats).  Returns ``(PlanCost, ratios)``.
    """
    ratios, m_primes = reduction or reduction_ratios(query, stats)
    child_orders = child_orders or {}
    cost = PlanCost()
    for node in query.postorder():
        children = query.children(node)
        if not children:
            continue
        order = child_orders.get(node)
        if order is None:
            order = sorted(children, key=m_primes.__getitem__)
        elif sorted(order) != sorted(children):
            raise ValueError(
                f"child order {order} does not cover children of {node!r}"
            )
        remaining = stats.relation_size(node)
        for child in order:
            cost.semijoin_probes += remaining
            remaining *= m_primes[child]
    return cost, ratios


def sj_phase2_fanouts(query, stats, ratios=None):
    """Adjusted per-edge fanouts for phase 2 (all match probabilities 1)."""
    if ratios is None:
        ratios, _ = reduction_ratios(query, stats)
    fanouts = {}
    for relation in query.non_root_relations:
        edge = stats.stats(relation)
        fanouts[relation] = adjusted_fanout(edge.fo, ratios[relation])
    return fanouts


def sj_plan_cost(query, stats, order, factorized, flat_output=True,
                 child_orders=None, reduction=None):
    """PlanCost for SJ+STD or SJ+COM executing phase 2 in ``order``.

    Phase-1 semi-join probes are charged at the semi-join weight.  In
    phase 2 the driver is fully reduced (size ``N * ratio_root``) and
    every probe matches; STD pays one probe per intermediate tuple with
    the adjusted fanouts, while COM pays one probe per surviving parent
    entry — which makes its phase-2 cost order-independent
    (Theorem 3.5).  ``reduction`` as in :func:`sj_phase1_cost`.
    """
    query.validate_order(order)
    cost, ratios = sj_phase1_cost(query, stats, child_orders, reduction)
    fanouts = sj_phase2_fanouts(query, stats, ratios)
    reduced_driver = stats.driver_size * ratios[query.root]

    if factorized:
        # Eq. (1) with every m = 1: probes into a relation are the
        # product of adjusted fanouts along the root-to-parent path.
        path_fanout = {query.root: 1.0}
        for relation in query.preorder():
            if relation == query.root:
                continue
            parent = query.parent(relation)
            path_fanout[relation] = path_fanout[parent] * fanouts[relation]
        for relation in order:
            parent = query.parent(relation)
            probes = reduced_driver * path_fanout[parent]
            cost.hash_probes += probes
            cost.hash_probes_by_relation[relation] = probes
            cost.tuples_generated += probes * fanouts[relation]
        if flat_output:
            cost.tuples_generated += expected_output_size(query, stats)
    else:
        tuples = reduced_driver
        for relation in order:
            cost.hash_probes += tuples
            cost.hash_probes_by_relation[relation] = tuples
            tuples *= fanouts[relation]
            cost.tuples_generated += tuples
    return cost
