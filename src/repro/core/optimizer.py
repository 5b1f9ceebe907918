"""Join-order optimization algorithms (Sections 3.4-3.6).

The COM cost function violates the ASI property (Theorem 3.1), so the
classical rank-ordering algorithm is no longer optimal.  This module
implements:

* :func:`exhaustive_optimal` — Algorithm 1, a dynamic program over
  connected prefixes of the join tree (optimal; ``O(n 2^n)`` worst case
  but much faster on non-star trees);
* three greedy heuristics (:func:`greedy_order`): ``rank`` (classical
  rank ordering by selectivity), ``result_size`` (minimize the
  intermediate result appended by the next join) and ``survival``
  (minimize the survival probability of the prefix) — Section 3.4;
* :func:`optimize_sj` — the polynomial-time optimal algorithm for the
  semi-join full-reduction variants (Section 3.6);
* :func:`best_driver` — re-run any optimizer for every choice of the
  driver relation and keep the cheapest (Sections 2.1 and 3.5).

Beyond the paper, the **optimizer-scaling subsystem** extends Algorithm
1's reach past its ``O(n 2^n)`` wall (~15 relations on star-shaped
queries):

* :func:`idp_order` — an IDP-style blockwise dynamic program: pick a
  block of ``block_size`` frontier relations greedily, solve the block
  *exactly* with the Algorithm 1 recurrence, commit its order, repeat.
  With ``block_size >= n`` it degenerates to the exhaustive DP and is
  bit-identical to it;
* :func:`beam_order` — beam search over connected prefixes for very
  large queries (linear in the number of relations for fixed width);
* :func:`choose_optimizer` — the ``"auto"`` policy mapping a relation
  count to ``exhaustive`` / ``idp`` / ``beam``.

All three accumulate the same set-determined delta costs (and share one
:class:`~repro.core.costmodel.CostMemo`), so their ``cost`` fields are
directly comparable — :func:`incremental_order_cost` exposes that
costing for arbitrary orders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..modes import ExecutionMode
from .costmodel import (
    CostMemo,
    CostWeights,
    _eq1_probes,
    _survival,
    plan_cost,
)
from .costmodel_sj import reduction_ratios, sj_phase2_fanouts, sj_plan_cost

__all__ = [
    "OptimizedPlan",
    "PlanningBudgetExceeded",
    "exhaustive_optimal",
    "idp_order",
    "beam_order",
    "choose_optimizer",
    "incremental_order_cost",
    "worst_case_cost",
    "greedy_order",
    "GREEDY_HEURISTICS",
    "optimize_sj",
    "best_driver",
    "AUTO_EXHAUSTIVE_MAX_RELATIONS",
    "AUTO_IDP_MAX_RELATIONS",
]


class PlanningBudgetExceeded(RuntimeError):
    """An order search overran its planning-time deadline.

    Raised by :func:`exhaustive_optimal` and :func:`idp_order` when a
    ``deadline`` (a ``time.perf_counter()`` timestamp) passes mid-search.
    The planner catches it and falls down the optimizer ladder
    (exhaustive -> IDP -> beam); :func:`beam_order` is the floor of the
    ladder and never checks a deadline.
    """

    def __init__(self, algorithm):
        super().__init__(
            f"{algorithm}: planning budget exceeded before the order "
            f"search completed"
        )
        self.algorithm = algorithm


@dataclass
class OptimizedPlan:
    """An optimizer's output: a join order plus its estimated cost."""

    query: object
    order: list
    cost: float
    mode: ExecutionMode = ExecutionMode.COM
    #: per-internal-relation semi-join child orders (SJ modes only)
    child_orders: dict = field(default_factory=dict)

    def __repr__(self):
        return (
            f"OptimizedPlan(driver={self.query.root!r}, order={self.order}, "
            f"cost={self.cost:.4g}, mode={self.mode})"
        )


# ----------------------------------------------------------------------
# Incremental (prefix-set determined) cost deltas
# ----------------------------------------------------------------------


def _frontier_pseudo(query, stats, joined, eps, memo=None):
    """Pseudo bitvector nodes for every checked-but-unjoined relation.

    Under full bitvector push-down a relation's bitvector has been
    applied as soon as its parent is joined; with the driver fixed the
    set of applied bitvectors depends only on the *set* of joined
    relations, which is why the principle of optimality holds
    (Theorem 3.3).  With ``memo``, the static structure tables and the
    per-relation ``min(m + eps, 1)`` values are read from it instead of
    being re-derived per call (a hot path for beam/IDP on large
    queries).
    """
    if memo is not None:
        non_root, parent_of, m_eff = memo.non_root, memo.parent_of, memo.m_eff
    else:
        non_root, parent_of, m_eff = query.non_root_relations, None, {}
    root = query.root
    pseudo = {}
    pseudo_children = {}
    for relation in non_root:
        if relation in joined:
            continue
        parent = (
            parent_of[relation] if parent_of is not None
            else query.parent(relation)
        )
        if parent == root or parent in joined:
            value = m_eff.get(relation)
            if value is None:
                value = m_eff[relation] = min(stats.m(relation) + eps, 1.0)
            name = f"~bv:{relation}"
            pseudo[name] = (parent, value)
            pseudo_children.setdefault(parent, []).append(name)
    return pseudo, pseudo_children


def _frontier_pseudo_memo(query, stats, joined, eps, memo):
    """Memoized :func:`_frontier_pseudo` (the frontier is set-determined)."""
    if memo is None:
        return _frontier_pseudo(query, stats, joined, eps)
    key = memo.mask_of(joined)
    hit = memo.frontier.get(key)
    if hit is None:
        hit = memo.frontier[key] = _frontier_pseudo(query, stats, joined,
                                                    eps, memo)
    return hit


def _prefix_selectivity(query, stats, joined, memo=None):
    """``prod_{rel in joined, rel != root} s(rel)`` — set-determined.

    Memoized by subset mask when a :class:`CostMemo` is supplied (the
    STD / BVP+STD delta costs evaluate it for every candidate of every
    prefix the search touches).  The product is accumulated in the
    query's canonical relation order — never the set's iteration order,
    which can vary between equal-content sets and would make memoized
    and unmemoized costs differ in the last float ulp.
    """
    if memo is not None:
        key = memo.mask_of(joined)
        hit = memo.selprod.get(key)
        if hit is not None:
            return hit
        non_root = memo.non_root
    else:
        non_root = query.non_root_relations
    product = 1.0
    for rel in non_root:
        if rel in joined:
            product *= stats.selectivity(rel)
    if memo is not None:
        memo.selprod[key] = product
    return product


def _delta_cost(query, stats, joined, relation, mode, eps, weights,
                memo=None):
    """Additional expected cost of joining ``relation`` after ``joined``.

    This is the quantity Algorithm 1 accumulates; for every supported
    mode it depends only on the joined *set*, not its order (the
    principle of optimality, Sections 3.4 and 3.5).  ``memo`` is an
    optional :class:`~repro.core.costmodel.CostMemo` shared across the
    DP so overlapping subsets are costed once.
    """
    parent = query.parent(relation)
    c = stats.probe_cost(relation)
    if mode is ExecutionMode.STD:
        tuples = stats.driver_size * _prefix_selectivity(
            query, stats, joined, memo
        )
        return tuples * c * weights.hash_probe
    if mode is ExecutionMode.COM:
        probes = _eq1_probes(query, stats, joined, parent, memo=memo)
        return probes * c * weights.hash_probe
    if mode in (ExecutionMode.BVP_STD, ExecutionMode.BVP_COM):
        pseudo, pseudo_children = _frontier_pseudo_memo(
            query, stats, joined, eps, memo
        )
        own = f"~bv:{relation}"
        if mode is ExecutionMode.BVP_COM:
            hash_probes = _eq1_probes(
                query, stats, joined, parent, pseudo, pseudo_children, memo
            )
        else:
            hash_probes = stats.driver_size * _prefix_selectivity(
                query, stats, joined, memo
            )
            for name, (_, m_eff) in pseudo.items():
                hash_probes *= m_eff
        # Bitvector checks triggered by this join: the children of
        # ``relation`` become checkable.  Each check touches the alive
        # entries of ``relation`` (COM) or the expanded stream (STD).
        # The pseudo frontier *after* the join — minus the new checks
        # themselves, which hang off ``relation`` — is exactly the
        # current frontier without ``relation``'s own pseudo node, so it
        # is derived in place instead of recomputed from scratch (the
        # dominant cost of large-query beam/IDP searches before).
        bv_probes = 0.0
        new_checks = sorted(
            (child for child in query.children(relation)),
            key=lambda child: stats.m(child),
        )
        if new_checks:
            joined_after = joined | {relation}
            if mode is ExecutionMode.BVP_COM:
                # Alive entries of ``relation`` just after its join,
                # before its children's bitvectors are applied.
                base_pseudo = {
                    name: val
                    for name, val in pseudo.items()
                    if name != own
                }
                base_children = {
                    node: [n for n in names if n != own]
                    for node, names in pseudo_children.items()
                }
                alive = _eq1_probes(
                    query, stats, joined_after, relation, base_pseudo,
                    base_children, memo
                )
            else:
                alive = stats.driver_size * _prefix_selectivity(
                    query, stats, joined_after, memo
                )
                for name, (_, m_eff) in pseudo.items():
                    if name != own:
                        alive *= m_eff
            for child in new_checks:
                bv_probes += alive
                alive *= min(stats.m(child) + eps, 1.0)
        return (
            hash_probes * c * weights.hash_probe
            + bv_probes * weights.bitvector_probe
        )
    raise ValueError(f"unsupported mode for incremental costing: {mode}")


def _memo_from(memoize, query):
    """Resolve a ``memoize`` argument (bool or CostMemo) to a memo."""
    if isinstance(memoize, CostMemo):
        return memoize
    return CostMemo(query) if memoize else None


# ----------------------------------------------------------------------
# Algorithm 1: exhaustive dynamic program over connected prefixes
# ----------------------------------------------------------------------


def exhaustive_optimal(query, stats, mode=ExecutionMode.COM, eps=0.01,
                       weights=CostWeights(), memoize=True,
                       upper_bound=None, deadline=None):
    """Algorithm 1: optimal join order for a fixed driver.

    Dynamic programming over connected subsets of the join tree that
    contain the root; ``best[S]`` is the cheapest cost of any valid
    order whose prefix is exactly ``S``.  The cost function obeys the
    principle of optimality (every prefix of an optimal order is
    optimal for its set), so expanding frontiers suffices.

    With ``memoize`` (the default) the survival-probability and
    Eq. (1) evaluations underlying every delta cost are tabulated over
    relation subsets in a :class:`~repro.core.costmodel.CostMemo`, so
    overlapping prefixes share work instead of re-costing from scratch;
    ``memoize=False`` recomputes everything (the original behaviour)
    and returns bit-identical orders and costs.  Passing an existing
    :class:`CostMemo` (valid for this (query, stats, eps)) reuses its
    tables across optimizer invocations.

    ``upper_bound`` prunes DP states whose accumulated cost already
    reaches it (see :func:`_exact_block_order`); the return is ``None``
    when no order under the bound exists — used by the planner's
    ``driver="auto"`` search to discard candidate rootings against the
    incumbent without finishing their DP.  ``deadline`` aborts with
    :class:`PlanningBudgetExceeded` (the planner then falls back to a
    cheaper algorithm).
    """
    mode = ExecutionMode(mode)
    if mode.uses_semijoin:
        return optimize_sj(query, stats, factorized=mode.factorized,
                           weights=weights)
    memo = _memo_from(memoize, query)
    # One shared implementation of the Algorithm 1 recurrence: the
    # exhaustive DP is the block DP with everything in a single block.
    total_cost, order = _exact_block_order(
        query, stats, [], query.non_root_relations, mode, eps, weights, memo,
        upper_bound=upper_bound, deadline=deadline, algorithm="exhaustive",
    )
    if order is None:
        return None
    return OptimizedPlan(query=query, order=order, cost=total_cost, mode=mode)


# ----------------------------------------------------------------------
# Optimizer-scaling subsystem: IDP blocks, beam search, auto policy
# ----------------------------------------------------------------------

#: relation-count crossovers for :func:`choose_optimizer` ("auto").
#: Exhaustive DP is ``O(n 2^n)`` on stars, so it stops being interactive
#: in the low teens; IDP stays exact-within-blocks up to mid-size
#: graphs; beam search covers everything beyond (linear per width).
AUTO_EXHAUSTIVE_MAX_RELATIONS = 12
AUTO_IDP_MAX_RELATIONS = 40


def choose_optimizer(num_relations,
                     exhaustive_max=AUTO_EXHAUSTIVE_MAX_RELATIONS,
                     idp_max=AUTO_IDP_MAX_RELATIONS):
    """The ``"auto"`` policy: pick an algorithm by relation count.

    Returns ``"exhaustive"``, ``"idp"`` or ``"beam"``.  The default
    crossovers are worst-case (star query) bounds: the exhaustive DP on
    a 12-relation star takes about 31 ms median on a 2-vCPU host and
    more than doubles per added relation; IDP with 8-relation blocks
    plans a 40-relation star in about 26 ms there, beam search beyond.
    """
    if num_relations <= exhaustive_max:
        return "exhaustive"
    if num_relations <= idp_max:
        return "idp"
    return "beam"


def incremental_order_cost(query, stats, order, mode=ExecutionMode.COM,
                           eps=0.01, weights=CostWeights(), memo=None):
    """The optimizer's objective evaluated on an arbitrary valid order.

    Accumulates the same set-determined delta costs that
    :func:`exhaustive_optimal`, :func:`idp_order` and :func:`beam_order`
    minimize, so plans from different algorithms are comparable on a
    single scale (e.g. the IDP / beam over exhaustive cost ratios the
    scaling-optimizer property tests bound).  Semi-join modes are not
    incrementally costable (use :func:`~repro.core.costmodel.plan_cost`).
    """
    mode = ExecutionMode(mode)
    query.validate_order(order)
    joined = {query.root}
    total = 0.0
    for relation in order:
        total += _delta_cost(query, stats, joined, relation, mode, eps,
                             weights, memo)
        joined.add(relation)
    return total


def worst_case_cost(query, bound_stats, order, eps=0.01,
                    weights=CostWeights(), memo=None):
    """Pessimistic (UES-style) objective: worst-case probe work.

    ``bound_stats`` must come from
    :meth:`repro.core.stats.StatsReader.bound_stats` — per-edge
    ``m = 1, fo = max_frequency`` — which makes each STD prefix product
    a *guaranteed* cardinality upper bound, and this sum of per-join
    delta costs the guaranteed worst-case work of running ``order``.
    The deltas are set-determined, so :func:`exhaustive_optimal`,
    :func:`idp_order` and :func:`beam_order` minimize exactly this
    objective when handed bound stats with ``ExecutionMode.STD`` — the
    pessimistic second objective needs no new search code.
    """
    return incremental_order_cost(
        query, bound_stats, order, mode=ExecutionMode.STD, eps=eps,
        weights=weights, memo=memo,
    )


def _greedy_block(query, stats, order, block_size, mode, eps, weights, memo,
                  upper_bound=None):
    """Select the next IDP block: up to ``block_size`` frontier
    relations, chosen one at a time by cheapest immediate delta cost.

    Only the *membership* of the block matters — the exact DP re-derives
    the optimal order within it — so a cheap greedy pick suffices, and
    every delta evaluated here lands in the shared memo for the DP to
    reuse.

    Returns ``None`` when the cheapest *first* pick already costs
    ``upper_bound`` or more: every completion starts with one of the
    currently eligible relations and deltas are non-negative, so the
    exact DP would prune its whole first level — there is no point in
    paying for the rest of the block first.
    """
    block = []
    joined = {query.root, *order}
    extended = list(order)
    while len(block) < block_size:
        candidates = query.eligible_next(extended)
        if not candidates:
            break
        best_key = best_rel = None
        for relation in candidates:
            key = (
                _delta_cost(query, stats, joined, relation, mode, eps,
                            weights, memo),
                relation,
            )
            if best_key is None or key < best_key:
                best_key, best_rel = key, relation
        if not block and upper_bound is not None and best_key[0] >= upper_bound:
            return None
        block.append(best_rel)
        joined.add(best_rel)
        extended.append(best_rel)
    return block


def _exact_block_order(query, stats, committed_order, block, mode, eps,
                       weights, memo, upper_bound=None, deadline=None,
                       algorithm="exhaustive"):
    """Optimal order of ``block`` appended after ``committed_order``.

    The one implementation of the Algorithm 1 connected-prefix DP,
    restricted to block members: :func:`exhaustive_optimal` calls it
    with everything in a single block, :func:`idp_order` with bounded
    blocks — which is why ``idp_order(block_size >= n)`` is
    bit-identical to the exhaustive DP by construction.  Returns
    ``(cost_delta, block_order)`` relative to the committed prefix.

    ``upper_bound`` enables branch-and-bound pruning: delta costs are
    non-negative, so a prefix whose accumulated cost already reaches
    the bound can never complete into an order cheaper than it — such
    states are dropped.  When *every* completion is pruned the return
    is ``(None, None)``: the caller's incumbent plan is at least as
    cheap as anything this search could find.  Pruning never changes
    the returned cost (a sub-bound optimum's own prefixes all cost less
    than it, so its DP path always survives; among *exactly* tied
    orders a different one may be kept) — it only turns guaranteed-
    losing searches into early exits.  The bound is in this objective's
    units, probe costs multiplied in: a caller bounding by a full plan
    cost, which has none, scales it by the largest one.

    ``deadline`` (a ``time.perf_counter()`` timestamp) aborts the
    search with :class:`PlanningBudgetExceeded` once passed; checked
    per expanded prefix, so the overrun is bounded by one frontier
    expansion.
    """
    block_set = frozenset(block)
    base = frozenset([query.root]) | frozenset(committed_order)
    best = {base: (0.0, list(committed_order))}
    frontier_sets = [base]
    target = base | block_set
    while frontier_sets:
        next_level = {}
        for prefix_set in frontier_sets:
            if deadline is not None and time.perf_counter() > deadline:
                raise PlanningBudgetExceeded(algorithm)
            prefix_cost, prefix_order = best[prefix_set]
            joined = set(prefix_set)
            for relation in query.eligible_next(prefix_order):
                if relation not in block_set:
                    continue
                delta = _delta_cost(
                    query, stats, joined, relation, mode, eps, weights, memo
                )
                new_cost = prefix_cost + delta
                if upper_bound is not None and new_cost >= upper_bound:
                    continue  # cannot beat the incumbent: deltas are >= 0
                new_set = prefix_set | {relation}
                incumbent = next_level.get(new_set)
                if incumbent is None or new_cost < incumbent[0]:
                    next_level[new_set] = (new_cost, prefix_order + [relation])
        best.update(next_level)
        frontier_sets = list(next_level)
    if target not in best:
        return None, None  # pruned out: nothing under the bound
    cost, order = best[target]
    return cost, order[len(committed_order):]


def idp_order(query, stats, mode=ExecutionMode.COM, eps=0.01,
              weights=CostWeights(), block_size=8, memoize=True,
              upper_bound=None, deadline=None):
    """IDP-style blockwise dynamic program (exhaustive-DP fallback).

    Repeatedly (1) grows a block of up to ``block_size`` frontier
    relations greedily, (2) orders the block *optimally* with the
    Algorithm 1 recurrence (``O(2^block_size)`` states), and (3) commits
    the block, until every relation is joined.  Cost per block is
    bounded, so the whole run is ``O(n/k * 2^k)`` DP states instead of
    ``O(2^n)`` — this is the classical IDP(k) idea adapted to the
    paper's connected-prefix DP.

    With ``block_size >= len(query.non_root_relations)`` a single block
    covers the whole query and the result is bit-identical to
    :func:`exhaustive_optimal` (same order, same cost float).

    ``upper_bound`` / ``deadline`` behave as in
    :func:`exhaustive_optimal`: a bounded search returns ``None`` when
    no completion can beat the bound (committed cost plus the current
    block's floor already reaches it), a deadline overrun raises
    :class:`PlanningBudgetExceeded`.
    """
    mode = ExecutionMode(mode)
    if mode.uses_semijoin:
        return optimize_sj(query, stats, factorized=mode.factorized,
                           weights=weights)
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    memo = _memo_from(memoize, query)
    total = len(query.non_root_relations)
    order = []
    cost = 0.0
    while len(order) < total:
        remaining_bound = (
            None if upper_bound is None else upper_bound - cost
        )
        block = _greedy_block(query, stats, order, block_size, mode, eps,
                              weights, memo, upper_bound=remaining_bound)
        if block is None:
            return None  # the cheapest next join alone reaches the bound
        block_cost, block_order = _exact_block_order(
            query, stats, order, block, mode, eps, weights, memo,
            upper_bound=remaining_bound, deadline=deadline, algorithm="idp",
        )
        if block_order is None:
            return None  # every completion already costs >= upper_bound
        cost += block_cost
        order.extend(block_order)
    return OptimizedPlan(query=query, order=order, cost=cost, mode=mode)


def beam_order(query, stats, mode=ExecutionMode.COM, eps=0.01,
               weights=CostWeights(), beam_width=8, memoize=True,
               upper_bound=None):
    """Beam search over connected prefixes, for very large queries.

    Keeps the ``beam_width`` cheapest prefixes per length (deduplicated
    by joined *set*, exactly like the DP's state space, so the beam
    never wastes slots on permutations of one set).  Runtime is
    ``O(n * beam_width * frontier)`` delta evaluations — linear in the
    relation count for fixed width.  ``beam_width=1`` degenerates to a
    greedy minimum-delta-cost order; wider beams trade time for
    quality.  Deterministic: ties break on (cost, order).

    With ``upper_bound``, prefixes whose cost already reaches the bound
    are dropped before they can occupy a beam slot (their completions
    can only cost more — deltas are non-negative), and the return is
    ``None`` when the whole beam dies.  Unlike the exact DPs, pruning
    *can* change which plan a bounded beam returns — dropped states
    free slots for cheaper ones — but never for the worse: every
    surviving state costs under the bound.  Beam search is the floor of
    the planner's budget ladder, so it takes no ``deadline``.
    """
    mode = ExecutionMode(mode)
    if mode.uses_semijoin:
        return optimize_sj(query, stats, factorized=mode.factorized,
                           weights=weights)
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    memo = _memo_from(memoize, query)
    total = len(query.non_root_relations)
    beam = [(0.0, [])]
    for _ in range(total):
        expansions = {}
        for prefix_cost, prefix_order in beam:
            joined = {query.root, *prefix_order}
            for relation in query.eligible_next(prefix_order):
                delta = _delta_cost(
                    query, stats, joined, relation, mode, eps, weights, memo
                )
                new_cost = prefix_cost + delta
                if upper_bound is not None and new_cost >= upper_bound:
                    continue
                new_set = frozenset(joined) | {relation}
                incumbent = expansions.get(new_set)
                if incumbent is None or new_cost < incumbent[0]:
                    expansions[new_set] = (new_cost, prefix_order + [relation])
        beam = sorted(expansions.values(),
                      key=lambda state: (state[0], state[1]))[:beam_width]
        if not beam:
            return None  # everything under consideration reached the bound
    cost, order = beam[0]
    return OptimizedPlan(query=query, order=order, cost=cost, mode=mode)


# ----------------------------------------------------------------------
# Greedy heuristics (Section 3.4)
# ----------------------------------------------------------------------


def _rank_key(query, stats, joined, relation):
    """Classical rank ordering: ascending ``(s - 1) / c``."""
    return (stats.selectivity(relation) - 1.0) / stats.probe_cost(relation)


def _result_size_key(query, stats, joined, relation):
    """Minimize the intermediate result appended by the next join.

    Under the factorized model the result of joining ``relation`` adds
    ``probes * s`` entries (Eq. (1) probes, each fanning out ``s``).
    """
    parent = query.parent(relation)
    probes = _eq1_probes(query, stats, joined, parent)
    return probes * stats.selectivity(relation)


def _survival_key(query, stats, joined, relation):
    """Minimize the total survival probability of the extended prefix."""
    members = joined | {relation}
    return _survival(query, stats, query.root, members, {}, {})


GREEDY_HEURISTICS = {
    "rank": _rank_key,
    "result_size": _result_size_key,
    "survival": _survival_key,
}


def greedy_order(query, stats, heuristic="survival", mode=ExecutionMode.COM,
                 eps=0.01, weights=CostWeights(), flat_output=False):
    """Greedy join ordering with one of the paper's three heuristics.

    ``heuristic`` is one of ``"rank"``, ``"result_size"``,
    ``"survival"``.  The returned plan's ``cost`` is evaluated under
    ``mode``'s full cost model (the paper evaluates all heuristics under
    the COM cost model — Section 5.1).
    """
    try:
        key_fn = GREEDY_HEURISTICS[heuristic]
    except KeyError:
        raise ValueError(
            f"unknown heuristic {heuristic!r}; "
            f"choose from {sorted(GREEDY_HEURISTICS)}"
        ) from None
    order = []
    joined = {query.root}
    while len(order) < len(query.non_root_relations):
        candidates = query.eligible_next(order)
        scored = [
            (key_fn(query, stats, joined, relation), relation)
            for relation in candidates
        ]
        scored.sort(key=lambda pair: (pair[0], pair[1]))
        chosen = scored[0][1]
        order.append(chosen)
        joined.add(chosen)
    cost = plan_cost(query, stats, order, mode, eps=eps,
                     flat_output=flat_output).total(weights)
    return OptimizedPlan(query=query, order=order, cost=cost, mode=mode)


# ----------------------------------------------------------------------
# Semi-join variants: polynomial-time optimal (Section 3.6)
# ----------------------------------------------------------------------


def optimize_sj(query, stats, factorized, weights=CostWeights(),
                flat_output=False, memo=None):
    """Optimal plan for SJ+STD / SJ+COM with the driver fixed.

    Decisions (Section 3.6): semi-join children in increasing adjusted
    ``m'``; the phase-2 order is increasing adjusted fanout ``fo'``
    (rank ordering, STD) or increasing root-to-relation fanout product
    (COM, where the cost is order-independent by Theorem 3.5 and the
    sort keeps intermediate factorized results small).

    The phase-1 pass (:func:`reduction_ratios`) runs once and prices the
    plan too; with a :class:`CostMemo` for this (query, stats) it is
    kept there, so the other SJ variant of the same rooting reuses it.
    """
    reduction = memo.reduction if memo is not None else None
    if reduction is None:
        reduction = reduction_ratios(query, stats)
        if memo is not None:
            memo.reduction = reduction
    ratios, m_primes = reduction
    child_orders = {
        node: sorted(query.children(node), key=m_primes.__getitem__)
        for node in query.internal_relations()
    }
    fanouts = sj_phase2_fanouts(query, stats, ratios)
    if factorized:
        path_product = {query.root: 1.0}
        for relation in query.preorder():
            if relation != query.root:
                parent = query.parent(relation)
                path_product[relation] = path_product[parent] * fanouts[relation]
        sort_key = path_product.__getitem__
    else:
        sort_key = fanouts.__getitem__
    order = []
    while len(order) < len(query.non_root_relations):
        candidates = query.eligible_next(order)
        order.append(min(candidates, key=lambda rel: (sort_key(rel), rel)))
    mode = ExecutionMode.SJ_COM if factorized else ExecutionMode.SJ_STD
    cost = sj_plan_cost(query, stats, order, factorized, flat_output,
                        reduction=reduction).total(weights)
    return OptimizedPlan(query=query, order=order, cost=cost, mode=mode,
                         child_orders=child_orders)


# ----------------------------------------------------------------------
# Driver choice
# ----------------------------------------------------------------------


def best_driver(query, stats_for_root, mode=ExecutionMode.COM, eps=0.01,
                weights=CostWeights(), optimizer=exhaustive_optimal):
    """Optimize once per candidate driver and keep the best plan.

    ``stats_for_root`` is a callable mapping a rooted
    :class:`~repro.core.query.JoinQuery` to its :class:`QueryStats`
    (the stats are direction-dependent, so they must be derived per
    rooting — e.g. with :func:`repro.core.stats.stats_from_data`).
    """
    best_plan = None
    for relation in query.relations:
        rooted = query.rerooted(relation)
        stats = stats_for_root(rooted)
        if optimizer is exhaustive_optimal:
            plan = optimizer(rooted, stats, mode=mode, eps=eps, weights=weights)
        else:
            plan = optimizer(rooted, stats)
        if best_plan is None or plan.cost < best_plan.cost:
            best_plan = plan
    return best_plan
