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
  semi-join full-reduction variants (Section 3.6).

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
costing for arbitrary orders.  The searches run on integer masks over
the memo's relation bits: a DP or beam state *is* its joined mask, a
candidate is an unjoined relation whose parent bit is set, and the
delta (:func:`_delta_cost`) passes the mask straight to the memo's
survival / Eq. (1) tables; names appear only in the returned order.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..modes import ExecutionMode
from .costmodel import (
    CostMemo,
    CostWeights,
    _eq1_probes,
    _memo_for,
    _survival,
    plan_cost,
)
from .costmodel_sj import reduction_ratios, sj_phase2_fanouts, sj_plan_cost

if TYPE_CHECKING:
    from .query import JoinQuery
    from .stats import QueryStats

__all__ = [
    "OptimizedPlan",
    "PlanningBudgetExceeded",
    "exhaustive_optimal",
    "idp_order",
    "beam_order",
    "choose_optimizer",
    "incremental_order_cost",
    "greedy_order",
    "GREEDY_HEURISTICS",
    "optimize_sj",
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

    def __init__(self, algorithm: str) -> None:
        super().__init__(
            f"{algorithm}: planning budget exceeded before the order "
            f"search completed"
        )
        self.algorithm = algorithm


@dataclass
class OptimizedPlan:
    """An optimizer's output: a join order plus its estimated cost."""

    query: JoinQuery
    order: list[str]
    cost: float
    mode: ExecutionMode = ExecutionMode.COM
    #: per-internal-relation semi-join child orders (SJ modes only)
    child_orders: dict[str, list[str]] = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"OptimizedPlan(driver={self.query.root!r}, order={self.order}, "
            f"cost={self.cost:.4g}, mode={self.mode})"
        )


# ----------------------------------------------------------------------
# Incremental (prefix-set determined) cost deltas
# ----------------------------------------------------------------------


def _bvp_frontier(memo: CostMemo,
                  joined: int) -> tuple[int, tuple[tuple[int, float], ...]]:
    """Pseudo bitvector nodes for every checked-but-unjoined relation.

    Under full bitvector push-down a relation's bitvector has been
    applied as soon as its parent is joined, so the pseudo set is the
    precedence frontier of ``joined``; with the driver fixed it depends
    only on the *set* of joined relations, which is why the principle of
    optimality holds (Theorem 3.3).  Returns the frontier's mask and its
    ``(bit, min(m + eps, 1))`` pairs in declared order, cached in the
    memo by ``joined``.
    """
    hit = memo.frontier.get(joined)
    if hit is None:
        m_eff = memo.m_eff
        pairs = tuple(
            (bit, m_eff[name]) for name, bit, parent_bit in memo.non_root
            if not joined & bit and joined & parent_bit
        )
        hit = memo.frontier[joined] = (sum(bit for bit, _ in pairs), pairs)
    return hit


def _prefix_selectivity(memo: CostMemo, joined: int) -> float:
    """``prod_{rel in joined, rel != root} s(rel)`` — set-determined.

    Cached by subset mask (the STD / BVP+STD delta costs evaluate it
    for every candidate of every prefix the search touches).  The
    product is accumulated in the query's declared relation order, so
    equal sets give equal floats.
    """
    product = memo.selprod.get(joined)
    if product is None:
        product = 1.0
        mfo = memo.mfo
        for name, bit, _ in memo.non_root:
            if joined & bit:
                product *= mfo[name]
        memo.selprod[joined] = product
    return product


def _delta_cost(memo: CostMemo, joined: int, relation: str,
                mode: ExecutionMode, weights: CostWeights) -> float:
    """Additional expected cost of joining ``relation`` after the
    relations of the mask ``joined``.

    This is the quantity Algorithm 1 accumulates; for every supported
    mode it depends only on the joined *set*, not its order (the
    principle of optimality, Sections 3.4 and 3.5), which is why every
    table it reads is keyed by mask in ``memo``.
    """
    c = memo.probe_cost[relation]
    if mode is ExecutionMode.STD:
        tuples = memo.driver_size * _prefix_selectivity(memo, joined)
        return tuples * c * weights.hash_probe
    if mode is ExecutionMode.COM:
        probes = _eq1_probes(memo, memo.parent_of[relation], joined, 0)
        return probes * c * weights.hash_probe
    if mode in (ExecutionMode.BVP_STD, ExecutionMode.BVP_COM):
        pseudo, pairs = _bvp_frontier(memo, joined)
        own = memo.bit[relation]
        if mode is ExecutionMode.BVP_COM:
            hash_probes = _eq1_probes(memo, memo.parent_of[relation], joined,
                                      pseudo)
        else:
            hash_probes = memo.driver_size * _prefix_selectivity(memo, joined)
            for _, m_eff in pairs:
                hash_probes *= m_eff
        # Bitvector checks triggered by this join: the children of
        # ``relation`` become checkable.  Each check touches the alive
        # entries of ``relation`` (COM) or the expanded stream (STD).
        # The pseudo frontier *after* the join — minus the new checks
        # themselves, which hang off ``relation`` — is exactly the
        # current frontier without ``relation``'s own bit.
        bv_probes = 0.0
        new_checks = memo.check_order[relation]
        if new_checks:
            joined_after = joined | own
            if mode is ExecutionMode.BVP_COM:
                # Alive entries of ``relation`` just after its join,
                # before its children's bitvectors are applied.
                alive = _eq1_probes(memo, relation, joined_after,
                                    pseudo & ~own)
            else:
                alive = memo.driver_size * _prefix_selectivity(
                    memo, joined_after
                )
                for bit, m_eff in pairs:
                    if bit != own:
                        alive *= m_eff
            m_eff_of = memo.m_eff
            for child in new_checks:
                bv_probes += alive
                alive *= m_eff_of[child]
        return (
            hash_probes * c * weights.hash_probe
            + bv_probes * weights.bitvector_probe
        )
    raise ValueError(f"unsupported mode for incremental costing: {mode}")


# ----------------------------------------------------------------------
# Algorithm 1: exhaustive dynamic program over connected prefixes
# ----------------------------------------------------------------------


def exhaustive_optimal(query: JoinQuery, stats: QueryStats,
                       mode: ExecutionMode | str = ExecutionMode.COM,
                       eps: float = 0.01,
                       weights: CostWeights = CostWeights(),
                       memo: CostMemo | None = None,
                       upper_bound: float | None = None,
                       deadline: float | None = None) -> OptimizedPlan | None:
    """Algorithm 1: optimal join order for a fixed driver.

    Dynamic programming over connected subsets of the join tree that
    contain the root; ``best[S]`` is the cheapest cost of any valid
    order whose prefix is exactly ``S``.  The cost function obeys the
    principle of optimality (every prefix of an optimal order is
    optimal for its set), so expanding frontiers suffices.

    The survival-probability and Eq. (1) evaluations underlying every
    delta cost are tabulated over relation subsets in a
    :class:`~repro.core.costmodel.CostMemo`, so overlapping prefixes
    share work instead of re-costing from scratch.  ``memo`` passes one
    built for this (query, stats, eps) to reuse its tables across
    optimizer invocations; ``None`` builds a fresh one.

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
    memo = _memo_for(query, stats, memo, eps)
    # One shared implementation of the Algorithm 1 recurrence: the
    # exhaustive DP is the block DP with everything in a single block.
    found = _exact_block_order(
        memo, [], query.non_root_relations, mode, weights,
        upper_bound=upper_bound, deadline=deadline, algorithm="exhaustive",
    )
    if found is None:
        return None
    total_cost, order = found
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


def choose_optimizer(num_relations: int,
                     exhaustive_max: int = AUTO_EXHAUSTIVE_MAX_RELATIONS,
                     idp_max: int = AUTO_IDP_MAX_RELATIONS) -> str:
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


def incremental_order_cost(query: JoinQuery, stats: QueryStats,
                           order: Sequence[str],
                           mode: ExecutionMode | str = ExecutionMode.COM,
                           eps: float = 0.01,
                           weights: CostWeights = CostWeights(),
                           memo: CostMemo | None = None) -> float:
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
    memo = _memo_for(query, stats, memo, eps)
    joined = memo.bit[query.root]
    total = 0.0
    for relation in order:
        total += _delta_cost(memo, joined, relation, mode, weights)
        joined |= memo.bit[relation]
    return total


def _greedy_block(memo: CostMemo, order: Sequence[str], block_size: int,
                  mode: ExecutionMode, weights: CostWeights,
                  upper_bound: float | None = None) -> list[str] | None:
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
    bit = memo.bit
    joined = bit[memo.root]
    for relation in order:
        joined |= bit[relation]
    block: list[str] = []
    while len(block) < block_size:
        best_key: tuple[float, str] | None = None
        for relation, relation_bit, parent_bit in memo.non_root:
            if joined & relation_bit or not joined & parent_bit:
                continue
            key = (_delta_cost(memo, joined, relation, mode, weights),
                   relation)
            if best_key is None or key < best_key:
                best_key = key
        if best_key is None:
            break
        if not block and upper_bound is not None and best_key[0] >= upper_bound:
            return None
        block.append(best_key[1])
        joined |= bit[best_key[1]]
    return block


def _exact_block_order(memo: CostMemo, committed_order: Sequence[str],
                       block: Sequence[str], mode: ExecutionMode,
                       weights: CostWeights,
                       upper_bound: float | None = None,
                       deadline: float | None = None,
                       algorithm: str = "exhaustive",
                       ) -> tuple[float, list[str]] | None:
    """Optimal order of ``block`` appended after ``committed_order``.

    The one implementation of the Algorithm 1 connected-prefix DP,
    restricted to block members: :func:`exhaustive_optimal` calls it
    with everything in a single block, :func:`idp_order` with bounded
    blocks — which is why ``idp_order(block_size >= n)`` is
    bit-identical to the exhaustive DP by construction.  Returns
    ``(cost_delta, block_order)`` relative to the committed prefix.

    A DP state is the mask of its joined set, mapped to ``(cost, last
    relation, predecessor mask)``; the order is rebuilt from those back
    pointers once, at the end.  States expand in insertion order and
    candidates in declared order, and a strictly cheaper cost replaces
    a state, so among exactly tied orders the first found is kept.

    ``upper_bound`` enables branch-and-bound pruning: delta costs are
    non-negative, so a prefix whose accumulated cost already reaches
    the bound can never complete into an order cheaper than it — such
    states are dropped.  When *every* completion is pruned the return
    is ``None``: the caller's incumbent plan is at least as
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
    bit = memo.bit
    base = bit[memo.root]
    for relation in committed_order:
        base |= bit[relation]
    block_mask = 0
    for relation in block:
        block_mask |= bit[relation]
    candidates = [entry for entry in memo.non_root if entry[1] & block_mask]
    best: dict[int, tuple[float, str, int]] = {base: (0.0, "", 0)}
    frontier = [base]
    while frontier:
        next_level: dict[int, tuple[float, str, int]] = {}
        for prefix in frontier:
            if deadline is not None and time.perf_counter() > deadline:
                raise PlanningBudgetExceeded(algorithm)
            prefix_cost = best[prefix][0]
            for relation, relation_bit, parent_bit in candidates:
                if prefix & relation_bit or not prefix & parent_bit:
                    continue
                new_cost = prefix_cost + _delta_cost(
                    memo, prefix, relation, mode, weights
                )
                if upper_bound is not None and new_cost >= upper_bound:
                    continue  # cannot beat the incumbent: deltas are >= 0
                state = prefix | relation_bit
                incumbent = next_level.get(state)
                if incumbent is None or new_cost < incumbent[0]:
                    next_level[state] = (new_cost, relation, prefix)
        best.update(next_level)
        frontier = list(next_level)
    target = base | block_mask
    if target not in best:
        return None  # pruned out: nothing under the bound
    order: list[str] = []
    state = target
    while state != base:
        _, relation, state = best[state]
        order.append(relation)
    order.reverse()
    return best[target][0], order


def idp_order(query: JoinQuery, stats: QueryStats,
              mode: ExecutionMode | str = ExecutionMode.COM,
              eps: float = 0.01, weights: CostWeights = CostWeights(),
              block_size: int = 8, memo: CostMemo | None = None,
              upper_bound: float | None = None,
              deadline: float | None = None) -> OptimizedPlan | None:
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

    ``memo``, ``upper_bound`` and ``deadline`` behave as in
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
    memo = _memo_for(query, stats, memo, eps)
    total = len(memo.non_root)
    order: list[str] = []
    cost = 0.0
    while len(order) < total:
        remaining_bound = (
            None if upper_bound is None else upper_bound - cost
        )
        block = _greedy_block(memo, order, block_size, mode, weights,
                              upper_bound=remaining_bound)
        if block is None:
            return None  # the cheapest next join alone reaches the bound
        found = _exact_block_order(
            memo, order, block, mode, weights,
            upper_bound=remaining_bound, deadline=deadline, algorithm="idp",
        )
        if found is None:
            return None  # every completion already costs >= upper_bound
        block_cost, block_order = found
        cost += block_cost
        order.extend(block_order)
    return OptimizedPlan(query=query, order=order, cost=cost, mode=mode)


def beam_order(query: JoinQuery, stats: QueryStats,
               mode: ExecutionMode | str = ExecutionMode.COM,
               eps: float = 0.01, weights: CostWeights = CostWeights(),
               beam_width: int = 8, memo: CostMemo | None = None,
               upper_bound: float | None = None) -> OptimizedPlan | None:
    """Beam search over connected prefixes, for very large queries.

    Keeps the ``beam_width`` cheapest prefixes per length (deduplicated
    by joined *set* — its mask — exactly like the DP's state space, so
    the beam never wastes slots on permutations of one set).  Runtime is
    ``O(n * beam_width * frontier)`` delta evaluations — linear in the
    relation count for fixed width.  ``beam_width=1`` degenerates to a
    greedy minimum-delta-cost order; wider beams trade time for
    quality.  Deterministic: ties break on (cost, order).  ``memo`` as
    in :func:`exhaustive_optimal`.

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
    memo = _memo_for(query, stats, memo, eps)
    #: (cost, order, joined mask) per surviving prefix
    beam: list[tuple[float, list[str], int]] = [
        (0.0, [], memo.bit[query.root])
    ]
    for _ in range(len(memo.non_root)):
        expansions: dict[int, tuple[float, list[str], int]] = {}
        for prefix_cost, prefix_order, joined in beam:
            for relation, relation_bit, parent_bit in memo.non_root:
                if joined & relation_bit or not joined & parent_bit:
                    continue
                new_cost = prefix_cost + _delta_cost(
                    memo, joined, relation, mode, weights
                )
                if upper_bound is not None and new_cost >= upper_bound:
                    continue
                state = joined | relation_bit
                incumbent = expansions.get(state)
                if incumbent is None or new_cost < incumbent[0]:
                    expansions[state] = (new_cost, prefix_order + [relation],
                                         state)
        beam = sorted(expansions.values(),
                      key=lambda entry: (entry[0], entry[1]))[:beam_width]
        if not beam:
            return None  # everything under consideration reached the bound
    cost, order, _ = beam[0]
    return OptimizedPlan(query=query, order=order, cost=cost, mode=mode)


# ----------------------------------------------------------------------
# Greedy heuristics (Section 3.4)
# ----------------------------------------------------------------------


def _rank_key(memo: CostMemo, joined: int, relation: str) -> float:
    """Classical rank ordering: ascending ``(s - 1) / c``."""
    return (memo.mfo[relation] - 1.0) / memo.probe_cost[relation]


def _result_size_key(memo: CostMemo, joined: int, relation: str) -> float:
    """Minimize the intermediate result appended by the next join.

    Under the factorized model the result of joining ``relation`` adds
    ``probes * s`` entries (Eq. (1) probes, each fanning out ``s``).
    """
    probes = _eq1_probes(memo, memo.parent_of[relation], joined, 0)
    return probes * memo.mfo[relation]


def _survival_key(memo: CostMemo, joined: int, relation: str) -> float:
    """Minimize the total survival probability of the extended prefix."""
    return _survival(memo, memo.root, joined | memo.bit[relation], 0)


#: heuristic name -> key over ``(memo, joined mask, candidate)``
GREEDY_HEURISTICS: dict[str, Callable[[CostMemo, int, str], float]] = {
    "rank": _rank_key,
    "result_size": _result_size_key,
    "survival": _survival_key,
}


def greedy_order(query: JoinQuery, stats: QueryStats,
                 heuristic: str = "survival",
                 mode: ExecutionMode | str = ExecutionMode.COM,
                 eps: float = 0.01, weights: CostWeights = CostWeights(),
                 flat_output: bool = False) -> OptimizedPlan:
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
    memo = CostMemo(query, stats, eps)
    order: list[str] = []
    joined = memo.bit[query.root]
    while len(order) < len(memo.non_root):
        candidates = query.eligible_next(order)
        scored = [
            (key_fn(memo, joined, relation), relation)
            for relation in candidates
        ]
        scored.sort(key=lambda pair: (pair[0], pair[1]))
        chosen = scored[0][1]
        order.append(chosen)
        joined |= memo.bit[chosen]
    cost = plan_cost(query, stats, order, mode, eps=eps,
                     flat_output=flat_output, memo=memo).total(weights)
    return OptimizedPlan(query=query, order=order, cost=cost,
                         mode=ExecutionMode(mode))


# ----------------------------------------------------------------------
# Semi-join variants: polynomial-time optimal (Section 3.6)
# ----------------------------------------------------------------------


def optimize_sj(query: JoinQuery, stats: QueryStats, factorized: bool,
                weights: CostWeights = CostWeights(),
                flat_output: bool = False,
                memo: CostMemo | None = None) -> OptimizedPlan:
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
    sort_key: Callable[[str], float]
    if factorized:
        path_product = {query.root: 1.0}
        for relation in query.preorder():
            if relation != query.root:
                parent = query.parent(relation)
                path_product[relation] = path_product[parent] * fanouts[relation]
        sort_key = path_product.__getitem__
    else:
        sort_key = fanouts.__getitem__
    order: list[str] = []
    while len(order) < len(query.non_root_relations):
        candidates = query.eligible_next(order)
        order.append(min(candidates, key=lambda rel: (sort_key(rel), rel)))
    mode = ExecutionMode.SJ_COM if factorized else ExecutionMode.SJ_STD
    cost = sj_plan_cost(query, stats, order, factorized, flat_output,
                        reduction=reduction).total(weights)
    return OptimizedPlan(query=query, order=order, cost=cost, mode=mode,
                         child_orders=child_orders)
