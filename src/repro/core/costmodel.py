"""Analytic cost model for left-deep plans (Sections 3.3 and 3.5).

This module implements:

* **survival probabilities** ``m_T`` for connected join subtrees
  (Section 3.3): the probability that a tuple of the subtree's root
  survives all join operators in the subtree, computed by the recursion

  .. math::  m_T = m_{T_r} (1 - (1 - m_{T_1} m_{T_2} \\cdots)^{fo_{T_r}})

* **Equation (1)**: the expected number of probes into the next join
  operator under the factorized execution model (COM), which expands
  fanouts only along the root-to-parent path and multiplies survival
  probabilities for every already-evaluated branch;

* the **standard (STD) cost model**, which pays one probe per fully
  materialized intermediate tuple;

* the **BVP cost models** of Section 3.5 for both STD and COM, counting
  bitvector probes and hash probes separately, with a false-positive
  probability ``eps``;

* a unified :func:`plan_cost` entry point covering all six strategies
  (semi-join variants are delegated to
  :mod:`repro.core.costmodel_sj`).

Survival and Eq. (1) have one implementation each (:func:`_survival`,
:func:`_eq1_probes`), over integer relation masks and the per-(query,
stats, eps) tables of a :class:`CostMemo`; the order searches of
:mod:`repro.core.optimizer` and every set- or order-taking entry point
here read them, so a plan priced after a search hits the tables the
search filled and gets the same float.

All formulas assume the paper's uniformity and independence
assumptions, plus the constant-fanout simplification (every matching
tuple has exactly ``fo`` matches); Section 5.6 / Figure 15 evaluates the
impact of that simplification empirically.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..modes import ExecutionMode

if TYPE_CHECKING:
    from .query import JoinQuery
    from .stats import QueryStats

__all__ = [
    "CostMemo",
    "CostWeights",
    "PlanCost",
    "com_probes_per_join",
    "std_probes_per_join",
    "com_plan_cost",
    "std_plan_cost",
    "bvp_plan_cost",
    "expected_output_size",
    "plan_cost",
    "order_invariant_floor",
    "cost_lower_bound",
]


@dataclass(frozen=True)
class CostWeights:
    """Relative costs of the engine's primitive operations.

    The defaults follow Section 5.4: a bitvector or semi-join probe
    costs half a hash probe, and generating one tuple costs 1/14 of a
    hash probe (micro-benchmarked constants in the paper).
    """

    hash_probe: float = 1.0
    bitvector_probe: float = 0.5
    semijoin_probe: float = 0.5
    tuple_generation: float = 1.0 / 14.0


@dataclass
class PlanCost:
    """Expected operation counts for a plan, convertible to a scalar cost."""

    hash_probes: float = 0.0
    bitvector_probes: float = 0.0
    semijoin_probes: float = 0.0
    tuples_generated: float = 0.0
    #: expected probes into each relation's hash table, by relation name
    hash_probes_by_relation: dict[str, float] = field(default_factory=dict)

    def total(self, weights: CostWeights = CostWeights()) -> float:
        """Scalar cost under the given operation weights."""
        return (
            weights.hash_probe * self.hash_probes
            + weights.bitvector_probe * self.bitvector_probes
            + weights.semijoin_probe * self.semijoin_probes
            + weights.tuple_generation * self.tuples_generated
        )

    def add(self, other: PlanCost) -> PlanCost:
        """Accumulate another PlanCost into this one (in place)."""
        self.hash_probes += other.hash_probes
        self.bitvector_probes += other.bitvector_probes
        self.semijoin_probes += other.semijoin_probes
        self.tuples_generated += other.tuples_generated
        for rel, probes in other.hash_probes_by_relation.items():
            self.hash_probes_by_relation[rel] = (
                self.hash_probes_by_relation.get(rel, 0.0) + probes
            )
        return self


# ----------------------------------------------------------------------
# Survival probabilities and Equation (1)
# ----------------------------------------------------------------------

#: ``(name, bit)`` pairs, in a relation's declared child order
Children = tuple[tuple[str, int], ...]


class CostMemo:
    """Static tables and subset memos for one (query, stats, eps).

    Algorithm 1 evaluates :func:`_survival` and :func:`_eq1_probes` for
    overlapping joined sets across the DP's ``O(2^n)`` subsets; both
    are pure functions of the *subset* (not the order), so they are
    tabulated by subset.  A subset is an integer bitmask, one bit per
    relation in pre-order.  Bitvector pseudo nodes (Section 3.5) are a
    second mask over the same bits — the checked-but-unjoined
    relations — so survival is keyed ``(node, joined & subtree,
    pseudo & subtree)`` (a node's survival reads only its own subtree)
    and Eq. (1) ``(parent, joined, pseudo)``.

    Everything else the costing reads is derived once, here: the
    tree's bits, parent bits, declared-order children and subtree
    masks; per possible Eq. (1) parent, the root-to-parent path steps;
    per relation ``m``, ``fo``, ``m * fo``, probe cost, ``min(m + eps,
    1)`` and the ascending-``m`` order its children's bitvectors are
    checked in.  The tables are only valid for the (query, stats, eps)
    the memo was built for; the cost functions refuse a memo built for
    another.
    """

    __slots__ = (
        "query", "stats", "eps", "root", "driver_size", "bit",
        "parent_of", "non_root", "children", "subtree_mask", "path_steps",
        "m", "fo", "mfo", "probe_cost", "m_eff", "check_order",
        "survival", "eq1", "frontier", "selprod", "reduction",
    )

    def __init__(self, query: JoinQuery, stats: QueryStats,
                 eps: float = 0.01) -> None:
        self.query = query
        self.stats = stats
        self.eps = eps
        root = self.root = query.root
        self.driver_size: float = stats.driver_size
        self.bit: dict[str, int] = {
            name: 1 << index for index, name in enumerate(query.preorder())
        }
        bit = self.bit
        self.parent_of: dict[str, str] = {
            edge.child: edge.parent for edge in query.edges
        }
        #: ``(name, bit, parent bit)`` per non-root relation, in declared
        #: edge order — the candidate order of every search
        self.non_root: tuple[tuple[str, int, int], ...] = tuple(
            (edge.child, bit[edge.child], bit[edge.parent])
            for edge in query.edges
        )
        self.children: dict[str, Children] = {
            name: tuple((child, bit[child]) for child in query.children(name))
            for name in bit
        }
        self.subtree_mask: dict[str, int] = {}
        for node in query.postorder():
            mask = bit[node]
            for child, _ in self.children[node]:
                mask |= self.subtree_mask[child]
            self.subtree_mask[node] = mask
        # the root takes part in the survival recursion as m = fo = 1
        self.m: dict[str, float] = {root: 1.0}
        self.fo: dict[str, float] = {root: 1.0}
        self.mfo: dict[str, float] = {}
        self.probe_cost: dict[str, float] = {}
        self.m_eff: dict[str, float] = {}
        for name in self.parent_of:
            m, fo = stats.m(name), stats.fo(name)
            self.m[name], self.fo[name] = m, fo
            self.mfo[name] = m * fo
            self.probe_cost[name] = stats.probe_cost(name)
            self.m_eff[name] = min(m + eps, 1.0)
        self.check_order: dict[str, tuple[str, ...]] = {
            name: tuple(sorted((child for child, _ in children),
                               key=self.m.__getitem__))
            for name, children in self.children.items()
        }
        #: possible Eq. (1) parent -> one ``(m * fo or None for the root,
        #: off-path children)`` step per node on the root-to-parent path
        self.path_steps: dict[
            str, tuple[tuple[float | None, Children], ...]
        ] = {}
        for parent in query.internal_relations():
            path = list(reversed(query.path_to_root(parent)))
            steps: list[tuple[float | None, Children]] = []
            for depth, node in enumerate(path):
                on_path = path[depth + 1] if depth + 1 < len(path) else None
                steps.append((
                    None if node == root else self.mfo[node],
                    tuple(pair for pair in self.children[node]
                          if pair[0] != on_path),
                ))
            self.path_steps[parent] = tuple(steps)
        self.survival: dict[tuple[str, int, int], float] = {}
        self.eq1: dict[tuple[str, int, int], float] = {}
        #: joined mask -> (pseudo mask, ((bit, m_eff), ...) in declared
        #: order): the BVP precedence frontier, filled by the optimizer
        self.frontier: dict[int, tuple[int, tuple[tuple[int, float], ...]]] = {}
        #: joined mask -> prod of selectivities over the set
        self.selprod: dict[int, float] = {}
        #: the SJ phase-1 pass (``reduction_ratios``), shared by SJ+STD
        #: and SJ+COM; filled by :func:`repro.core.optimizer.optimize_sj`
        self.reduction: Any = None


def _memo_for(query: JoinQuery, stats: QueryStats, memo: CostMemo | None,
              eps: float | None = None) -> CostMemo:
    """``memo``, checked against (query, stats, eps), or a fresh one.

    ``eps=None``: the caller reads no eps-dependent table, so a memo
    built for any eps serves.
    """
    if memo is None:
        return CostMemo(query, stats, 0.01 if eps is None else eps)
    if memo.query is not query or memo.stats is not stats or (
            eps is not None and memo.eps != eps):
        raise ValueError(
            "CostMemo was built for a different (query, stats, eps)"
        )
    return memo


def _survival(memo: CostMemo, node: str, joined: int, pseudo: int) -> float:
    """``m_T`` for the subtree rooted at the joined relation ``node``.

    Children multiply in the one canonical order: joined children in
    declared order, then pseudo children (bitvector checks, Section 3.5:
    fanout-1 leaves surviving with ``min(m + eps, 1)``) in declared
    order.
    """
    subtree = memo.subtree_mask[node]
    below = pseudo & subtree
    key = (node, joined & subtree, below)
    cached = memo.survival.get(key)
    if cached is not None:
        return cached
    children = memo.children[node]
    product = 1.0
    found = False
    for child, child_bit in children:
        if joined & child_bit:
            product *= _survival(memo, child, joined, pseudo)
            found = True
    if below:
        m_eff = memo.m_eff
        for child, child_bit in children:
            if pseudo & child_bit:
                product *= m_eff[child]
                found = True
    m = memo.m[node]
    result = m * (1.0 - (1.0 - product) ** memo.fo[node]) if found else m
    memo.survival[key] = result
    return result


def _eq1_probes(memo: CostMemo, parent: str, joined: int,
                pseudo: int) -> float:
    """Equation (1): expected probes into a new child of ``parent``.

    ``joined`` is the mask of already-joined relations (the connected
    prefix, always containing the root), ``pseudo`` the mask of
    checked-but-unjoined relations whose bitvectors act as fanout-1
    filters (Section 3.5; ``0`` without bitvectors).  Fanouts multiply
    along the root->parent path; every branch hanging off a path node
    contributes its survival probability — joined branches in declared
    order, then pseudo ones in declared order, at each node.
    """
    key = (parent, joined, pseudo)
    cached = memo.eq1.get(key)
    if cached is not None:
        return cached
    m_eff = memo.m_eff
    probes = memo.driver_size
    for mfo, off_path in memo.path_steps[parent]:
        if mfo is not None:
            probes *= mfo
        for child, child_bit in off_path:
            if joined & child_bit:
                probes *= _survival(memo, child, joined, pseudo)
        if pseudo:
            for child, child_bit in off_path:
                if pseudo & child_bit:
                    probes *= m_eff[child]
    memo.eq1[key] = probes
    return probes


def com_probes_per_join(query: JoinQuery, stats: QueryStats,
                        order: Sequence[str],
                        memo: CostMemo | None = None) -> dict[str, float]:
    """Expected hash probes into each relation under COM, per Eq. (1).

    ``memo`` is an optional :class:`CostMemo` for this (query, stats);
    sharing one across repeated costings of large queries (e.g. the
    planner evaluating several strategies) reuses the survival/Eq. (1)
    subset tables instead of recomputing them.
    """
    query.validate_order(order)
    memo = _memo_for(query, stats, memo)
    joined = memo.bit[query.root]
    probes = {}
    for relation in order:
        probes[relation] = _eq1_probes(memo, memo.parent_of[relation],
                                       joined, 0)
        joined |= memo.bit[relation]
    return probes


def std_probes_per_join(query: JoinQuery, stats: QueryStats,
                        order: Sequence[str]) -> dict[str, float]:
    """Expected hash probes per relation under STD.

    Every fully materialized intermediate tuple is probed, so probes
    into the k-th operator equal ``N * prod_{i<k} m_i fo_i``.
    """
    query.validate_order(order)
    probes = {}
    tuples = stats.driver_size
    for relation in order:
        probes[relation] = tuples
        tuples *= stats.selectivity(relation)
    return probes


def expected_output_size(query: JoinQuery, stats: QueryStats) -> float:
    """Expected flat join result size ``N * prod_i m_i fo_i``."""
    size = stats.driver_size
    for relation in query.non_root_relations:
        size *= stats.selectivity(relation)
    return size


# ----------------------------------------------------------------------
# Plan costing: COM and STD
# ----------------------------------------------------------------------


def com_plan_cost(query: JoinQuery, stats: QueryStats, order: Sequence[str],
                  flat_output: bool = True,
                  memo: CostMemo | None = None) -> PlanCost:
    """PlanCost for the factorized (COM) execution of ``order``.

    Probes follow Eq. (1).  Tuple generation counts the factorized
    entries appended per join (the matches found) plus, when
    ``flat_output`` is requested, the final expansion of the full
    result (Section 3.6 "expansion step").
    """
    per_join = com_probes_per_join(query, stats, order, memo=memo)
    cost = PlanCost(hash_probes_by_relation=dict(per_join))
    for relation, probes in per_join.items():
        cost.hash_probes += probes
        # Factorized entries appended by this join.
        cost.tuples_generated += probes * stats.selectivity(relation)
    if flat_output:
        cost.tuples_generated += expected_output_size(query, stats)
    return cost


def std_plan_cost(query: JoinQuery, stats: QueryStats,
                  order: Sequence[str]) -> PlanCost:
    """PlanCost for the standard (STD) execution of ``order``.

    STD materializes every intermediate tuple, so generation cost
    accrues after every join; the final join's output is the flat
    result (no separate expansion).
    """
    per_join = std_probes_per_join(query, stats, order)
    cost = PlanCost(hash_probes_by_relation=dict(per_join))
    tuples = stats.driver_size
    for relation in order:
        cost.hash_probes += per_join[relation]
        tuples *= stats.selectivity(relation)
        cost.tuples_generated += tuples
    return cost


# ----------------------------------------------------------------------
# BVP cost model (Section 3.5)
# ----------------------------------------------------------------------


def _bvp_check_schedule(query: JoinQuery,
                        order: Sequence[str]) -> dict[str, list[str]]:
    """When each relation's bitvector is checked on the probe side.

    Returns a list of pipeline *events*: ``("scan",)`` then, per joined
    relation R, ``("join", R)``.  A relation's bitvector is checked at
    the earliest event where its parent attribute is available: driver
    children at scan time, others right after their parent's join
    (Section 4.4).  Within one event, checks follow the join order.
    """
    position = {relation: i for i, relation in enumerate(order)}
    checks_after: dict[str, list[str]] = {"scan": []}
    for relation in order:
        checks_after[relation] = []
    for relation in sorted(order, key=position.__getitem__):
        parent = query.parent(relation)
        event = "scan" if parent == query.root else parent
        checks_after[event].append(relation)
    return checks_after


def bvp_plan_cost(query: JoinQuery, stats: QueryStats, order: Sequence[str],
                  eps: float, factorized: bool, flat_output: bool = True,
                  memo: CostMemo | None = None) -> PlanCost:
    """PlanCost under bitvector early pruning (BVP+STD or BVP+COM).

    ``eps`` is the bitvector false-positive probability.  Bitvector and
    hash probes are counted separately (bitvector probes are cheaper —
    Section 3.5).  For the factorized variant, checked-but-not-joined
    relations enter Eq. (1) as pseudo-children with match probability
    ``m + eps`` and fanout 1, exactly as derived in Section 3.5.
    ``memo`` optionally shares a :class:`CostMemo` across costings.
    """
    query.validate_order(order)
    checks_after = _bvp_check_schedule(query, order)
    cost = PlanCost()

    if not factorized:
        # Expected-count state machine over the pipeline:
        # count = N * prod_{joined}(m fo) * prod_{checked-not-joined}(m+eps)
        count = stats.driver_size
        for relation in checks_after["scan"]:
            cost.bitvector_probes += count
            count *= min(stats.m(relation) + eps, 1.0)
        for relation in order:
            cost.hash_probes += count
            cost.hash_probes_by_relation[relation] = count
            checked_factor = min(stats.m(relation) + eps, 1.0)
            count *= stats.m(relation) * stats.fo(relation) / checked_factor
            cost.tuples_generated += count
            for pending in checks_after[relation]:
                cost.bitvector_probes += count
                count *= min(stats.m(pending) + eps, 1.0)
        return cost

    # Factorized (BVP+COM): a pseudo mask of checked-but-unjoined
    # relations; Eq. (1) computed over the augmented tree.
    tables = _memo_for(query, stats, memo, eps)
    bit = tables.bit
    joined = bit[query.root]
    pseudo = 0

    def run_checks(event_parent: str, relations: list[str]) -> None:
        """Bitvector checks fire once per alive entry of the parent node."""
        nonlocal pseudo
        for relation in relations:
            cost.bitvector_probes += _eq1_probes(tables, event_parent,
                                                 joined, pseudo)
            pseudo |= bit[relation]

    run_checks(query.root, checks_after["scan"])
    for relation in order:
        # The relation's own pseudo bit stays set for this computation:
        # its (m + eps) factor applies to the hash probe count (tuples
        # that failed the check were never probed).
        probes = _eq1_probes(tables, tables.parent_of[relation], joined,
                             pseudo)
        cost.hash_probes += probes
        cost.hash_probes_by_relation[relation] = probes
        cost.tuples_generated += probes * stats.selectivity(relation)
        # The real join replaces the pseudo filter from here on.
        pseudo &= ~bit[relation]
        joined |= bit[relation]
        run_checks(relation, checks_after[relation])
    if flat_output:
        cost.tuples_generated += expected_output_size(query, stats)
    return cost


# ----------------------------------------------------------------------
# Unified entry point
# ----------------------------------------------------------------------


def plan_cost(query: JoinQuery, stats: QueryStats, order: Sequence[str],
              mode: ExecutionMode | str, eps: float = 0.01,
              flat_output: bool = True,
              memo: CostMemo | None = None) -> PlanCost:
    """Expected :class:`PlanCost` of executing ``order`` under ``mode``.

    Semi-join modes are computed by
    :func:`repro.core.costmodel_sj.sj_plan_cost`.  ``memo`` optionally
    shares one :class:`CostMemo` (built for this query/stats/eps) across
    repeated costings — the planner uses this to price every strategy of
    a large query against the subset tables its order searches filled.
    """
    mode = ExecutionMode(mode)
    if mode is ExecutionMode.STD:
        return std_plan_cost(query, stats, order)
    if mode is ExecutionMode.COM:
        return com_plan_cost(query, stats, order, flat_output=flat_output,
                             memo=memo)
    if mode in (ExecutionMode.BVP_STD, ExecutionMode.BVP_COM):
        return bvp_plan_cost(
            query,
            stats,
            order,
            eps=eps,
            factorized=mode.factorized,
            flat_output=flat_output,
            memo=memo,
        )
    from .costmodel_sj import sj_plan_cost

    result: PlanCost = sj_plan_cost(
        query, stats, order, factorized=mode.factorized, flat_output=flat_output
    )
    return result


def order_invariant_floor(query: JoinQuery, stats: QueryStats,
                          mode: ExecutionMode | str,
                          weights: CostWeights = CostWeights(),
                          flat_output: bool = True,
                          expected_output: float | None = None) -> float:
    """The part of ``plan_cost(...).total(weights)`` that no join order
    avoids and no search objective contains.

    An order search is bounded by an incumbent's *full* cost, but its
    objective (:func:`repro.core.optimizer.incremental_order_cost`)
    counts only join probes and the bitvector checks a join triggers.
    For any valid order ``total >= objective / max(1, largest probe
    cost) + floor``, the floor being: the expected flat output's tuple
    generation (the expansion step, or an STD variant's last join); for
    BVP the first scan-time bitvector check, which touches every driver
    row; for SJ — no objective, the floor is their only exit — each
    internal node's first semi-join child, probed with the whole
    relation.  ``expected_output``: a precomputed
    :func:`expected_output_size`.
    """
    mode = ExecutionMode(mode)
    floor = 0.0
    if flat_output or not mode.factorized:
        if expected_output is None:
            expected_output = expected_output_size(query, stats)
        floor = expected_output * weights.tuple_generation
    if mode.uses_bitvectors and query.edges:
        floor += stats.driver_size * weights.bitvector_probe
    elif mode.uses_semijoin:
        floor += weights.semijoin_probe * sum(
            stats.relation_size(node) for node in query.internal_relations()
        )
    return floor


def cost_lower_bound(query: JoinQuery, stats: QueryStats,
                     mode: ExecutionMode | str,
                     weights: CostWeights = CostWeights(),
                     flat_output: bool = True,
                     expected_output: float | None = None) -> float:
    """A lower bound on the *whole* cost of any order under ``mode``:
    :func:`order_invariant_floor` plus, for STD / COM, the first join —
    whichever child of the root it is, every driver row probes it."""
    mode = ExecutionMode(mode)
    bound = order_invariant_floor(query, stats, mode, weights, flat_output,
                                  expected_output)
    if mode in (ExecutionMode.STD, ExecutionMode.COM) and query.edges:
        bound += stats.driver_size * weights.hash_probe
    return bound
