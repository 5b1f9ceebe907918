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

All formulas assume the paper's uniformity and independence
assumptions, plus the constant-fanout simplification (every matching
tuple has exactly ``fo`` matches); Section 5.6 / Figure 15 evaluates the
impact of that simplification empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..modes import ExecutionMode

__all__ = [
    "CostMemo",
    "CostWeights",
    "PlanCost",
    "survival_probability",
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
    hash_probes_by_relation: dict = field(default_factory=dict)

    def total(self, weights=CostWeights()):
        """Scalar cost under the given operation weights."""
        return (
            weights.hash_probe * self.hash_probes
            + weights.bitvector_probe * self.bitvector_probes
            + weights.semijoin_probe * self.semijoin_probes
            + weights.tuple_generation * self.tuples_generated
        )

    def add(self, other):
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


class CostMemo:
    """Memoization tables for repeated survival / Eq. (1) evaluations.

    The exhaustive optimizer (Algorithm 1) evaluates ``_survival`` and
    ``_eq1_probes`` for overlapping joined sets across the DP's
    ``O(2^n)`` subsets; both quantities are pure functions of the
    *subset* (not the order), so a DP table over relation subsets
    eliminates the re-costing.  Subsets are encoded as integer
    bitmasks (one bit per relation, pseudo bitvector nodes included
    lazily) to keep key construction cheap.  A memo is only valid for
    one fixed (query, stats, eps) combination — the optimizer creates a
    fresh one per invocation.

    ``_survival`` for a node depends only on the membership restricted
    to that node's subtree (plus pseudo bitvector nodes attached inside
    it), so its keys are masked by the subtree for maximal reuse.
    """

    __slots__ = ("bit", "subtree_mask", "survival", "eq1", "frontier",
                 "parent_of", "non_root", "m_eff", "selprod", "reduction")

    def __init__(self, query):
        self.bit = {}
        for name in query.preorder():
            self.bit[name] = 1 << len(self.bit)
        self.subtree_mask = {}
        for node in query.postorder():
            mask = self.bit[node]
            for child in query.children(node):
                mask |= self.subtree_mask[child]
            self.subtree_mask[node] = mask
        self.survival = {}
        self.eq1 = {}
        #: joined-set mask -> (pseudo, pseudo_children); used by the
        #: optimizer's BVP costing (the frontier depends only on the set)
        self.frontier = {}
        # Static structure tables so hot per-subset loops avoid method
        # calls (measurable on 50+-relation beam/IDP searches).
        self.parent_of = {edge.child: edge.parent for edge in query.edges}
        self.non_root = tuple(query.non_root_relations)
        #: relation -> min(m + eps, 1.0); lazily filled (one eps per memo)
        self.m_eff = {}
        #: joined-set mask -> prod of selectivities over the set
        self.selprod = {}
        #: the SJ phase-1 pass (``reduction_ratios``), shared by SJ+STD
        #: and SJ+COM; filled by :func:`repro.core.optimizer.optimize_sj`
        self.reduction = None

    def mask_of(self, names):
        """Bitmask of a collection of node names (new bits on demand)."""
        bit = self.bit
        mask = 0
        for name in names:
            value = bit.get(name)
            if value is None:
                value = bit[name] = 1 << len(bit)
            mask |= value
        return mask

    def pseudo_submask(self, pseudo, subtree_mask):
        """Mask of pseudo nodes whose parent lies inside ``subtree_mask``."""
        bit = self.bit
        mask = 0
        for name, (parent, _) in pseudo.items():
            if bit[parent] & subtree_mask:
                value = bit.get(name)
                if value is None:
                    value = bit[name] = 1 << len(bit)
                mask |= value
        return mask


def _node_m(query, stats, node, pseudo):
    if node == query.root:
        return 1.0
    if node in pseudo:
        return pseudo[node][1]
    return stats.m(node)


def _node_fo(query, stats, node, pseudo):
    if node == query.root:
        return 1.0
    if node in pseudo:
        return 1.0
    return stats.fo(node)


def _children_in(query, node, members, pseudo_children):
    """Children of ``node`` restricted to ``members``, plus pseudo ones."""
    real = [c for c in query.children(node) if c in members]
    return real + pseudo_children.get(node, [])


def _survival(query, stats, node, members, pseudo, pseudo_children,
              memo=None, members_mask=None):
    """``m_T`` for the subtree rooted at ``node`` restricted to members.

    ``members_mask`` is the :class:`CostMemo` bitmask of ``members``
    (computed by the caller so the recursion does not rebuild it).
    """
    if node in pseudo:
        # Bitvector pseudo-nodes are fanout-1 leaves (Section 3.5).
        return pseudo[node][1]
    key = None
    if memo is not None:
        if members_mask is None:
            members_mask = memo.mask_of(members)
        subtree = memo.subtree_mask[node]
        key = (
            node,
            members_mask & subtree,
            memo.pseudo_submask(pseudo, subtree) if pseudo else 0,
        )
        cached = memo.survival.get(key)
        if cached is not None:
            return cached
    children = _children_in(query, node, members, pseudo_children)
    m = _node_m(query, stats, node, pseudo)
    if not children:
        result = m
    else:
        child_product = 1.0
        for child in children:
            child_product *= _survival(
                query, stats, child, members, pseudo, pseudo_children,
                memo, members_mask
            )
        fo = _node_fo(query, stats, node, pseudo)
        result = m * (1.0 - (1.0 - child_product) ** fo)
    if key is not None:
        memo.survival[key] = result
    return result


def survival_probability(query, stats, members, subtree_root=None):
    """``m_T`` for the connected node set ``members``.

    ``members`` must form a connected subtree; ``subtree_root`` defaults
    to the query root (so that e.g. ``m_{1,2,3,4}`` from the paper is
    ``survival_probability(q, st, {"R1","R2","R3","R4"})``).
    """
    members = set(members)
    root = subtree_root if subtree_root is not None else query.root
    if root not in members:
        raise ValueError(f"subtree root {root!r} not in members {sorted(members)}")
    return _survival(query, stats, root, members, {}, {})


def _eq1_probes(query, stats, members, parent, pseudo=None,
                pseudo_children=None, memo=None):
    """Equation (1): expected probes into a new child of ``parent``.

    ``members`` is the set of already-joined relations (the connected
    prefix, always containing the root).  Fanouts multiply along the
    root->parent path; every branch subtree hanging off a path node
    contributes its survival probability.  ``pseudo`` maps pseudo-node
    name -> (parent, match_probability) for BVP bitvector checks that
    behave like fanout-1 filters (Section 3.5).  ``memo`` is an optional
    :class:`CostMemo` valid for this (query, stats) combination.
    """
    pseudo = pseudo or {}
    pseudo_children = pseudo_children or {}
    key = members_mask = None
    if memo is not None:
        members_mask = memo.mask_of(members)
        key = (
            parent,
            members_mask,
            memo.mask_of(pseudo) if pseudo else 0,
        )
        cached = memo.eq1.get(key)
        if cached is not None:
            return cached
    path = list(reversed(query.path_to_root(parent)))  # root ... parent
    on_path = set(path)
    probes = stats.driver_size
    for node in path:
        if node != query.root:
            probes *= stats.m(node) * stats.fo(node)
        for child in _children_in(query, node, members, pseudo_children):
            if child in on_path:
                continue
            probes *= _survival(
                query, stats, child, members, pseudo, pseudo_children,
                memo, members_mask
            )
    if key is not None:
        memo.eq1[key] = probes
    return probes


def com_probes_per_join(query, stats, order, memo=None):
    """Expected hash probes into each relation under COM, per Eq. (1).

    ``memo`` is an optional :class:`CostMemo` valid for this
    (query, stats) pair; sharing one across repeated costings of large
    queries (e.g. the planner evaluating several strategies) reuses the
    survival/Eq. (1) subset tables instead of recomputing them.
    """
    query.validate_order(order)
    joined = {query.root}
    probes = {}
    for relation in order:
        parent = query.parent(relation)
        probes[relation] = _eq1_probes(query, stats, joined, parent,
                                       memo=memo)
        joined.add(relation)
    return probes


def std_probes_per_join(query, stats, order):
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


def expected_output_size(query, stats):
    """Expected flat join result size ``N * prod_i m_i fo_i``."""
    size = stats.driver_size
    for relation in query.non_root_relations:
        size *= stats.selectivity(relation)
    return size


# ----------------------------------------------------------------------
# Plan costing: COM and STD
# ----------------------------------------------------------------------


def com_plan_cost(query, stats, order, flat_output=True, memo=None):
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


def std_plan_cost(query, stats, order):
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


def _bvp_check_schedule(query, order):
    """When each relation's bitvector is checked on the probe side.

    Returns a list of pipeline *events*: ``("scan",)`` then, per joined
    relation R, ``("join", R)``.  A relation's bitvector is checked at
    the earliest event where its parent attribute is available: driver
    children at scan time, others right after their parent's join
    (Section 4.4).  Within one event, checks follow the join order.
    """
    position = {relation: i for i, relation in enumerate(order)}
    checks_after = {"scan": []}
    for relation in order:
        checks_after[relation] = []
    for relation in sorted(order, key=position.__getitem__):
        parent = query.parent(relation)
        event = "scan" if parent == query.root else parent
        checks_after[event].append(relation)
    return checks_after


def bvp_plan_cost(query, stats, order, eps, factorized, flat_output=True,
                  memo=None):
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

    # Factorized (BVP+COM): pseudo nodes for checked-but-unjoined
    # relations; Eq. (1) computed over the augmented tree.
    pseudo = {}
    pseudo_children = {}
    joined = {query.root}

    def run_checks(event_parent, relations):
        """Bitvector checks fire once per alive entry of the parent node."""
        for relation in relations:
            alive = _eq1_probes(
                query, stats, joined, event_parent, pseudo, pseudo_children,
                memo
            )
            cost.bitvector_probes += alive
            name = f"~bv:{relation}"
            pseudo[name] = (event_parent, min(stats.m(relation) + eps, 1.0))
            pseudo_children.setdefault(event_parent, []).append(name)

    run_checks(query.root, checks_after["scan"])
    for relation in order:
        parent = query.parent(relation)
        # The relation's own bitvector pseudo-node stays in place for
        # this computation: its (m + eps) factor applies to the hash
        # probe count (tuples that failed the check were never probed).
        probes = _eq1_probes(query, stats, joined, parent, pseudo,
                             pseudo_children, memo)
        cost.hash_probes += probes
        cost.hash_probes_by_relation[relation] = probes
        cost.tuples_generated += probes * stats.selectivity(relation)
        # The real join replaces the pseudo filter from here on.
        name = f"~bv:{relation}"
        if name in pseudo:
            del pseudo[name]
            pseudo_children[parent].remove(name)
        joined.add(relation)
        run_checks(relation, checks_after[relation])
    if flat_output:
        cost.tuples_generated += expected_output_size(query, stats)
    return cost


# ----------------------------------------------------------------------
# Unified entry point
# ----------------------------------------------------------------------


def plan_cost(query, stats, order, mode, eps=0.01, flat_output=True,
              memo=None):
    """Expected :class:`PlanCost` of executing ``order`` under ``mode``.

    Semi-join modes are computed by
    :func:`repro.core.costmodel_sj.sj_plan_cost`.  ``memo`` optionally
    shares one :class:`CostMemo` (valid for this query/stats/eps) across
    repeated costings — the planner uses this to price every strategy of
    a large query against shared subset tables.
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

    return sj_plan_cost(
        query, stats, order, factorized=mode.factorized, flat_output=flat_output
    )


def order_invariant_floor(query, stats, mode, weights=CostWeights(),
                          flat_output=True, expected_output=None):
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


def cost_lower_bound(query, stats, mode, weights=CostWeights(),
                     flat_output=True, expected_output=None):
    """A lower bound on the *whole* cost of any order under ``mode``:
    :func:`order_invariant_floor` plus, for STD / COM, the first join —
    whichever child of the root it is, every driver row probes it."""
    mode = ExecutionMode(mode)
    bound = order_invariant_floor(query, stats, mode, weights, flat_output,
                                  expected_output)
    if mode in (ExecutionMode.STD, ExecutionMode.COM) and query.edges:
        bound += stats.driver_size * weights.hash_probe
    return bound
