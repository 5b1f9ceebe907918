"""Cyclic queries via spanning trees (Sections 2.1 and 6).

The paper's techniques target acyclic queries; for cyclic ones it
prescribes the standard practice of "choosing a spanning tree of the
join graph" — the optimizer ignores the residual join predicates, and
execution re-applies them as filters.  This module makes that choice a
first-class optimization problem instead of a greedy bolt-on:

* :func:`spanning_tree_decomposition` keeps the historical greedy
  Kruskal split (lowest-selectivity edges stay in the tree);
* :func:`enumerate_spanning_trees` yields candidate trees in
  approximately ascending tree-output order (best-first single-edge
  exchanges from the minimum tree), which is what lets the planner
  search spanning tree and join order *jointly*;
* candidate trees need no statistics code of their own: tree edges
  and residuals are all directed predicates, which
  :class:`repro.core.stats.StatsReader` measures once each, and
  :func:`edge_pair_selectivity` turns one into the rooting-free pair
  selectivity trees are ranked by;
* :func:`residual_filter_cost` extends the cost model with the
  residual-filter term, so trees are compared on *total* cost (tree
  join + expansion + residual checks), not tree-join cost alone;
* :func:`execute_cyclic` evaluates a (possibly cyclic) plan on any
  catalog — including hash-partitioned ones: residual filters compare
  values in base-row-id space via :meth:`~repro.storage.Table.gather`,
  which PR 3's ``original_rows`` mapping makes layout-independent.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ..modes import ExecutionMode
from .query import JoinEdge, JoinQuery

__all__ = [
    "ResidualPredicate",
    "CyclicPlan",
    "CYCLIC_EXECUTION_CHOICES",
    "decompose",
    "edge_pair_selectivity",
    "enumerate_spanning_trees",
    "exact_equal",
    "execute_cyclic",
    "log_pair_weight",
    "residual_filter_cost",
    "spanning_tree_decomposition",
    "tree_query_from_residuals",
    "wcoj_cost",
]

#: valid values of the ``cyclic_execution`` planner knob: ``auto``
#: costs both strategies per query and picks the cheaper one
CYCLIC_EXECUTION_CHOICES = ("auto", "tree_filter", "wcoj")

#: floor for log-space tree weights (a zero-selectivity edge would
#: otherwise produce -inf and poison heap ordering)
_MIN_SELECTIVITY = 1e-300


@dataclass(frozen=True)
class ResidualPredicate:
    """An equality join predicate not covered by the spanning tree."""

    relation_a: str
    attr_a: str
    relation_b: str
    attr_b: str

    @property
    def key(self):
        """The predicate as the parser's 4-tuple rendering."""
        return (self.relation_a, self.attr_a, self.relation_b, self.attr_b)

    def __repr__(self):
        return (
            f"ResidualPredicate({self.relation_a}.{self.attr_a} = "
            f"{self.relation_b}.{self.attr_b})"
        )


@dataclass
class CyclicPlan:
    """A spanning-tree decomposition of a cyclic join graph."""

    query: JoinQuery
    residuals: list

    @property
    def is_cyclic(self):
        return bool(self.residuals)

    def tree_signature(self):
        """A stable, hashable signature of the resolved decomposition.

        Covers the rooted tree (driver + directed edges) and the
        residual predicates in canonical order — two decompositions
        that picked the same tree produce the same signature no matter
        how the candidates were enumerated.
        """
        return (
            self.query.root,
            tuple(sorted(
                (edge.parent, edge.child, edge.parent_attr, edge.child_attr)
                for edge in self.query.edges
            )),
            tuple(sorted(residual.key for residual in self.residuals)),
        )


# ----------------------------------------------------------------------
# Graph structure helpers
# ----------------------------------------------------------------------


def _rooted_tree(relations, tree_predicates, driver):
    """Root a spanning-tree predicate subset at ``driver``.

    Raises ``ValueError`` unless the predicates are exactly a spanning
    tree — ``len(relations) - 1`` of them, reaching every relation —
    since the walk would otherwise skip a cycle-closing predicate
    without applying it.
    """
    if len(tree_predicates) >= len(relations):
        raise ValueError(
            f"PRED001: {len(tree_predicates)} tree predicates over "
            f"{len(relations)} relations: a spanning tree has "
            f"{len(relations) - 1}, so a predicate would go unapplied"
        )
    adjacency = {alias: [] for alias in relations}
    for rel_a, attr_a, rel_b, attr_b in tree_predicates:
        adjacency[rel_a].append((rel_b, attr_a, attr_b))
        adjacency[rel_b].append((rel_a, attr_b, attr_a))
    edges = []
    visited = {driver}
    stack = [driver]
    while stack:
        node = stack.pop()
        for child, parent_attr, child_attr in adjacency[node]:
            if child in visited:
                continue
            visited.add(child)
            edges.append(JoinEdge(node, child, parent_attr, child_attr))
            stack.append(child)
    if len(visited) < len(relations):
        raise ValueError(
            f"SPEC005: the tree predicates do not reach "
            f"{sorted(set(relations) - visited)} from {driver!r}"
        )
    return JoinQuery(driver, edges)


def decompose(parsed, tree_predicates, driver=None):
    """A :class:`CyclicPlan` from an explicit spanning-tree choice.

    ``tree_predicates`` is a subset of ``parsed.join_predicates``
    forming a spanning tree; everything else becomes a residual filter
    (multiset semantics, so parallel predicates between one relation
    pair split correctly between tree and residuals).

    Round-trip law: for any plan this builds,
    ``tree_query_from_residuals(parsed, plan.residuals,
    plan.query.root)`` reconstructs ``plan.query`` edge for edge — tree
    edges and residuals partition the predicate *multiset*, so each
    predicate is applied exactly once by whichever execution strategy
    consumes the plan (the tree join applies edges and the residual
    stage applies residuals under ``tree_filter``; the
    variable-elimination operator in :mod:`repro.engine.wcoj` applies
    each predicate once with its strategy-appropriate semantics).
    """
    relations = list(parsed.relations)
    if driver is None:
        driver = relations[0]
    remaining = list(parsed.join_predicates)
    for predicate in tree_predicates:
        remaining.remove(tuple(predicate))
    residuals = [ResidualPredicate(*predicate) for predicate in remaining]
    return CyclicPlan(
        query=_rooted_tree(relations, tree_predicates, driver),
        residuals=residuals,
    )


def tree_query_from_residuals(parsed, residuals, driver):
    """Rebuild the rooted spanning tree a plan was optimized with.

    The inverse of :func:`decompose` when only the residuals were
    recorded (e.g. in a picklable :class:`~repro.planner.PlanSpec`):
    the tree is the query's predicate *multiset* minus the residual
    predicates — one removal per residual occurrence, so duplicate
    predicates split between tree and residuals survive the round trip
    — rooted at the plan's driver.  Because the reconstruction
    partitions the multiset, rehydrated plans keep the edge-XOR-residual
    invariant: no predicate can be applied twice (once as a tree edge
    and again as a residual) by either the tree+filter or the WCOJ
    execution strategy.  A residual the query does not state (or states
    fewer times) raises ``ValueError``, as does a remainder that is not
    a spanning tree (:func:`_rooted_tree`).
    """
    remaining = list(parsed.join_predicates)
    for residual in residuals:
        key = residual.key if isinstance(residual, ResidualPredicate) \
            else tuple(residual)
        if key not in remaining:
            rel_a, attr_a, rel_b, attr_b = key
            raise ValueError(
                f"PRED003: residual {rel_a}.{attr_a} = {rel_b}.{attr_b} "
                f"matches no remaining join predicate of the query"
            )
        remaining.remove(key)
    return _rooted_tree(list(parsed.relations), remaining, driver)


# ----------------------------------------------------------------------
# Spanning-tree choice
# ----------------------------------------------------------------------


def _edge_weight(edge_key, stats_hint):
    """Lower weight = keep in the tree.

    ``stats_hint`` maps (rel_a, attr_a, rel_b, attr_b) (either
    direction) to an estimated selectivity; more selective edges are
    kept in the tree so the residual filters discard little.
    Unweighted edges default to 1.0.
    """
    if not stats_hint:
        return 1.0
    rel_a, attr_a, rel_b, attr_b = edge_key
    for key in (edge_key, (rel_b, attr_b, rel_a, attr_a)):
        if key in stats_hint:
            return stats_hint[key]
    return 1.0


def _kruskal(relations, predicates, weights):
    """Indices of the minimum-weight spanning tree (deterministic ties)."""
    parent = {alias: alias for alias in relations}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ordered = sorted(
        range(len(predicates)),
        key=lambda i: (weights[i], predicates[i]),
    )
    tree = []
    for index in ordered:
        rel_a, _, rel_b, _ = predicates[index]
        root_a, root_b = find(rel_a), find(rel_b)
        if root_a != root_b:
            parent[root_a] = root_b
            tree.append(index)
    if len(tree) != len(relations) - 1:
        raise ValueError("join graph is disconnected")
    return tree


def _tree_adjacency(predicates, tree):
    """Adjacency map of a tree's edges: relation -> [(neighbor, index)]."""
    adjacency = {}
    for index in tree:
        rel_a, _, rel_b, _ = predicates[index]
        adjacency.setdefault(rel_a, []).append((rel_b, index))
        adjacency.setdefault(rel_b, []).append((rel_a, index))
    return adjacency


def _tree_path_edges(adjacency, start, goal):
    """Edge indices on the unique tree path between two relations."""
    via = {start: None}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for neighbor, index in adjacency.get(node, []):
            if neighbor in via:
                continue
            via[neighbor] = (node, index)
            stack.append(neighbor)
    path = []
    node = goal
    while via[node] is not None:
        node, index = via[node]
        path.append(index)
    return path


def enumerate_spanning_trees(relations, predicates, weights,
                             max_trees=None, neighbors_per_tree=64):
    """Yield spanning trees in approximately ascending total weight.

    ``predicates`` are the parser's 4-tuples, ``weights`` an aligned
    list of additive edge weights (the planner passes per-edge
    log-selectivities, so a tree's total weight orders candidates by
    estimated tree-join output).  Each yielded tree is a sorted tuple
    of predicate *indices*; the first is always the Kruskal minimum —
    the greedy baseline — so a search over this stream can only match
    or beat greedy.

    Enumeration is best-first over single-edge exchanges (remove one
    tree edge on the cycle a non-tree edge closes, insert that edge);
    the exchange graph of spanning trees is connected, so with an
    unbounded ``neighbors_per_tree`` every spanning tree is eventually
    produced.  Dense graphs generate O(E·n) neighbors per tree, so only
    the ``neighbors_per_tree`` lowest-weight exchanges are queued per
    popped tree — a pruning of the candidate *stream*, never of the
    incumbent comparison the caller performs.
    """
    if len(relations) < 2:
        raise ValueError("a join graph needs at least two relations")
    start = frozenset(_kruskal(relations, predicates, weights))
    counter = 0
    heap = [(sum(weights[i] for i in start), counter, start)]
    seen = {start}
    yielded = 0
    while heap:
        total, _, tree = heapq.heappop(heap)
        yield tuple(sorted(tree))
        yielded += 1
        if max_trees is not None and yielded >= max_trees:
            return
        adjacency = _tree_adjacency(predicates, tree)
        swaps = []
        for index in range(len(predicates)):
            if index in tree:
                continue
            rel_a, _, rel_b, _ = predicates[index]
            for removed in _tree_path_edges(adjacency, rel_a, rel_b):
                swaps.append((weights[index] - weights[removed],
                              index, removed))
        swaps.sort()
        for delta, added, removed in swaps[:neighbors_per_tree]:
            neighbor = tree - {removed} | {added}
            if neighbor in seen:
                continue
            seen.add(neighbor)
            counter += 1
            heapq.heappush(heap, (total + delta, counter, neighbor))


def spanning_tree_decomposition(parsed, driver=None, stats_hint=None):
    """Choose a spanning tree of the join graph; rest become residuals.

    Kruskal over the join predicates, keeping the lowest-selectivity
    (most reducing) edges in the tree.  The returned
    :class:`CyclicPlan` contains a rooted join query and the residual
    predicates.  Works for acyclic inputs too (no residuals).

    This is the *greedy* baseline; the planner's joint search
    (:meth:`repro.planner.Planner.plan` on a cyclic query) additionally
    compares alternative trees on total cost.
    """
    relations = list(parsed.relations)
    if not relations:
        raise ValueError("query has no relations")
    if not parsed.is_connected():
        raise ValueError("join graph is disconnected")
    predicates = list(parsed.join_predicates)
    weights = [_edge_weight(predicate, stats_hint)
               for predicate in predicates]
    if len(relations) == 1:
        return CyclicPlan(query=JoinQuery(relations[0], []), residuals=[])
    tree = _kruskal(relations, predicates, weights)
    return decompose(parsed, [predicates[i] for i in tree], driver)


# ----------------------------------------------------------------------
# Weights and cost terms for tree candidates
# ----------------------------------------------------------------------


def edge_pair_selectivity(stats, child_size):
    """P(two independent tuples satisfy the predicate).

    For predicate ``a.x = b.y`` this is ``matching pairs / (|a|·|b|)``
    = ``m·fo / |b|`` in either probe direction (``stats`` is the
    :class:`~repro.core.stats.EdgeStats` of ``a -> b``, ``child_size``
    is ``|b|``).  It is the quantity that makes tree comparison
    rooting-free: a tree's expected join output is ``prod(|R|) ·
    prod(pair selectivities over tree edges)`` for *every* rooting, so
    candidate trees are ranked by the product of their edges' pair
    selectivities.
    """
    if not child_size:
        return 0.0
    return stats.m * stats.fo / float(child_size)


def log_pair_weight(selectivity):
    """Additive tree-enumeration weight for one edge's pair selectivity."""
    return math.log(max(selectivity, _MIN_SELECTIVITY))


def residual_filter_cost(expected_input, selectivities, weights):
    """Expected weighted cost of the residual-filter stage.

    ``expected_input`` is the tree join's expected flat output;
    ``selectivities`` the residual filters' estimated selectivities in
    the order they will be applied (the planner sorts ascending —
    most-reducing first — and execution applies the same order).  Each
    check is one vectorized key comparison per surviving tuple, priced
    like a semi-join probe; filters are progressive, so filter ``i``
    only sees the tuples the first ``i - 1`` filters kept.  This term
    is what lets the planner compare candidate trees on *total* cost:
    a tree with a slightly larger join output can still win when its
    residuals are cheap, and vice versa.
    """
    cost = 0.0
    alive = float(expected_input)
    for selectivity in selectivities:
        cost += alive * weights.semijoin_probe
        alive *= selectivity
    return cost


def wcoj_cost(order, distincts, sizes, weights):
    """Expected weighted cost of worst-case-optimal evaluation.

    The counterpart of tree-join cost + :func:`residual_filter_cost`
    for the strategy in :mod:`repro.engine.wcoj`, simulated level by
    level over the planned variable ``order`` (tuples of
    ``(relation, attribute)`` members per variable, e.g. from
    :func:`repro.engine.wcoj.plan_variable_order`):

    * each level probes the expansion relation once per frontier prefix
      (``hash_probe``) and generates its candidate extensions
      (``tuple_generation``) — at most the expansion member's distinct
      count, and at most the expansion relation's rows per bound group;
    * every other member of the variable checks each candidate
      (``semijoin_probe``; the executor splits these between
      ``semijoin_probes`` and ``residual_checks`` by predicate kind,
      but both price like one vectorized comparison per candidate).
      Survival is estimated as domain containment — ``d_member /
      d_expand`` — further capped by the member relation's expected
      rows per bound group when that relation is already constrained;
    * the final expansion re-probes each relation once per output-frame
      prefix and generates the flat tuples, mirroring the flat driver.

    ``distincts`` maps each ``(relation, attribute)`` member to its
    distinct-value count and ``sizes`` each alias to its cardinality
    (:meth:`repro.core.stats.StatsReader.distinct` / ``sizes``).  The
    absolute value is
    comparable with the tree+filter total the planner assembles, which
    is all ``cyclic_execution="auto"`` needs: on dense cyclic cores the
    tree join's expected output explodes while the wcoj frontier stays
    near the true result size, and the comparison flips accordingly.
    """
    prefixes = 1.0
    cost = 0.0
    bound = {}  # relation -> product of distinct counts of bound attrs

    def rows_per_group(rel):
        size = float(sizes.get(rel, 1.0))
        return max(1.0, size / bound.get(rel, 1.0))

    for members in order:
        expand = min(
            members,
            key=lambda m: (m[0] not in bound, distincts.get(m, 1), m),
        )
        d_expand = max(float(distincts.get(expand, 1)), 1.0)
        if expand[0] in bound:
            extensions = min(d_expand, rows_per_group(expand[0]))
        else:
            extensions = d_expand
        cost += prefixes * weights.hash_probe
        candidates = prefixes * extensions
        cost += candidates * weights.tuple_generation
        checked_rels = {expand[0]}
        for member in members:
            if member == expand:
                continue
            d_member = max(float(distincts.get(member, 1)), 1.0)
            cost += candidates * weights.semijoin_probe
            survive = min(1.0, d_member / d_expand)
            rel = member[0]
            if rel in bound and rel not in checked_rels:
                survive = min(
                    survive, min(1.0, rows_per_group(rel) / d_member)
                )
            checked_rels.add(rel)
            candidates *= survive
        prefixes = candidates
        for member in members:
            bound[member[0]] = (
                bound.get(member[0], 1.0)
                * max(float(distincts.get(member, 1)), 1.0)
            )
    out = prefixes
    for rel in sorted(bound):
        cost += out * weights.hash_probe
        out *= rows_per_group(rel)
        cost += out * weights.tuple_generation
    return cost


# ----------------------------------------------------------------------
# Residual filtering (execution)
# ----------------------------------------------------------------------


def exact_equal(values_a, values_b):
    """Elementwise equality with exact numeric-key semantics.

    The residual analogue of PR 3's partitioned-probe key handling:

    * integer vs integer compares exactly (no upcast);
    * integer vs float matches only where the float is finite and
      exactly integral, compared in integer space — so two huge int64
      keys (or an int and a float) that would collide after a lossy
      float64 upcast (magnitudes at or beyond ``2**53``) never
      spuriously match;
    * NaN equals nothing (same as a hash-index probe of an absent key);
    * any other dtype combination falls back to plain ``==``.
    """
    values_a = np.asarray(values_a)
    values_b = np.asarray(values_b)
    if values_a.dtype == bool:
        values_a = values_a.astype(np.int64)
    if values_b.dtype == bool:
        values_b = values_b.astype(np.int64)
    a_int = np.issubdtype(values_a.dtype, np.integer)
    b_int = np.issubdtype(values_b.dtype, np.integer)
    if a_int and b_int:
        return values_a == values_b
    a_float = np.issubdtype(values_a.dtype, np.floating)
    b_float = np.issubdtype(values_b.dtype, np.floating)
    if a_int != b_int and (a_float or b_float):
        ints, floats = (values_a, values_b) if a_int else (values_b, values_a)
        out = np.zeros(len(ints), dtype=bool)
        # int64-convertible: finite and inside [-2**63, 2**63) — the
        # bound is exact in float64, and anything outside it cannot
        # equal an int64 key anyway
        convertible = np.flatnonzero(
            np.isfinite(floats)
            & (floats >= float(-(2 ** 63)))
            & (floats < float(2 ** 63))
        )
        if len(convertible):
            as_int = floats[convertible].astype(np.int64)
            integral = as_int.astype(floats.dtype) == floats[convertible]
            positions = convertible[integral]
            out[positions] = ints[positions] == as_int[integral]
        return out
    with np.errstate(invalid="ignore"):
        return values_a == values_b


def _base_values(catalog, relation, attr, rows, kernels):
    """Column values for *base* row ids (layout-independent).

    The gather translates base ids through a
    :class:`~repro.storage.partition.PartitionedTable`'s physical
    permutation (and is the identity for ordinary tables), which is
    what lets residual filters run against hash-partitioned catalogs.
    """
    return kernels.gather(catalog.table(relation), attr, rows)


def _default_kernels():
    from ..engine.kernels import get_kernels

    return get_kernels("vectorized")


def _filter_batch(catalog, residuals, batch, counters=None, collect=True,
                  kernels=None):
    """Apply the residual filters to one flat batch of base row ids.

    Filters are progressive: each predicate is evaluated only on the
    rows every earlier predicate kept (matching the cost model's
    accounting, and identical across batch splits since surviving
    counts are additive).  Returns ``(survivors, filtered_rows)``;
    ``filtered_rows`` is ``None`` unless ``collect`` — counting a
    result must not materialize it.  ``kernels`` selects the execution
    kernels the value gathers and equality comparisons run on
    (defaults to the vectorized set).
    """
    if kernels is None:
        kernels = _default_kernels()
    if not batch:
        return 0, ({} if collect else None)
    keep = None
    for predicate in residuals:
        rows_a = batch[predicate.relation_a]
        rows_b = batch[predicate.relation_b]
        if keep is not None:
            rows_a = rows_a[keep]
            rows_b = rows_b[keep]
        if counters is not None:
            counters.residual_checks += len(rows_a)
        match = kernels.equal_mask(
            _base_values(catalog, predicate.relation_a, predicate.attr_a,
                         rows_a, kernels),
            _base_values(catalog, predicate.relation_b, predicate.attr_b,
                         rows_b, kernels),
        )
        keep = np.flatnonzero(match) if keep is None else keep[match]
    if keep is None:
        count = len(next(iter(batch.values())))
        return count, (dict(batch) if collect else None)
    if not collect:
        return len(keep), None
    return len(keep), {rel: rows[keep] for rel, rows in batch.items()}


def apply_residuals(catalog, residuals, rows_by_relation, counters=None,
                    execution=None):
    """Filter flat result rows (base row ids) by the residual predicates.

    Progressive and exact (:func:`exact_equal`); ``counters``
    optionally accumulates the per-filter comparison counts into
    :attr:`~repro.engine.executor.ExecutionCounters.residual_checks`.
    ``execution`` picks the kernel path (``None`` → vectorized).
    """
    kernels = None
    if execution is not None:
        from ..engine.kernels import get_kernels, resolve_execution

        kernels = get_kernels(resolve_execution(execution))
    _, filtered = _filter_batch(catalog, residuals, rows_by_relation,
                                counters=counters, collect=True,
                                kernels=kernels)
    return filtered


def _push_down_residuals(catalog, residuals, factorized, counters=None,
                         kernels=None):
    """Apply ancestor/descendant residuals *before* expansion.

    A residual whose two relations lie on one root-to-leaf path of the
    spanning tree is decidable per factorized entry: every flat tuple
    containing descendant entry ``e`` reaches the same ancestor entry
    through the ``parent_ptr`` chain, so comparing the two base values
    once per entry and killing the failing descendant entries
    (:meth:`~repro.engine.factorized.FactorizedResult.kill`) filters
    the factorized result exactly — *before* the entries multiply out
    through expansion, which is where tree+filter used to pay for every
    doomed combination.  Comparison semantics are unchanged
    (:func:`exact_equal`, via the kernel ``equal_mask``), and each
    check bumps the existing ``residual_checks`` counter once per alive
    descendant entry.

    Returns the residuals that cross branches of the tree and must
    still be applied on expanded batches.  Self-join residuals
    (both sides one relation) are on a trivial path and push down too.
    """
    if kernels is None:
        kernels = _default_kernels()
    query = factorized.query

    def ancestors(rel):
        chain = [rel]
        while chain[-1] != query.root:
            chain.append(query.parent(chain[-1]))
        return chain

    remaining = []
    # per descendant node, its alive mask less the entries the residuals
    # so far failed: each residual checks the entries the ones before
    # it kept, and the deaths are walked once per node after the loop
    kept = {}
    for residual in residuals:
        rel_a, attr_a, rel_b, attr_b = residual.key
        if rel_b in ancestors(rel_a):
            descendant, desc_attr = rel_a, attr_a
            ancestor, anc_attr = rel_b, attr_b
        elif rel_a in ancestors(rel_b):
            descendant, desc_attr = rel_b, attr_b
            ancestor, anc_attr = rel_a, attr_a
        else:
            remaining.append(residual)
            continue
        node = factorized.node(descendant)
        if descendant not in kept:
            kept[descendant] = node.alive.copy()
        entries = np.flatnonzero(kept[descendant])
        if counters is not None:
            counters.residual_checks += len(entries)
        if not len(entries):
            continue
        pointer = entries
        current = descendant
        while current != ancestor:
            pointer = factorized.node(current).parent_ptr[pointer]
            current = query.parent(current)
        values_desc = _base_values(
            catalog, descendant, desc_attr, node.rows[entries], kernels
        )
        values_anc = _base_values(
            catalog, ancestor, anc_attr,
            factorized.node(ancestor).rows[pointer], kernels,
        )
        match = kernels.equal_mask(values_desc, values_anc)
        kept[descendant][entries[~np.asarray(match, dtype=bool)]] = False
    for descendant, mask in kept.items():
        node = factorized.node(descendant)
        factorized.kill(descendant, np.flatnonzero(node.alive & ~mask))
    return remaining


def _row_batches(rows_by_relation, batch_rows):
    """Slice a flat row frame into zero-copy row-range batches."""
    if not rows_by_relation:
        return
    n = len(next(iter(rows_by_relation.values())))
    for start in range(0, n, batch_rows):
        yield {
            rel: rows[start:start + batch_rows]
            for rel, rows in rows_by_relation.items()
        }


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def execute_cyclic(
    catalog,
    plan,
    mode=ExecutionMode.COM,
    order=None,
    collect_output=False,
    expansion_batch=8192,
    max_intermediate_tuples=50_000_000,
    child_orders=None,
    execution="auto",
    driver_rows=None,
):
    """Evaluate a (possibly cyclic) plan: tree join + residual filters.

    Returns ``(output_size, execution_result, output_rows)``; the
    execution result carries the tree-join counters plus
    ``residual_checks`` / ``residual_input_tuples``.  Under factorized
    modes, residuals whose relations share a root-to-leaf tree path are
    applied to factorized *entries* before expansion
    (:func:`_push_down_residuals`) — the doomed combinations never
    multiply out — and only cross-branch residuals are filtered
    batch-at-a-time on the expanded result.  Flat modes filter all
    residuals on the materialized frame (there is no factorized output
    for cyclic queries — residual predicates break factorization).

    Both pipeline families account the residual stage identically: the
    pre-filter expanded tuples are counted as ``tuples_generated``
    exactly once (the flat pipeline materializes them at its last join;
    the factorized pipeline counts the expansion step, same as an
    acyclic ``flat_output`` run), and each residual comparison bumps
    ``residual_checks``.  Works on hash-partitioned catalogs: engine
    results report base row ids, and residual values are gathered in
    base-row-id space.  ``execution`` selects the kernel path for both
    the tree join and the residual stage (see
    :func:`repro.engine.executor.execute`); ``driver_rows`` restricts
    the tree join to a subset of root rows (the distributed scatter
    path — residual filtering is per-tuple, so it decomposes over any
    driver partition).
    """
    from ..engine.executor import BudgetExceededError, execute
    from ..engine.kernels import get_kernels, resolve_execution

    mode = ExecutionMode(mode)
    execution = resolve_execution(execution)
    kernels = get_kernels(execution)
    query = plan.query
    if not plan.residuals:
        result = execute(
            catalog, query, order, mode,
            flat_output=True, collect_output=collect_output,
            child_orders=child_orders,
            expansion_batch=expansion_batch,
            max_intermediate_tuples=max_intermediate_tuples,
            execution=execution,
            driver_rows=driver_rows,
        )
        return result.output_size, result, result.output_rows

    if mode.factorized:
        # Run the tree join factorized, then filter during expansion.
        result = execute(
            catalog, query, order, mode,
            flat_output=False, collect_output=False,
            child_orders=child_orders,
            max_intermediate_tuples=max_intermediate_tuples,
            execution=execution,
            driver_rows=driver_rows,
        )
        # Root-to-leaf residuals filter factorized entries before they
        # multiply out; only cross-branch residuals still need the
        # expanded batches below.
        residuals = _push_down_residuals(
            catalog, plan.residuals, result.factorized,
            counters=result.counters, kernels=kernels,
        )
        weights = result.factorized.subtree_weights()
        pre_filter = result.factorized.count_rows(weights)
        if pre_filter > max_intermediate_tuples:
            raise BudgetExceededError(
                str(mode), "<expansion>", pre_filter, max_intermediate_tuples
            )
        # Same accounting as the acyclic expansion step: every expanded
        # (pre-filter) tuple is generated work.
        result.counters.tuples_generated += pre_filter
        batches = result.factorized.expand(
            batch_entries=expansion_batch, max_rows=4_000_000,
            kernels=kernels, weights=weights,
        )
    else:
        # Flat pipelines materialize the full frame at their last join
        # regardless (and count it as tuples_generated there); the
        # residual stage then filters row-range views batch-at-a-time
        # instead of materializing a filtered copy just to count.
        result = execute(
            catalog, query, order, mode,
            flat_output=True, collect_output=True,
            child_orders=child_orders,
            expansion_batch=expansion_batch,
            max_intermediate_tuples=max_intermediate_tuples,
            execution=execution,
            driver_rows=driver_rows,
        )
        residuals = list(plan.residuals)
        pre_filter = result.output_size
        batches = _row_batches(result.output_rows or {}, expansion_batch)

    result.counters.residual_input_tuples += pre_filter
    result.counters.note_intermediate(pre_filter, stage="<residuals>")
    total = 0
    collected = [] if collect_output else None
    for batch in batches:
        batch_size, filtered = _filter_batch(
            catalog, residuals, batch,
            counters=result.counters, collect=collect_output,
            kernels=kernels,
        )
        total += batch_size
        if collected is not None and batch_size:
            collected.append(filtered)

    output_rows = None
    if collect_output:
        if collected:
            output_rows = {
                rel: np.concatenate([b[rel] for b in collected])
                for rel in collected[0]
            }
        else:
            output_rows = {
                rel: np.empty(0, dtype=np.int64) for rel in query.relations
            }
    result.output_size = total
    result.output_rows = output_rows
    return total, result, output_rows
