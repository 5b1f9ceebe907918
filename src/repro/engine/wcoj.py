"""Worst-case-optimal (generic) join for residual-heavy cyclic cores.

:func:`execute_cyclic <repro.core.cyclic.execute_cyclic>` evaluates a
cyclic query as *tree join + residual filters*: the spanning tree runs
on the full engine and every residual predicate is re-applied to the
expanded flat result.  On dense cyclic graphs with skewed keys that
tree join materializes intermediates a worst-case-optimal evaluation
would never produce — the classic triangle-query blowup the generic
join (NPRR / LeapFrog TrieJoin family) avoids by joining one
*attribute* at a time instead of one relation at a time.

:func:`execute_wcoj` is that operator, built over the existing storage
structures and kernel split:

* **variables** are the equivalence classes of ``(relation, attribute)``
  pairs connected by the query's join predicates — tree edges and
  residuals alike, each applied exactly once (the edge XOR residual
  invariant the plan linter checks holds for both strategies);
* per relation, a *chain index* binds its attributes in the global
  variable order: after binding attribute ``k`` every row carries a
  dense group id for its value combination over the first ``k`` bound
  attributes, coded ``group_id * d + value_rank``.  Read as a CSR over
  the previous step's group ids, the codes answer prefix-extension
  scans; indexed by code, they answer membership probes — the
  intersection work of the generic join, vectorized and by direct
  address (one take per probe, no binary search);
* a member valued from another member of the same variable needs its
  value's rank in its own domain.  That rank is a take on a *rank map*
  (each source-domain rank → its target-domain rank, or ``-1``), so a
  candidate the level already holds as a rank is never hashed again;
* every other per-candidate step routes through the kernel object, so
  the operator has the same two data planes as the rest of the engine:
  the NumPy path and the pure-Python interpreted oracle produce
  bit-identical results and :class:`~repro.engine.executor.ExecutionCounters`.

The structures depend only on table contents and the plan's binding
sequence, so they are built once and cached on the table beside its
hash indexes (:meth:`~repro.storage.Catalog.table_structure`): per
``(relation, attribute)`` the sorted distinct values (the *domain*);
per ``(relation, binding sequence)`` the chain index; per pair of
members an assign or tree check joins, the rank map, in one slot under
the target's table that also holds the source table's content
fingerprint, so a write to the target drops it and a write to the
source rebuilds it in place.  Every rename of the table shares them,
and every write path that drops the table's hash indexes drops them
too.  A warm execution builds nothing.

Exactness mirrors the tree+filter strategy predicate for predicate:
a predicate the spanning tree covers compares keys with hash-index
probe semantics (a ``HashIndex`` lookup on the domain: the searchsorted
common dtype, lossy collisions resolve leftmost, NaN never matches), a
residual predicate compares with exact numeric semantics (the same
lookup when both sides are integers, ``find_positions_exact`` /
:func:`~repro.core.cyclic.exact_equal` otherwise), and values
*propagate* — a membership hit assigns the matched relation its own
stored value, which is what later predicates compare against.  That is
what makes results bit-identical to tree+filter even on NaN / bool /
``>= 2**53`` keys.  A rank map changes none of it: the target rank a
candidate's value finds, by probe or by exact search, depends only on
that value, so only on its source rank, and the map is built by
applying the op's own semantics once to the whole source domain.  (In
one integer or bool dtype the probe compares with no lossy cast, so
there probe semantics and exact equality are the same relation.)

A run that keeps no rows (``collect_output=False``) prices the final
expansion instead of listing it: after the last variable each frontier
entry stands for the product of its relations' group row counts, so
the output size and the counters the listing would add follow from
prefix sums of those products (:func:`_price_expansion`).

All structures are built from base-row-ordered columns
(:meth:`~repro.storage.table.Table.gather`), so results and counters are
independent of the catalog's physical layout (shard counts included).
"""

from __future__ import annotations

import time

import numpy as np

from ..modes import ExecutionMode
from ..storage.hashindex import HashIndex
from .executor import BudgetExceededError, ExecutionCounters, ExecutionResult
from .factorized import (
    EXPANSION_BATCH_ENTRIES,
    EXPANSION_MAX_ROWS,
    _weight_bounded_batches,
    concat_batches,
)
from .kernels import get_kernels, resolve_execution

__all__ = [
    "execute_wcoj",
    "plan_variable_order",
    "variable_classes",
]


def variable_classes(predicates):
    """The join variables of a predicate set.

    ``predicates`` is an iterable of the parser's 4-tuples
    ``(rel_a, attr_a, rel_b, attr_b)`` (tree edges and residuals
    together).  Returns a list of *classes* — tuples of sorted
    ``(relation, attribute)`` members transitively connected by
    predicates — in canonical (sorted) order.  Each class is one
    variable of the generic join: all its members must hold equal
    values in every result tuple.
    """
    parent = {}

    def find(member):
        while parent[member] != member:
            parent[member] = parent[parent[member]]
            member = parent[member]
        return member

    for rel_a, attr_a, rel_b, attr_b in predicates:
        a, b = (rel_a, attr_a), (rel_b, attr_b)
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_a] = root_b
    groups = {}
    for member in sorted(parent):
        groups.setdefault(find(member), []).append(member)
    return [tuple(members) for members in sorted(groups.values())]


def plan_variable_order(classes, distincts):
    """A deterministic greedy variable-elimination order.

    Starts at the globally smallest variable (minimum distinct count
    over its members), then repeatedly picks the cheapest variable that
    shares a relation with an already-bound one (falling back to the
    global minimum when none connects), ties broken on the canonical
    member rendering.  ``distincts`` maps ``(relation, attribute)`` to
    a (possibly estimated) distinct-value count; the executor derives
    it from the actual per-attribute uniques, the planner from cached
    statistics — any order is *correct*, the heuristic only shapes the
    frontier sizes.
    """
    remaining = list(range(len(classes)))
    bound_rels = set()
    order = []
    while remaining:
        def rank(index):
            members = classes[index]
            connected = any(rel in bound_rels for rel, _ in members)
            smallest = min(distincts.get(m, 0) for m in members)
            return (bool(order) and not connected, smallest, members)

        pick = min(remaining, key=rank)
        remaining.remove(pick)
        order.append(classes[pick])
        bound_rels.update(rel for rel, _ in classes[pick])
    return tuple(order)


class _Level:
    """The per-variable micro-plan: expand one member, check the rest."""

    __slots__ = ("members", "ops")

    def __init__(self, members, ops):
        self.members = members
        #: ordered micro-ops:
        #: ``("expand", member)`` — enumerate candidate values of a
        #: member (constrained by its relation's chain group when the
        #: relation is already bound);
        #: ``("assign", kind, source, target)`` — one-to-one membership
        #: assignment of an unvalued member from a valued one;
        #: ``("check", kind, parent_member, child_member)`` — pairwise
        #: filter between two valued members.
        self.ops = ops


def _plan_levels(order, predicates, distincts):
    """One :class:`_Level` per variable of ``order``.

    ``predicates`` is a list of ``(key4, kind)`` with ``kind`` in
    ``("tree", "residual")``.  Predicate semantics dictate the op
    shapes:

    * a *tree* predicate carries hash-index probe semantics, which are
      **directional** — parent values probe the child's key set, and a
      lossy-upcast collision resolves to the child's leftmost colliding
      key.  It may therefore only ``assign`` parent→child; with both
      ends already valued it becomes a collision-aware ``check``
      (probe position must equal the child's assigned value rank).
    * a *residual* predicate is exact numeric equality — symmetric, and
      one-to-one on a unique-value array (two distinct stored values of
      one dtype cannot both exactly equal the same number), so it may
      ``assign`` in either direction or ``check`` pairwise.

    When no predicate can value a remaining member (e.g. a tree child
    is valued but its parent is not), a secondary ``expand`` enumerates
    a deterministically-chosen unvalued member and the blocked
    predicates become checks.  Expansion choices prefer already-bound
    relations, then members that are not tree children (so the common
    two-member tree class expands at the parent and assigns forward),
    then small distinct counts, with a canonical tie-break.
    """
    member_class = {
        member: index
        for index, members in enumerate(order)
        for member in members
    }
    class_predicates = [[] for _ in order]
    for key, kind in predicates:
        class_predicates[member_class[(key[0], key[1])]].append((key, kind))

    bound_rels = set()
    levels = []
    for index, members in enumerate(order):
        ranked = sorted(
            class_predicates[index],
            key=lambda entry: (entry[1] != "tree", entry[0]),
        )
        tree_children = {
            (key[2], key[3]) for key, kind in ranked if kind == "tree"
        }

        def expand_rank(member):
            return (
                member[0] not in bound_rels,
                member in tree_children,
                distincts.get(member, 0),
                member,
            )

        ops = []
        valued = set()
        pending = list(ranked)
        ops.append(("expand", min(members, key=expand_rank)))
        valued.add(ops[0][1])
        while True:
            progressed = False
            for position, (key, kind) in enumerate(pending):
                parent_m = (key[0], key[1])
                child_m = (key[2], key[3])
                if parent_m in valued and child_m in valued:
                    ops.append(("check", kind, parent_m, child_m))
                elif kind == "tree":
                    if parent_m in valued:
                        ops.append(("assign", kind, parent_m, child_m))
                        valued.add(child_m)
                    else:
                        continue
                elif parent_m in valued:
                    ops.append(("assign", kind, parent_m, child_m))
                    valued.add(child_m)
                elif child_m in valued:
                    ops.append(("assign", kind, child_m, parent_m))
                    valued.add(parent_m)
                else:
                    continue
                pending.pop(position)
                progressed = True
                break
            if progressed:
                continue
            unvalued = [m for m in members if m not in valued]
            if not unvalued:
                break
            pick = min(unvalued, key=expand_rank)
            ops.append(("expand", pick))
            valued.add(pick)
        levels.append(_Level(tuple(members), tuple(ops)))
        bound_rels.update(rel for rel, _ in members)
    return levels


def _base_column(table, attr):
    """A column in base-row order (layout-independent structure build)."""
    return table.gather(
        np.arange(len(table), dtype=np.int64), columns=[attr]
    )[attr]


class _Step:
    """One step of a chain index: a relation binding its next attribute.

    Each row's code ``prefix group * d + value rank`` (``d`` is the
    attribute's distinct count) is re-densified into the step's group
    ids — group ``j`` is the ``j``-th smallest distinct code — so codes
    never exceed ``|R| ** 2`` and int64 never overflows.  The step keeps
    only the view of those codes its binding probes, by direct address
    either way:

    * an *assigned* attribute keeps ``codes``, a :class:`HashIndex`
      keyed by code: a membership probe answers the group id of a
      (prefix group, rank) pair, or a miss;
    * an *expanded* attribute keeps ``offsets``, the code table read as
      a CSR over the previous step's group ids — group ``g`` extends
      into groups ``offsets[g] … offsets[g + 1]``, the code table's
      offsets at ``g * d`` and ``(g + 1) * d`` (group ids are dense, so
      :meth:`HashIndex._dense_fits` always admits this table) — and
      ``ranks``, each group's value rank (``code % d``).
    """

    __slots__ = ("codes", "offsets", "ranks")

    def __init__(self, codes, distinct, groups_before, expanded):
        self.codes = self.offsets = self.ranks = None
        if not expanded:
            self.codes = HashIndex(codes)
            return
        prefixes, ranks = np.divmod(codes, max(distinct, 1))
        self.offsets = np.zeros(groups_before + 1,
                                dtype=np.min_scalar_type(len(codes)))
        np.cumsum(np.bincount(prefixes, minlength=groups_before),
                  out=self.offsets[1:])
        self.ranks = ranks.astype(np.min_scalar_type(max(distinct - 1, 0)))


class _Chain:
    """A relation's chain index for one binding sequence: one
    :class:`_Step` per bound attribute, then the base rows grouped by
    their final group id (``rows``, the expansion probe) and the row
    count per final group (``counts``)."""

    __slots__ = ("steps", "rows", "counts")

    def __init__(self, steps, groups):
        self.steps = steps
        self.rows = HashIndex(groups)
        counts = np.bincount(groups)
        self.counts = counts.astype(np.min_scalar_type(counts.max(initial=0)))


def _build_chain(table, binding):
    groups = np.zeros(len(table), dtype=np.int64)
    groups_before = 1
    steps = []
    for attr, op in binding:
        values, ranks = np.unique(_base_column(table, attr),
                                  return_inverse=True)
        codes_per_row = groups * np.int64(len(values)) + ranks
        codes = np.unique(codes_per_row)
        groups = np.searchsorted(codes, codes_per_row)
        steps.append(_Step(codes, len(values), groups_before,
                           op == "expand"))
        groups_before = len(codes)
    return _Chain(tuple(steps), groups)


def _domain(catalog, rel, attr):
    """The sorted distinct values of ``rel.attr`` (cached); a member's
    value rank is its position here."""
    return catalog.table_structure(
        rel, ("wcoj.domain", attr),
        lambda table: np.unique(_base_column(table, attr)),
    )


def _build_rank_map(kernels, exact, source_domain, target_domain):
    """Per position of ``source_domain``, the position of the same value
    in ``target_domain``, ``-1`` where it has none: under exact numeric
    semantics (``exact``) or hash-index probe semantics."""
    if exact:
        return kernels.find_positions_exact(target_domain, source_domain)
    return _positions(kernels, HashIndex(target_domain), source_domain)


def _rank_map(catalog, kernels, kind, source, target):
    """The rank map an ``assign`` or tree ``check`` of ``kind`` reads to
    find a ``source`` candidate's rank in ``target``'s domain: per
    source-domain rank, the rank its value finds in the target domain,
    ``-1`` on a miss.  A residual int/float mix searches exactly (the
    probe's common-dtype compare is lossy there); every other pair
    probes, which in one integer or bool dtype is exact equality.

    Cached in one slot per ``(semantics, target attribute, source
    member)`` under the target's table, beside the source table's
    content fingerprint it was built from: a write to the target drops
    the slot, and a write to the source (or another binding of a
    filtered source) rebuilds the map in place, so superseded maps
    never pile up."""
    source_domain, target_domain = (_domain(catalog, *source),
                                    _domain(catalog, *target))
    exact = kind == "residual" and not (source_domain.dtype.kind in "biu"
                                        and target_domain.dtype.kind in "biu")
    slot = catalog.table_structure(
        target[0], ("wcoj.rank_map", exact, target[1], *source),
        lambda _: [None],
    )
    fingerprint = catalog.table(source[0]).fingerprint()
    entry = slot[0]
    if entry is None or entry[0] != fingerprint:
        entry = slot[0] = (fingerprint, _build_rank_map(
            kernels, exact, source_domain, target_domain))
    return entry[1]


def _chain(catalog, rel, binding):
    """The cached :class:`_Chain` of ``rel`` for ``binding``, its
    ``(attribute, "expand" | "assign")`` pairs in binding order."""
    return catalog.table_structure(
        rel, ("wcoj.chain", binding),
        lambda table: _build_chain(table, binding),
    )


def _positions(kernels, index, keys):
    """Per key, its position among a sorted-unique index's keys, ``-1``
    on a miss — hash-index probe semantics (the searchsorted common
    dtype, a lossy-cast collision resolves to the leftmost key, NaN
    never matches).  Every group holds one row, and row ``j`` is the
    ``j``-th key, so a hit's single matching row *is* its position."""
    lookup = kernels.lookup(index, keys)
    positions = np.full(len(lookup), -1, dtype=np.int64)
    positions[lookup.matched_mask] = lookup.matching_rows()
    return positions


def _price_expansion(counters, batches, row_counts, width):
    """Count the final expansion without listing it; returns its size.

    Adds exactly what listing the ``batches`` adds: per relation, one
    hash probe per partial tuple before it, its matches as
    ``tuples_generated``, and each batch's matches to the peak.  A
    partial tuple's matches are its frontier group's row count
    (``row_counts``: ``(relation, count per frontier entry)`` pairs in
    expansion order), so an entry's partial sizes are cumulative
    products of those counts and a batch's totals are differences of
    their prefix sums at the batch bounds.  Every group holds a row, so
    each partial product is at most the entry's weight, which the
    budget check bounded: int64 cannot overflow.
    """
    if not width:
        return 0
    bounds = np.array([0] + [end for _, end in batches], dtype=np.int64)
    partial = np.ones(width, dtype=np.int64)
    for rel, counts in row_counts:
        counters.count_hash_probes(rel, int(partial.sum()))
        partial = partial * counts
        per_batch = np.diff(np.concatenate(([0], np.cumsum(partial)))[bounds])
        counters.tuples_generated += int(per_batch.sum())
        counters.note_intermediate(int(per_batch.max()))
    return int(partial.sum())


def _list_expansion(kernels, counters, batches, expansion_order, frontier,
                    chains, relations):
    """List the final expansion, batch by batch: ``(size, rows)``."""
    output_size = 0
    collected = []
    for begin, end in batches:
        frame = {}
        pointer = np.arange(end - begin, dtype=np.int64)
        for rel in expansion_order:
            group_keys = frontier[rel][begin:end][pointer]
            counters.count_hash_probes(rel, len(group_keys))
            lineage, matches = kernels.lookup(
                chains[rel].rows, group_keys
            ).fan_out()
            frame = {other: rows.take(lineage)
                     for other, rows in frame.items()}
            frame[rel] = matches
            pointer = pointer.take(lineage)
            counters.tuples_generated += len(matches)
            counters.note_intermediate(len(matches))
        output_size += len(pointer)
        if len(pointer):
            collected.append(frame)
    return output_size, concat_batches(collected, relations)


def execute_wcoj(
    catalog,
    plan,
    mode=ExecutionMode.COM,
    order=None,
    collect_output=False,
    max_intermediate_tuples=50_000_000,
    variable_order=None,
    execution="auto",
):
    """Evaluate a cyclic plan with the worst-case-optimal strategy.

    Same calling convention and return shape as
    :func:`~repro.core.cyclic.execute_cyclic` —
    ``(output_size, execution_result, output_rows)`` — so
    :meth:`~repro.planner.PhysicalPlan.execute` can route either
    strategy.  ``mode`` and ``order`` are recorded on the result for
    plan compatibility but do not steer the evaluation: the operator
    joins one variable at a time, not one relation at a time.

    ``variable_order`` optionally pins the elimination order (the
    planner passes the order it costed, which plan fingerprints cover);
    ``None`` derives the same greedy order from the actual per-attribute
    distinct counts.  Any order over the query's variable classes is
    correct — a mismatched set of classes raises ``ValueError``.

    Counters: each level counts one ``hash_probe`` per frontier prefix
    against the expansion relation and every generated candidate as
    ``tuples_generated``; membership checks count per candidate —
    ``semijoin_probes`` for tree-covered predicates, ``residual_checks``
    for residual predicates (each predicate applied exactly once, same
    as tree+filter), though each reads its rank off a rank map.
    The final expansion mirrors the flat driver's accounting — per
    relation one ``hash_probe`` per partial tuple and its matches as
    ``tuples_generated`` — and a count-only run adds exactly those
    counts from chain row counts without listing a tuple.
    ``peak_intermediate_tuples`` tracks the widest candidate pool /
    frontier / expansion batch — the quantity the strategy exists to
    shrink.

    Value domains, chain indexes and rank maps come from the catalog's
    cache and are built only on a miss; ``index_build_seconds`` is the time spent
    fetching them — that miss's build time, and next to nothing on a
    warm execution.
    """
    mode = ExecutionMode(mode)
    execution = resolve_execution(execution)
    kernels = get_kernels(execution)
    query = plan.query
    start = time.perf_counter()
    counters = ExecutionCounters()

    predicates = [
        ((edge.parent, edge.parent_attr, edge.child, edge.child_attr),
         "tree")
        for edge in query.edges
    ]
    predicates += [(residual.key, "residual") for residual in plan.residuals]
    classes = variable_classes(key for key, _ in predicates)

    # -- value domains and chain indexes (cached on the catalog) -------
    build_start = time.perf_counter()
    domains = {
        member: _domain(catalog, *member)
        for members in classes for member in members
    }
    index_build_seconds = time.perf_counter() - build_start
    distincts = {member: len(domain) for member, domain in domains.items()}

    if variable_order is not None:
        supplied = [tuple(tuple(member) for member in members)
                    for members in variable_order]
        if sorted(supplied) != classes:
            raise ValueError(
                "variable_order does not cover this query's variable "
                f"classes: got {supplied}, expected {classes}"
            )
        resolved_order = tuple(supplied)
    else:
        resolved_order = plan_variable_order(classes, distincts)
    levels = _plan_levels(resolved_order, predicates, distincts)

    # each relation binds its attributes in the order the levels value
    # them; its chain index is keyed by that binding sequence.  Assigns
    # and tree checks read their target's rank off a rank map.
    bindings = {}
    for level in levels:
        for op in level.ops:
            if op[0] != "check":
                rel, attr = op[1] if op[0] == "expand" else op[3]
                bindings.setdefault(rel, []).append((attr, op[0]))
    build_start = time.perf_counter()
    chains = {
        rel: _chain(catalog, rel, tuple(binding))
        for rel, binding in bindings.items()
    }
    rank_maps = {
        op: _rank_map(catalog, kernels, *op[1:])
        for level in levels for op in level.ops
        if op[0] == "assign" or op[:2] == ("check", "tree")
    }
    index_build_seconds += time.perf_counter() - build_start
    steps = {
        (rel, attr): step
        for rel, binding in bindings.items()
        for (attr, _), step in zip(binding, chains[rel].steps)
    }

    # -- variable elimination ------------------------------------------
    frontier = {}  # relation -> dense group id per frontier prefix
    width = 1
    for level in levels:
        parent = np.arange(width, dtype=np.int64)
        new_groups = {}
        value_ranks = {}  # member -> its value's rank in its domain

        def current_group(rel):
            if rel in new_groups:
                return new_groups[rel]
            if rel in frontier:
                return frontier[rel][parent]
            return None

        for op in level.ops:
            if op[0] == "expand":
                member = op[1]
                rel = member[0]
                step = steps[member]
                counters.count_hash_probes(rel, len(parent))
                groups = current_group(rel)
                if groups is None:
                    # first binding of this relation: one prefix group
                    groups = np.zeros(len(parent), dtype=np.int64)
                starts = step.offsets.take(groups)
                counts = (step.offsets.take(groups + 1) - starts).astype(
                    np.int64
                )
                spread, positions = kernels.fan_out(starts, counts)
                rank = step.ranks[positions]
                parent = parent[spread]
                new_groups = {
                    r: g[spread] for r, g in new_groups.items()
                }
                value_ranks = {
                    m: r[spread] for m, r in value_ranks.items()
                }
                new_groups[rel] = positions
                value_ranks[member] = rank
                counters.tuples_generated += len(parent)
                counters.note_intermediate(len(parent))
                if len(parent) > max_intermediate_tuples:
                    raise BudgetExceededError(
                        "WCOJ", rel, len(parent), max_intermediate_tuples
                    )
            elif op[0] == "assign":
                _, kind, source, target = op
                if kind == "tree":
                    counters.semijoin_probes += len(parent)
                else:
                    counters.residual_checks += len(parent)
                rank = rank_maps[op].take(value_ranks[source])
                target_rel = target[0]
                previous = current_group(target_rel)
                if previous is None:
                    previous = np.zeros(len(parent), dtype=np.int64)
                code = previous * np.int64(distincts[target]) + rank
                support = _positions(kernels, steps[target].codes, code)
                keep = np.flatnonzero((rank >= 0) & (support >= 0))
                parent = parent[keep]
                new_groups = {
                    r: g[keep] for r, g in new_groups.items()
                }
                value_ranks = {
                    m: r[keep] for m, r in value_ranks.items()
                }
                new_groups[target_rel] = support[keep]
                value_ranks[target] = rank[keep]
            else:
                _, kind, parent_member, child_member = op
                if kind == "tree":
                    # collision-aware pairwise form of the hash probe:
                    # the parent value must land on the child's assigned
                    # rank (a lossy-upcast collision resolves leftmost,
                    # exactly as a HashIndex probe would)
                    counters.semijoin_probes += len(parent)
                    probe = rank_maps[op].take(value_ranks[parent_member])
                    keep = np.flatnonzero(
                        probe == value_ranks[child_member]
                    )
                else:
                    counters.residual_checks += len(parent)
                    match = kernels.equal_mask(
                        domains[parent_member][value_ranks[parent_member]],
                        domains[child_member][value_ranks[child_member]],
                    )
                    keep = np.flatnonzero(match)
                parent = parent[keep]
                new_groups = {
                    r: g[keep] for r, g in new_groups.items()
                }
                value_ranks = {
                    m: r[keep] for m, r in value_ranks.items()
                }

        frontier = {
            rel: groups[parent] for rel, groups in frontier.items()
            if rel not in new_groups
        }
        frontier.update(new_groups)
        width = len(parent)
        counters.note_intermediate(width)

    # -- final expansion (mirrors the flat driver's accounting) --------
    expansion_order = sorted(frontier)
    row_counts = [chains[rel].counts[frontier[rel]] for rel in expansion_order]
    weights = np.ones(width, dtype=np.float64)
    for counts in row_counts:
        weights *= counts
    total_estimate = float(weights.sum())
    if total_estimate > max_intermediate_tuples:
        raise BudgetExceededError(
            "WCOJ", "<expansion>", int(total_estimate),
            max_intermediate_tuples,
        )
    batches = _weight_bounded_batches(
        weights, EXPANSION_BATCH_ENTRIES, EXPANSION_MAX_ROWS)
    if collect_output:
        output_size, output_rows = _list_expansion(
            kernels, counters, batches, expansion_order, frontier, chains,
            query.relations)
    else:
        output_size, output_rows = _price_expansion(
            counters, batches, zip(expansion_order, row_counts), width), None

    shards_used = max(
        (getattr(catalog.table(rel), "num_shards", 1)
         for rel in query.relations),
        default=1,
    )
    result = ExecutionResult(
        mode=mode,
        order=list(order) if order is not None
        else list(query.non_root_relations),
        output_size=output_size,
        counters=counters,
        wall_time=time.perf_counter() - start,
        output_rows=output_rows,
        factorized=None,
        index_build_seconds=index_build_seconds,
        shards_used=shards_used,
        execution=execution,
    )
    return output_size, result, output_rows
