"""The vectorized left-deep pipeline executor (Section 4).

:func:`execute` runs a join order under any of the six strategies of
Section 4.1 (STD, COM, BVP+STD, BVP+COM, SJ+STD, SJ+COM) and returns an
:class:`ExecutionResult` carrying the output plus the paper's abstract
cost metrics: hash-table probes (per relation), bitvector probes,
semi-join probes and tuples generated.

All strategies produce identical flat results — the integration tests
verify this against a brute-force evaluator — and differ only in how
much intermediate work they perform, which is precisely what the
paper's evaluation measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.costmodel import CostWeights
from ..modes import ExecutionMode
from .bitvector import BitvectorFilter
from .factorized import FactorizedResult, concat_batches
from .kernels import get_kernels, resolve_execution
from .semijoin import full_reduction

__all__ = [
    "BudgetExceededError",
    "ExecutionCounters",
    "ExecutionResult",
    "execute",
]


class BudgetExceededError(RuntimeError):
    """Raised when an execution exceeds ``max_intermediate_tuples``.

    The paper's experiments report timed-out queries (mostly STD
    variants whose intermediate results explode); this exception is the
    reproduction's equivalent of such a timeout.
    """

    def __init__(self, mode, relation, size, budget):
        super().__init__(
            f"{mode}: intermediate result reached {size} tuples at join "
            f"with {relation!r} (budget {budget})"
        )
        self.mode = mode
        self.relation = relation
        self.size = size
        self.budget = budget


@dataclass
class ExecutionCounters:
    """Operation counts accumulated during one execution."""

    hash_probes: int = 0
    bitvector_probes: int = 0
    semijoin_probes: int = 0
    tuples_generated: int = 0
    #: residual-filter key comparisons (cyclic plans only; progressive,
    #: so filter k only counts the tuples filters 1..k-1 kept)
    residual_checks: int = 0
    #: flat tuples that entered the residual-filter stage (cyclic plans
    #: only) — the observed residual selectivity is
    #: ``output_size / residual_input_tuples``
    residual_input_tuples: int = 0
    #: high-water mark of materialized intermediate tuples (widest join
    #: frame / factorized node / pre-filter expansion / wcoj frontier);
    #: a size, not work, so it carries no weight in :meth:`weighted_cost`
    peak_intermediate_tuples: int = 0
    hash_probes_by_relation: dict = field(default_factory=dict)
    #: per-stage intermediate-tuple totals, keyed by the stage label
    #: passed to :meth:`note_intermediate` (the joined relation for
    #: pipeline joins, ``"<residuals>"`` for the cyclic pre-filter
    #: expansion).  Additive over disjoint driver partitions, which is
    #: what lets a distributed gather reconstruct the single-process
    #: ``peak_intermediate_tuples`` exactly: each labeled stage runs
    #: once per execution, so the merged peak is the max of the summed
    #: per-stage totals.  Unlabeled notes (wcoj frontiers) update only
    #: the peak.
    intermediate_tuples_by_stage: dict = field(default_factory=dict)

    def note_intermediate(self, size, stage=None):
        """Record an intermediate materialization high-water mark."""
        if size > self.peak_intermediate_tuples:
            self.peak_intermediate_tuples = int(size)
        if stage is not None:
            self.intermediate_tuples_by_stage[stage] = (
                self.intermediate_tuples_by_stage.get(stage, 0) + int(size)
            )

    def count_hash_probes(self, relation, probes):
        self.hash_probes += probes
        self.hash_probes_by_relation[relation] = (
            self.hash_probes_by_relation.get(relation, 0) + probes
        )

    def weighted_cost(self, weights=CostWeights()):
        """Scalar cost under the paper's probe weights (Section 5.4)."""
        return (
            weights.hash_probe * self.hash_probes
            + weights.bitvector_probe * self.bitvector_probes
            # residual checks are one vectorized key comparison each —
            # priced like a semi-join probe, matching the planner's
            # residual_filter_cost term
            + weights.semijoin_probe
            * (self.semijoin_probes + self.residual_checks)
            + weights.tuple_generation * self.tuples_generated
        )


@dataclass
class ExecutionResult:
    """Outcome of one query execution."""

    mode: ExecutionMode
    order: list
    output_size: int
    counters: ExecutionCounters
    wall_time: float
    #: flat output rows ({relation: row-index array}) if collected
    output_rows: dict = None
    #: the factorized result object (COM variants) if kept
    factorized: FactorizedResult = None
    #: wall time of the phase-2 hash-index build
    index_build_seconds: float = 0.0
    #: wall time of the phase-1 semi-join reduction (SJ variants)
    reduction_seconds: float = 0.0
    #: largest shard count among the probe targets partitioned on the
    #: attribute they are probed on (1 = none is)
    shards_used: int = 1
    #: resolved kernel path the run used ("vectorized" / "interpreted")
    execution: str = "vectorized"

    def weighted_cost(self, weights=CostWeights()):
        return self.counters.weighted_cost(weights)


def _bitvector_check_schedule(query, order):
    """When each relation's bitvector is applied on the probe side.

    Identical scheduling to the cost model
    (:func:`repro.core.costmodel._bvp_check_schedule`): a bitvector is
    checked as soon as its parent attribute is available.
    """
    checks_after = {"scan": []}
    for relation in order:
        checks_after[relation] = []
    for relation in order:
        parent = query.parent(relation)
        event = "scan" if parent == query.root else parent
        checks_after[event].append(relation)
    return checks_after


def _build_bitvectors(query, catalog, reduction=None, num_bits=None):
    """One bitvector per non-root relation, over its build-side keys."""
    filters = {}
    for edge in query.edges:
        table = catalog.table(edge.child)
        keys = table.column(edge.child_attr)
        if reduction is not None:
            keys = keys[reduction.rows(edge.child)]
        filters[edge.child] = BitvectorFilter(keys, num_bits=num_bits)
    return filters


def _remap_factorized_rows(result, catalog, kernels):
    """Translate a finished factorized result to base-table row ids.

    During the pipeline, node rows are physical (re-clustered) ids —
    probes fetch key values through them.  Once every join and check
    has run they are pure payload, so mapping them through
    ``original_rows`` (the identity for ordinary tables) makes every
    expansion path — ``expand``, ``expand_all``,
    ``expand_depth_first`` — yield the same layout-independent ids as
    ``output_rows``.  A leaf still holding its probe maps its rows when
    it builds them.
    """
    for relation, node in result.nodes.items():
        node.to_base_rows(kernels, catalog.table(relation))


def _build_indexes(query, catalog, reduction=None):
    """Hash index per non-root relation on its join attribute."""
    indexes = {}
    for edge in query.edges:
        if reduction is not None:
            indexes[edge.child] = reduction.reduced_index(
                catalog, edge.child, edge.child_attr
            )
        else:
            indexes[edge.child] = catalog.hash_index(edge.child, edge.child_attr)
    return indexes


def _shards_used(query, catalog):
    """Largest shard count among the probe targets partitioned on the
    attribute they are probed on (1 when none is)."""
    shards = 1
    for edge in query.edges:
        table = catalog.table(edge.child)
        if getattr(table, "shard_key", None) == edge.child_attr:
            shards = max(shards, table.num_shards)
    return shards


# ----------------------------------------------------------------------
# COM (factorized) pipeline
# ----------------------------------------------------------------------


def _run_factorized(query, catalog, order, indexes, bitvectors, checks_after,
                    counters, budget, driver_rows, kernels):
    result = FactorizedResult(query, driver_rows)

    def probe_keys(edge):
        """The parent node's alive entries (``None``: all of them, in
        order) and their join keys."""
        parent_node = result.node(edge.parent)
        probed, rows = None, parent_node.rows
        if parent_node.dead:
            probed = parent_node.alive_indices()
            rows = rows.take(probed)
        return probed, catalog.table(edge.parent).column(edge.parent_attr)[rows]

    def kill_failed(edge, probed, passed):
        """Kill the probed entries ``passed`` (aligned with the keys)
        rejects."""
        if not passed.all():
            failed = np.flatnonzero(~passed)
            result.kill(edge.parent,
                        failed if probed is None else probed.take(failed))

    def apply_check(relation_checked):
        edge = query.edge_to(relation_checked)
        probed, keys = probe_keys(edge)
        counters.bitvector_probes += len(keys)
        kill_failed(edge, probed, kernels.bitvector_contains(
            bitvectors[relation_checked], keys))

    if bitvectors is not None:
        for relation in checks_after["scan"]:
            apply_check(relation)

    for relation in order:
        edge = query.edge_to(relation)
        probed, keys = probe_keys(edge)
        counters.count_hash_probes(relation, len(keys))
        lookup = kernels.lookup(indexes[relation], keys)
        total_matches = int(lookup.counts.sum())
        if total_matches > budget:
            raise BudgetExceededError("COM", relation, total_matches, budget)
        if query.is_leaf(relation):
            # no later step probes from a leaf: it stays the probe's
            # ranges until something reads its entries
            result.add_leaf(relation, lookup, probed=probed)
        else:
            lineage, matches = lookup.fan_out()
            result.add_node(
                relation, matches,
                lineage if probed is None else probed.take(lineage),
                probed=probed, counts=lookup.counts,
            )
        counters.tuples_generated += total_matches
        counters.note_intermediate(total_matches, stage=relation)
        kill_failed(edge, probed, lookup.matched_mask)
        if bitvectors is not None:
            for pending in checks_after[relation]:
                apply_check(pending)
    return result


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def execute(
    catalog,
    query,
    order=None,
    mode=ExecutionMode.COM,
    *,
    flat_output=True,
    collect_output=False,
    child_orders=None,
    bitvector_bits=None,
    max_intermediate_tuples=50_000_000,
    execution="auto",
    driver_rows=None,
):
    """Execute ``query`` in the given join ``order`` under ``mode``.

    Parameters
    ----------
    order:
        A precedence-respecting permutation of the non-root relations
        (default: the query's declaration order).
    flat_output:
        If True, COM variants pay the final expansion step: the flat
        tuples are budgeted and counted (``tuples_generated``), and
        generated only when ``collect_output`` keeps them.  STD
        variants always produce flat output.
    collect_output:
        Keep the output row indices on the result (memory permitting);
        the counters and ``output_size`` do not depend on it.
    child_orders:
        SJ variants: per-internal-relation semi-join child order
        (default: query declaration order; the optimizer supplies the
        increasing-``m'`` order).
    bitvector_bits:
        BVP variants: bit-table size override (power of two).
    max_intermediate_tuples:
        Abort with :class:`BudgetExceededError` beyond this size — the
        reproduction's equivalent of the paper's query timeouts.
    execution:
        ``"vectorized"`` (NumPy kernels, the default resolution),
        ``"interpreted"`` (the pure-Python tuple-at-a-time oracle) or
        ``"auto"`` (the :data:`~repro.engine.kernels.REPRO_EXECUTION`
        environment override, else vectorized).  Both paths produce
        bit-identical results and :class:`ExecutionCounters`.
    driver_rows:
        Optional subset of root-relation row ids to drive the pipeline
        with (default: every root row).  Semi-join variants intersect
        the subset with the phase-1 reduction, preserving reduction
        order.  The distributed scatter path partitions the driver row
        set across workers through this parameter; executing each
        disjoint subset and merging is exactly equivalent to one run
        over the union.
    """
    start = time.perf_counter()
    result = _run_pipeline(
        catalog, query, order, mode, collect_output, child_orders,
        bitvector_bits, max_intermediate_tuples, execution, driver_rows,
    )
    factorized = result.factorized
    if factorized is not None:
        # one bottom-up pass serves the count and the row-capped expansion
        weights = factorized.subtree_weights()
        result.output_size = factorized.count_rows(weights)
        if flat_output:
            # Expansion step: every flat tuple is budgeted and counted
            # as work, but generated only when kept — a count-only run
            # stops at the count, as the flat driver's last step does.
            if result.output_size > max_intermediate_tuples:
                raise BudgetExceededError(
                    str(result.mode), "<expansion>", result.output_size,
                    max_intermediate_tuples,
                )
            result.counters.tuples_generated += result.output_size
            if collect_output:
                result.output_rows = concat_batches(
                    list(factorized.expand(
                        kernels=get_kernels(result.execution),
                        weights=weights)),
                    query.relations,
                )
    result.wall_time = time.perf_counter() - start
    return result


def _run_pipeline(catalog, query, order, mode, collect_output, child_orders,
                  bitvector_bits, max_intermediate_tuples, execution,
                  driver_rows):
    """:func:`execute` up to the output.  A factorized run is returned
    uncounted (``output_size`` ``None``): a cyclic run counts it once,
    after pushing residuals into it."""
    mode = ExecutionMode(mode)
    execution = resolve_execution(execution)
    kernels = get_kernels(execution)
    if order is None:
        order = list(query.non_root_relations)
    query.validate_order(order)
    counters = ExecutionCounters()
    start = time.perf_counter()

    reduction = None
    reduction_seconds = 0.0
    if mode.uses_semijoin:
        reduction = full_reduction(query, catalog, child_orders=child_orders,
                                   kernels=kernels)
        counters.semijoin_probes += reduction.semijoin_probes
        reduction_seconds = time.perf_counter() - start

    build_start = time.perf_counter()
    indexes = _build_indexes(query, catalog, reduction)
    index_build_seconds = time.perf_counter() - build_start
    shards_used = _shards_used(query, catalog)
    bitvectors = None
    checks_after = None
    if mode.uses_bitvectors:
        bitvectors = _build_bitvectors(query, catalog, num_bits=bitvector_bits)
        checks_after = _bitvector_check_schedule(query, order)

    if reduction is not None:
        rows = reduction.rows(query.root)
        if driver_rows is not None:
            # keep the reduction's (ascending) order; drop rows outside
            # the requested driver subset
            mask = np.zeros(len(catalog.table(query.root)), dtype=bool)
            mask[np.asarray(driver_rows, dtype=np.int64)] = True
            rows = rows[mask[rows]]
        driver_rows = rows
    elif driver_rows is not None:
        driver_rows = np.asarray(driver_rows, dtype=np.int64)
    elif mode.factorized or bitvectors is not None or not order:
        driver_rows = np.arange(len(catalog.table(query.root)), dtype=np.int64)

    output_rows = None
    factorized = None
    if mode.factorized:
        factorized = _run_factorized(
            query, catalog, order, indexes, bitvectors, checks_after,
            counters, max_intermediate_tuples, driver_rows, kernels,
        )
        # rewrites row ids, not liveness: the caller's count is the same
        _remap_factorized_rows(factorized, catalog, kernels)
        output_size = None
    else:
        frame, output_size = _run_flat_driver(
            query, catalog, order, indexes, bitvectors, checks_after,
            counters, max_intermediate_tuples, driver_rows, kernels,
            keep_rows=collect_output,
        )
        if collect_output:
            # Partitioned tables re-cluster rows; translate collected
            # row ids back to base-table ids so results are
            # layout-independent (the identity for ordinary tables).
            # The factorized branch already remapped its node rows.
            output_rows = {
                rel: kernels.original_rows(catalog.table(rel), rows)
                for rel, rows in frame.items()
            }

    wall_time = time.perf_counter() - start
    return ExecutionResult(
        mode=mode,
        order=list(order),
        output_size=output_size,
        counters=counters,
        wall_time=wall_time,
        output_rows=output_rows,
        factorized=factorized,
        index_build_seconds=index_build_seconds,
        reduction_seconds=reduction_seconds,
        shards_used=shards_used,
        execution=execution,
    )


def _run_flat_driver(query, catalog, order, indexes, bitvectors, checks_after,
                     counters, budget, driver_rows, kernels, keep_rows=True):
    """STD pipeline starting from a driver row set; returns ``(frame,
    output size)``.

    ``driver_rows=None`` drives every root row without materializing
    the identity: the first step probes the root key column itself, and
    its lineage *is* the root's frame column (BVP runs, which filter
    the frame before any step, pass the rows explicitly).  With
    ``keep_rows=False`` (output rows not collected) a last step no
    bitvector check follows only counts its matches — the frame it
    would build is never read — and the frame returned is ``None``.
    """
    frame = {}
    if driver_rows is not None:
        frame[query.root] = np.asarray(driver_rows, dtype=np.int64)

    def apply_check(relation_checked):
        edge = query.edge_to(relation_checked)
        parent_rows = frame[edge.parent]
        keys = catalog.table(edge.parent).column(edge.parent_attr)[parent_rows]
        counters.bitvector_probes += len(keys)
        keep = kernels.bitvector_contains(bitvectors[relation_checked], keys)
        for rel in list(frame):
            frame[rel] = frame[rel][keep]

    if bitvectors is not None:
        for relation in checks_after["scan"]:
            apply_check(relation)

    for relation in order:
        edge = query.edge_to(relation)
        keys = catalog.table(edge.parent).column(edge.parent_attr)
        if edge.parent in frame:
            keys = keys[frame[edge.parent]]
        counters.count_hash_probes(relation, len(keys))
        lookup = kernels.lookup(indexes[relation], keys)
        total_matches = int(lookup.counts.sum())
        if total_matches > budget:
            raise BudgetExceededError("STD", relation, total_matches, budget)
        if not keep_rows and relation == order[-1] and not (
                bitvectors is not None and checks_after[relation]):
            counters.tuples_generated += total_matches
            counters.note_intermediate(total_matches, stage=relation)
            return None, total_matches
        lineage, matches = lookup.fan_out()
        frame = {rel: rows.take(lineage) for rel, rows in frame.items()}
        frame.setdefault(query.root, lineage)
        frame[relation] = matches
        counters.tuples_generated += len(matches)
        counters.note_intermediate(len(matches), stage=relation)
        if bitvectors is not None:
            for pending in checks_after[relation]:
                apply_check(pending)
    return frame, len(next(iter(frame.values())))
