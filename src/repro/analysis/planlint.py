"""Static plan/spec verifier: pass-based checks over resolved plans.

Six PRs of growth made correctness rest on informal invariants — every
semantic knob must reach ``PhysicalPlan.fingerprint()`` and the plan
cache key, every parsed join predicate must be exactly one spanning-tree
edge XOR one residual, the resolved tree must actually be a tree rooted
at the driver.  This module checks those invariants *statically*:
:func:`verify_plan` walks a :class:`~repro.planner.PhysicalPlan` (and,
when available, the :class:`~repro.core.parser.ParsedQuery` it was
planned from) without executing anything, and :func:`verify_spec` does
the same for a shipped :class:`~repro.planner.PlanSpec` before
rehydration.

Checks are organized as passes (see :data:`PLAN_PASSES`); each pass
emits :class:`~repro.analysis.diagnostics.Diagnostic` values with stable
codes (registry in :mod:`repro.analysis.diagnostics`).  ``basic`` runs
the structural and metadata passes only; ``full`` adds the O(rows)
data scans (key-hazard detection, selection push-down audit,
base-row-id bijection) and the behavioral fingerprint-sensitivity
probe.

:class:`PlanVerifier` wraps the module functions with a per-fingerprint
verdict cache, which is what the planner/service wiring uses: a plan
(or its rehydrated twin — identical fingerprint by construction) is
verified once, and every warm-path repeat is a dictionary hit.
"""

from __future__ import annotations

import dataclasses
import inspect
from collections import Counter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Tuple

import numpy as np

from ..core.bounds import ROBUSTNESS_CHOICES
from ..core.cyclic import ResidualPredicate, tree_query_from_residuals
from ..core.lru import LRUCache
from ..core.parser import Contradiction, ParsedQuery, Placeholder, parse_query
from ..core.query import JoinQuery
from ..distributed.placement import PLACEMENT_CHOICES, ShardPlacement
from ..modes import ExecutionMode
from ..storage.partition import FLOAT_EXACT_MAX
from .diagnostics import (
    PlanVerificationError,
    VerificationResult,
    _Emitter,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..planner import PhysicalPlan, PlanSpec
    from ..storage.table import Catalog, Table

__all__ = [
    "PLAN_FINGERPRINT_COVERED",
    "PLAN_FINGERPRINT_EXEMPT",
    "PLAN_PASSES",
    "PlanVerifier",
    "SPEC_FINGERPRINT_COVERED",
    "SPEC_FINGERPRINT_EXEMPT",
    "VALIDATE_CHOICES",
    "verify_plan",
    "verify_spec",
]

#: accepted values of the ``validate`` knob
VALIDATE_CHOICES: Tuple[str, ...] = ("off", "basic", "full")

#: resolved execution paths a plan may carry (never the raw ``"auto"``)
_RESOLVED_EXECUTIONS: Tuple[str, ...] = ("vectorized", "interpreted")

#: resolved cyclic strategies a plan may carry (never the raw ``"auto"``)
_RESOLVED_CYCLIC_STRATEGIES: Tuple[str, ...] = ("tree_filter", "wcoj")

# ----------------------------------------------------------------------
# Fingerprint / cache-key coverage registries
# ----------------------------------------------------------------------
# The completeness contract: every field of PhysicalPlan / PlanSpec must
# be *explicitly* classified as either covered by the fingerprint or
# exempt (derived metadata that cannot change results given the covered
# fields).  A newly added field lands in neither set, and the
# fingerprint passes fail loudly until its author decides which it is.
# Planner knobs classify themselves: each repro.options.PlanOptions
# field's metadata says how it enters the plan-cache key, and FP003
# checks that cache_token() behaves accordingly.

#: PhysicalPlan fields hashed by ``fingerprint()``
PLAN_FINGERPRINT_COVERED: frozenset = frozenset({
    "query", "order", "mode", "child_orders", "residuals",
    "num_shards", "execution", "catalog",
    "cyclic_strategy", "wcoj_variable_order", "robustness",
    "placement", "num_workers",
})
#: PhysicalPlan fields that are derived metadata: fully determined by
#: the covered fields plus the cost model, or purely observational
PLAN_FINGERPRINT_EXEMPT: frozenset = frozenset({
    "stats", "predicted_cost", "weights", "residual_selectivities",
    "diagnostics", "prefix_bounds", "worst_case_bound", "search_tally",
})

#: PlanSpec fields a rehydrated plan's fingerprint covers
SPEC_FINGERPRINT_COVERED: frozenset = frozenset({
    "root", "order", "mode", "child_orders", "residuals",
    "num_shards", "execution", "catalog_fingerprint",
    "cyclic_strategy", "wcoj_variable_order", "robustness",
    "placement", "num_workers",
})
SPEC_FINGERPRINT_EXEMPT: frozenset = frozenset({
    "stats", "predicted_cost", "weights", "residual_selectivities",
    "prefix_bounds", "worst_case_bound",
})


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _undirected(rel_a: str, attr_a: str, rel_b: str, attr_b: str) -> tuple:
    """Canonical direction-independent key for an equality predicate."""
    if (rel_a, attr_a) <= (rel_b, attr_b):
        return (rel_a, attr_a, rel_b, attr_b)
    return (rel_b, attr_b, rel_a, attr_a)


def _tree_shape(root: str, edges: Iterable[Any]) -> tuple:
    """``(parent_of, children, relations)`` recomputed from raw edges.

    Deliberately ignores ``JoinQuery``'s internal maps so corrupted
    queries (built around the constructor's validation) are judged on
    the edge list alone.
    """
    parent_of: dict[str, str] = {}
    children: dict[str, list[str]] = {root: []}
    for edge in edges:
        parent_of.setdefault(edge.child, edge.parent)
        children.setdefault(edge.parent, []).append(edge.child)
        children.setdefault(edge.child, [])
    relations = {root} | set(parent_of)
    return parent_of, children, relations


def _check_tree(root: str, edges: list, emitter: _Emitter) -> bool:
    """PLAN001: the edge list forms a tree rooted at ``root``."""
    ok = True
    seen_children: set[str] = set()
    for edge in edges:
        if edge.child == root:
            emitter.error(
                "PLAN001",
                f"root {root!r} appears as the child of "
                f"{edge.parent!r}",
            )
            ok = False
        elif edge.child in seen_children:
            emitter.error(
                "PLAN001",
                f"relation {edge.child!r} has two parents",
            )
            ok = False
        seen_children.add(edge.child)
    _, children, relations = _tree_shape(root, edges)
    visited: set[str] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in visited:
            emitter.error(
                "PLAN001", f"cycle through relation {node!r}"
            )
            return False
        visited.add(node)
        stack.extend(children.get(node, ()))
    unreachable = relations - visited
    if unreachable:
        emitter.error(
            "PLAN001",
            f"relations not reachable from root {root!r}: "
            f"{sorted(unreachable)}",
        )
        ok = False
    return ok


def _check_order(root: str, edges: list, order: Iterable[str],
                 emitter: _Emitter) -> None:
    """PLAN002: precedence-respecting permutation of the non-root set."""
    parent_of, _, _ = _tree_shape(root, edges)
    order = list(order)
    if Counter(order) != Counter(parent_of.keys()):
        emitter.error(
            "PLAN002",
            f"order {order!r} is not a permutation of the non-root "
            f"relations {sorted(parent_of)}",
        )
        return
    placed = {root}
    for relation in order:
        parent = parent_of[relation]
        if parent not in placed:
            emitter.error(
                "PLAN002",
                f"{relation!r} is ordered before its parent {parent!r}",
            )
            return
        placed.add(relation)


def _check_child_orders(root: str, edges: list, child_orders: dict,
                        emitter: _Emitter) -> None:
    """PLAN003: child_orders consistent with the rooted tree."""
    _, children, relations = _tree_shape(root, edges)
    for relation, declared in (child_orders or {}).items():
        if relation not in relations:
            emitter.error(
                "PLAN003",
                f"child_orders names unknown relation {relation!r}",
            )
        elif Counter(declared) != Counter(children.get(relation, [])):
            emitter.error(
                "PLAN003",
                f"child_orders[{relation!r}] = {list(declared)!r} is "
                f"not a permutation of its children "
                f"{children.get(relation, [])!r}",
            )


def _dtype_kind(dtype: np.dtype) -> str:
    if np.issubdtype(dtype, np.bool_):
        return "bool"
    if np.issubdtype(dtype, np.integer):
        return "int"
    if np.issubdtype(dtype, np.floating):
        return "float"
    if (np.issubdtype(dtype, np.str_) or np.issubdtype(dtype, np.bytes_)
            or dtype == np.dtype(object)):
        return "str"
    return "other"


def _predicate_sides(plan: "PhysicalPlan") -> list:
    """All join predicates of the plan as (rel_a, attr_a, rel_b, attr_b)."""
    sides = [
        (edge.parent, edge.parent_attr, edge.child, edge.child_attr)
        for edge in plan.query.edges
    ]
    sides.extend(
        (res.relation_a, res.attr_a, res.relation_b, res.attr_b)
        for res in plan.residuals
    )
    return sides


# ----------------------------------------------------------------------
# Plan passes
# ----------------------------------------------------------------------


def _pass_structure(plan: "PhysicalPlan", source: Optional[ParsedQuery],
                    emitter: _Emitter, level: str) -> None:
    """Tree shape, join order, child_orders, resolved-knob validity."""
    edges = list(plan.query.edges)
    root = plan.query.root
    if _check_tree(root, edges, emitter):
        _check_order(root, edges, plan.order, emitter)
    _check_child_orders(root, edges, plan.child_orders or {}, emitter)
    if plan.residual_selectivities and \
            len(plan.residual_selectivities) != len(plan.residuals):
        emitter.error(
            "PLAN004",
            f"{len(plan.residual_selectivities)} residual "
            f"selectivities for {len(plan.residuals)} residuals",
        )
    try:
        ExecutionMode(plan.mode)
    except ValueError:
        emitter.error(
            "PLAN005", f"invalid execution mode {plan.mode!r}"
        )
    if plan.execution not in _RESOLVED_EXECUTIONS:
        emitter.error(
            "PLAN005",
            f"plan carries unresolved execution {plan.execution!r} "
            f"(expected one of {_RESOLVED_EXECUTIONS})",
        )
    if not isinstance(plan.num_shards, int) \
            or isinstance(plan.num_shards, bool) or plan.num_shards < 1:
        emitter.error(
            "PLAN005", f"invalid num_shards {plan.num_shards!r}"
        )


def _pass_predicates(plan: "PhysicalPlan", source: Optional[ParsedQuery],
                     emitter: _Emitter, level: str) -> None:
    """Predicate accounting against the parsed source query.

    Each parsed join predicate must appear exactly once — as a
    spanning-tree edge XOR a residual (multiset semantics: a predicate
    stated twice must be covered twice).  Skipped when the plan was
    built straight from a :class:`JoinQuery` (no parsed predicate list
    to account against).
    """
    if source is None:
        return
    want = Counter(
        _undirected(*predicate) for predicate in source.join_predicates
    )
    have = Counter(
        _undirected(*sides) for sides in _predicate_sides(plan)
    )
    for key, count in want.items():
        if have[key] < count:
            rel_a, attr_a, rel_b, attr_b = key
            emitter.error(
                "PRED001",
                f"parsed predicate {rel_a}.{attr_a} = {rel_b}.{attr_b} "
                f"is covered {have[key]}x by the plan (expected {count}x "
                f"as tree edge or residual)",
            )
    for key, count in have.items():
        rel_a, attr_a, rel_b, attr_b = key
        if key not in want:
            emitter.error(
                "PRED003",
                f"plan covers {rel_a}.{attr_a} = {rel_b}.{attr_b}, "
                f"which is not a predicate of the source query",
            )
        elif count > want[key]:
            emitter.error(
                "PRED002",
                f"predicate {rel_a}.{attr_a} = {rel_b}.{attr_b} is "
                f"covered {count}x by the plan (expected {want[key]}x): "
                f"duplicated as tree edge and/or residual",
            )


def _pass_wcoj(plan: "PhysicalPlan", source: Optional[ParsedQuery],
               emitter: _Emitter, level: str) -> None:
    """WCOJ001-003: cyclic-strategy validity and variable-order coverage.

    A wcoj plan replaces tree-probe + residual-filter evaluation with
    attribute-at-a-time elimination, so its variable order must cover
    *exactly* the (relation, attribute) endpoints of the plan's
    predicates — tree edges and residuals alike.  A member the order
    misses would leave its predicate unjoined; an invented member would
    make the operator probe a column no predicate constrains.
    """
    strategy = plan.cyclic_strategy
    if strategy not in _RESOLVED_CYCLIC_STRATEGIES:
        emitter.error(
            "WCOJ001",
            f"plan carries unresolved cyclic strategy {strategy!r} "
            f"(expected one of {_RESOLVED_CYCLIC_STRATEGIES})",
        )
        return
    if strategy == "tree_filter":
        if plan.wcoj_variable_order:
            emitter.error(
                "WCOJ001",
                "tree_filter plan carries a wcoj variable order "
                "(stale strategy resolution)",
            )
        return
    if not plan.residuals:
        emitter.error(
            "WCOJ003",
            "wcoj strategy on a plan without residuals: the tree "
            "pipelines are strictly cheaper on an acyclic plan",
        )
    if not plan.wcoj_variable_order:
        emitter.error(
            "WCOJ003",
            "wcoj plan carries an empty variable order",
        )
        return
    expected = set()
    for rel_a, attr_a, rel_b, attr_b in _predicate_sides(plan):
        expected.add((rel_a, attr_a))
        expected.add((rel_b, attr_b))
    ordered: list = []
    for variable in plan.wcoj_variable_order:
        ordered.extend(tuple(member) for member in variable)
    for relation, attr in sorted(expected - set(ordered)):
        emitter.error(
            "WCOJ002",
            f"predicate attribute {relation}.{attr} is missing from "
            f"the wcoj variable order — its predicate would go "
            f"unjoined",
        )
    for relation, attr in sorted(set(ordered) - expected):
        emitter.error(
            "WCOJ002",
            f"wcoj variable order names {relation}.{attr}, which no "
            f"plan predicate constrains",
        )
    if len(ordered) != len(set(ordered)):
        duplicated = sorted(
            member for member, count in Counter(ordered).items()
            if count > 1
        )
        emitter.error(
            "WCOJ002",
            f"wcoj variable order repeats members {duplicated!r}",
        )


def _bound_annotation_checks(robustness: Any, prefix_bounds: Any,
                             worst_case_bound: Any, order_length: int,
                             emitter: _Emitter, subject: str) -> None:
    """BOUND001-003 over either a plan's or a spec's bound annotations."""
    if robustness not in ROBUSTNESS_CHOICES:
        emitter.error(
            "BOUND001",
            f"{subject} carries invalid robustness posture "
            f"{robustness!r} (expected one of {ROBUSTNESS_CHOICES})",
        )
        return
    if robustness == "off":
        if prefix_bounds or worst_case_bound:
            emitter.error(
                "BOUND002",
                f"off-mode {subject} carries bound annotations "
                f"(stale robustness resolution)",
            )
        return
    if len(prefix_bounds) != order_length:
        emitter.error(
            "BOUND002",
            f"robust {subject} carries {len(prefix_bounds)} prefix "
            f"bounds for {order_length} join steps (one guaranteed "
            f"cardinality bound per step is required)",
        )
    for position, bound in enumerate(prefix_bounds, start=1):
        if not np.isfinite(bound) or bound < 0:
            emitter.error(
                "BOUND003",
                f"prefix bound {bound!r} at join {position} is not a "
                f"finite non-negative cardinality",
            )
    if not np.isfinite(worst_case_bound) or worst_case_bound < 0:
        emitter.error(
            "BOUND003",
            f"worst-case bound {worst_case_bound!r} is not a finite "
            f"non-negative cost",
        )


def _pass_bounds(plan: "PhysicalPlan", source: Optional[ParsedQuery],
                 emitter: _Emitter, level: str) -> None:
    """BOUND001-003: robustness posture and bound-annotation hygiene.

    A plan produced under ``robustness != "off"`` promises one
    guaranteed cardinality upper bound per join step (what the regret
    gate reasoned about and what ``explain()`` prints); an off-mode
    plan promises it carries none (annotations there would be stale —
    nothing maintained them).  Bounds are products of max-frequencies,
    so a negative or non-finite value can only mean corrupted
    derivation.
    """
    _bound_annotation_checks(
        plan.robustness, plan.prefix_bounds, plan.worst_case_bound,
        len(plan.order), emitter, "plan",
    )


def _pass_schema(plan: "PhysicalPlan", source: Optional[ParsedQuery],
                 emitter: _Emitter, level: str) -> None:
    """Column existence and key-dtype consistency of every predicate.

    ``basic`` checks metadata only (existence, dtype kinds, bool/int
    mixes); ``full`` additionally scans key columns for the exact-key
    hazards the engine's ``exact_equal`` semantics were built for —
    integer keys at or beyond 2**53 meeting float keys, and NaN in
    float keys.
    """
    catalog = plan.catalog
    missing: set[str] = set()
    for relation in plan.query.relations:
        if relation not in catalog:
            emitter.error(
                "SCHEMA001",
                f"relation {relation!r} missing from the plan catalog",
            )
            missing.add(relation)
    for rel_a, attr_a, rel_b, attr_b in _predicate_sides(plan):
        columns = []
        for relation, attr in ((rel_a, attr_a), (rel_b, attr_b)):
            if relation in missing:
                continue
            if relation not in catalog:
                emitter.error(
                    "SCHEMA001",
                    f"predicate references relation {relation!r} "
                    f"missing from the plan catalog",
                )
                missing.add(relation)
                continue
            table = catalog.table(relation)
            if attr not in table.columns:
                emitter.error(
                    "SCHEMA002",
                    f"{relation!r} has no column {attr!r} "
                    f"(available: {table.column_names})",
                )
                continue
            columns.append((relation, attr, table.column(attr)))
        if len(columns) != 2:
            continue
        (rel_x, attr_x, col_x), (rel_y, attr_y, col_y) = columns
        kinds = {_dtype_kind(col_x.dtype), _dtype_kind(col_y.dtype)}
        label = f"{rel_x}.{attr_x} = {rel_y}.{attr_y}"
        if "str" in kinds and kinds & {"int", "float", "bool"}:
            emitter.warning(
                "SCHEMA003",
                f"join {label} compares string with numeric keys and "
                f"can never match",
            )
            continue
        if "bool" in kinds and kinds & {"int", "float"}:
            emitter.warning(
                "KEY003",
                f"join {label} mixes bool and numeric keys",
            )
        if level != "full":
            continue
        if kinds == {"int", "float"}:
            for col in (col_x, col_y):
                if _dtype_kind(col.dtype) == "int" and len(col) and \
                        max(-int(col.min()), int(col.max())) \
                        >= FLOAT_EXACT_MAX:
                    emitter.warning(
                        "KEY001",
                        f"join {label}: integer keys reach "
                        f"|value| >= 2**53, beyond float64's exact "
                        f"range",
                    )
                    break
        for relation, attr, col in columns:
            if _dtype_kind(col.dtype) == "float" and len(col) and \
                    bool(np.isnan(col).any()):
                emitter.warning(
                    "KEY002",
                    f"float key {relation}.{attr} contains NaN "
                    f"(NaN never matches; those rows drop out)",
                )


def _pass_selections(plan: "PhysicalPlan", source: Optional[ParsedQuery],
                     emitter: _Emitter, level: str) -> None:
    """PRED004 (full): every constant selection is fully pushed down.

    The plan's derived catalog must contain only rows matching the
    parsed selections; a :class:`Contradiction` literal must have
    folded the relation to empty.
    """
    if source is None:
        return
    catalog = plan.catalog
    for alias, predicate in source.selections.items():
        if alias not in catalog:
            continue  # SCHEMA001 already emitted by the schema pass
        table = catalog.table(alias)
        for column, literal in predicate.items():
            if isinstance(literal, Placeholder):
                continue  # unbound template; nothing to audit
            if isinstance(literal, Contradiction):
                if len(table):
                    emitter.error(
                        "PRED004",
                        f"contradictory selection on {alias}.{column} "
                        f"not folded: derived relation still holds "
                        f"{len(table)} row(s)",
                    )
                continue
            if column not in table.columns:
                emitter.error(
                    "SCHEMA002",
                    f"selection references missing column "
                    f"{alias}.{column}",
                )
                continue
            if not bool(np.all(table.column(column) == literal)):
                emitter.error(
                    "PRED004",
                    f"selection {alias}.{column} = {literal!r} not "
                    f"fully pushed down: derived relation holds "
                    f"non-matching rows",
                )


def _pass_shards(plan: "PhysicalPlan", source: Optional[ParsedQuery],
                 emitter: _Emitter, level: str) -> None:
    """SHARD001/002: plan shard fan-out vs. actual catalog layout."""
    catalog = plan.catalog
    shard_counts = {
        relation: getattr(catalog.table(relation), "num_shards", 1)
        for relation in plan.query.relations
        if relation in catalog
    }
    partitioned = {
        relation: count for relation, count in shard_counts.items()
        if count > 1
    }
    if plan.num_shards > 1:
        if not partitioned:
            emitter.error(
                "SHARD001",
                f"plan claims num_shards={plan.num_shards} but no "
                f"relation in its catalog is partitioned",
            )
        else:
            for relation, count in sorted(partitioned.items()):
                if count != plan.num_shards:
                    emitter.error(
                        "SHARD001",
                        f"{relation!r} is partitioned into {count} "
                        f"shard(s) but the plan claims "
                        f"{plan.num_shards}",
                    )
    elif partitioned:
        emitter.warning(
            "SHARD002",
            f"plan claims an unpartitioned layout but "
            f"{sorted(partitioned)} are partitioned (pre-partitioned "
            f"catalog?)",
        )


def _pass_row_ids(plan: "PhysicalPlan", source: Optional[ParsedQuery],
                  emitter: _Emitter, level: str) -> None:
    """ROWID001 (full): base-row-id mappings are bijections.

    Every partitioned relation's physical-to-base permutation must hit
    each base row exactly once — a corrupted mapping silently reports
    wrong row ids from otherwise-correct joins.
    """
    catalog = plan.catalog
    for relation in plan.query.relations:
        if relation not in catalog:
            continue
        table = catalog.table(relation)
        base = table.base_row_ids()
        if base is None:
            continue
        base = np.asarray(base)
        if len(base) != len(table) or not np.array_equal(
                np.sort(base), np.arange(len(table), dtype=base.dtype)):
            emitter.error(
                "ROWID001",
                f"{relation!r}: base-row-id mapping is not a "
                f"permutation of range({len(table)})",
            )


class _FingerprintProbe:
    """Stand-in catalog whose fingerprint no real catalog produces."""

    @staticmethod
    def fingerprint() -> str:
        return "__planlint_catalog_probe__"


def _placement_knob_checks(placement: Any, num_workers: Any,
                           emitter: _Emitter, subject: str) -> bool:
    """PLACE002 over either a plan's or a spec's placement knobs."""
    if placement not in PLACEMENT_CHOICES:
        emitter.error(
            "PLACE002",
            f"{subject} carries invalid placement {placement!r} "
            f"(expected one of {PLACEMENT_CHOICES})",
        )
        return False
    if not isinstance(num_workers, int) or isinstance(num_workers, bool) \
            or num_workers < 0:
        emitter.error(
            "PLACE002",
            f"{subject} carries invalid num_workers {num_workers!r} "
            f"(expected a non-negative int)",
        )
        return False
    if placement == "local" and num_workers != 0:
        emitter.error(
            "PLACE002",
            f"local {subject} carries num_workers={num_workers} "
            f"(stale worker-count resolution)",
        )
        return False
    if placement == "distributed" and num_workers < 1:
        emitter.error(
            "PLACE002",
            f"distributed {subject} carries num_workers={num_workers} "
            f"(an unresolved auto count — plans must be stamped with "
            f"the resolution)",
        )
        return False
    return True


def _pass_placement(plan: "PhysicalPlan", source: Optional[ParsedQuery],
                    emitter: _Emitter, level: str) -> None:
    """PLACE001/PLACE002: placement knobs and shard-coverage hygiene.

    A distributed plan must carry a resolved worker count, and the
    placements the pool would derive from it — rendezvous over the
    plan's shards and the striped fallback — must partition their
    shard ids (every shard owned by exactly one worker; a violation
    would execute a shard twice or not at all).  Re-deriving here is
    sound because placement is deterministic in (num_shards,
    num_workers): the pool and this pass see the same assignment.
    """
    placement, num_workers = plan.placement, plan.num_workers
    if not _placement_knob_checks(placement, num_workers, emitter, "plan"):
        return
    if placement != "distributed":
        return
    candidates = [ShardPlacement.striped(num_workers)]
    if isinstance(plan.num_shards, int) \
            and not isinstance(plan.num_shards, bool) \
            and plan.num_shards >= 1:
        candidates.append(ShardPlacement.rendezvous(
            plan.num_shards, tuple(range(num_workers))
        ))
    for candidate in candidates:
        try:
            candidate.validate()
        except ValueError as exc:
            emitter.error(
                "PLACE001",
                f"{candidate.routing} placement over "
                f"{candidate.num_shards} shard(s) and "
                f"{num_workers} worker(s) does not partition the "
                f"shards: {exc}",
            )


def _pass_fingerprint_registry(plan: "PhysicalPlan",
                               source: Optional[ParsedQuery],
                               emitter: _Emitter, level: str) -> None:
    """FP001/FP003: every plan field and planner knob is accounted for.

    Introspects the live dataclass fields so a plan field added by a
    future PR that reaches neither fingerprint registry, or a knob that
    does not reach the plan-cache key the way its declaration says,
    fails verification loudly — the under-keyed-cache failure mode this
    subsystem exists to block.
    """
    from ..options import PlanOptions, ResolvedOptions
    from ..planner import Planner

    plan_fields = {f.name for f in dataclasses.fields(plan)}
    for name in sorted(plan_fields - PLAN_FINGERPRINT_COVERED
                       - PLAN_FINGERPRINT_EXEMPT):
        emitter.error(
            "FP001",
            f"PhysicalPlan field {name!r} is neither covered by "
            f"fingerprint() nor registered as exempt "
            f"(PLAN_FINGERPRINT_COVERED / PLAN_FINGERPRINT_EXEMPT)",
        )
    for name in sorted((PLAN_FINGERPRINT_COVERED
                        | PLAN_FINGERPRINT_EXEMPT) - plan_fields):
        emitter.error(
            "FP001",
            f"fingerprint registry names {name!r}, which is not a "
            f"PhysicalPlan field (stale registry entry)",
        )

    # knobs are declared once, on PlanOptions: a named Planner parameter
    # that is not one of its fields bypasses the cache key entirely
    knobs = {spec.name for spec in dataclasses.fields(PlanOptions)}
    for func in (Planner.__init__, Planner.plan):
        parameters = inspect.signature(func).parameters
        for name in parameters:
            if parameters[name].kind is inspect.Parameter.VAR_KEYWORD \
                    or name in ("self", "query", "catalog", "stats_cache"):
                continue
            if name not in knobs:
                emitter.error(
                    "FP003",
                    f"Planner parameter {name!r} is not a PlanOptions "
                    f"field, so it cannot reach the plan-cache key",
                )
    # behavioural, like FP004: cache_token() must move for every keyed
    # field of the resolved record and must not move for an exempt one
    resolved = ResolvedOptions()
    baseline = resolved.cache_token()
    for spec in dataclasses.fields(resolved):
        moved = dataclasses.replace(
            resolved, **{spec.name: _FingerprintProbe()}
        ).cache_token() != baseline
        exempt = spec.metadata["key"] == "exempt"
        if exempt and moved:
            emitter.error(
                "FP003",
                f"cache_token() reacts to exempt knob {spec.name!r} — "
                f"the plan cache would fragment across its values",
            )
        elif not exempt and not moved:
            emitter.error(
                "FP003",
                f"cache_token() ignores keyed knob {spec.name!r} — the "
                f"plan cache would serve across {spec.name!r} changes",
            )


def _pass_fingerprint_sensitivity(plan: "PhysicalPlan",
                                  source: Optional[ParsedQuery],
                                  emitter: _Emitter, level: str) -> None:
    """FP004 (full): fingerprint() reacts to every semantic field.

    Behavioral probe: perturb each covered field on a copy and demand a
    different digest.  Catches a fingerprint that silently stopped
    hashing a component (e.g. a refactor dropping ``execution`` from
    the payload) — the registry pass alone cannot see that.
    """
    try:
        baseline = plan.fingerprint()
    except Exception:  # structurally broken; other passes report it
        return

    def _perturbations() -> Iterable[tuple]:
        try:
            yield "mode", next(
                mode for mode in ExecutionMode.all_modes()
                if mode is not ExecutionMode(plan.mode)
            )
        except ValueError:
            pass
        yield "execution", (
            "interpreted" if plan.execution != "interpreted"
            else "vectorized"
        )
        if isinstance(plan.num_shards, int) \
                and not isinstance(plan.num_shards, bool):
            yield "num_shards", plan.num_shards + 1
        if len(plan.order) >= 2:
            yield "order", list(reversed(plan.order))
        yield "child_orders", {"__planlint_probe__": ("__x__",)}
        yield "residuals", tuple(plan.residuals) + (
            ResidualPredicate("__planlint__", "a", "__planlint__", "b"),
        )
        if plan.query.num_relations >= 2:
            yield "query", plan.query.rerooted(plan.query.edges[0].child)
        yield "cyclic_strategy", (
            "wcoj" if plan.cyclic_strategy != "wcoj" else "tree_filter"
        )
        yield "wcoj_variable_order", tuple(plan.wcoj_variable_order) + (
            (("__planlint__", "a"),),
        )
        yield "robustness", (
            "bounded" if plan.robustness != "bounded" else "off"
        )
        yield "placement", (
            "distributed" if plan.placement != "distributed" else "local"
        )
        if isinstance(plan.num_workers, int) \
                and not isinstance(plan.num_workers, bool):
            yield "num_workers", plan.num_workers + 1
        yield "catalog", _FingerprintProbe()

    for field_name, value in _perturbations():
        try:
            mutated = dataclasses.replace(plan, **{field_name: value})
            digest = mutated.fingerprint()
        except Exception:
            continue  # unbuildable perturbation proves nothing
        if digest == baseline:
            emitter.error(
                "FP004",
                f"fingerprint() is insensitive to field "
                f"{field_name!r}: perturbing it left the digest "
                f"unchanged",
            )


#: the plan passes, in execution order: (name, function, minimum level)
PLAN_PASSES: Tuple[Tuple[str, Callable, str], ...] = (
    ("structure", _pass_structure, "basic"),
    ("predicates", _pass_predicates, "basic"),
    ("wcoj", _pass_wcoj, "basic"),
    ("bounds", _pass_bounds, "basic"),
    ("placement", _pass_placement, "basic"),
    ("schema", _pass_schema, "basic"),
    ("shards", _pass_shards, "basic"),
    ("fingerprint-registry", _pass_fingerprint_registry, "basic"),
    ("selections", _pass_selections, "full"),
    ("row-ids", _pass_row_ids, "full"),
    ("fingerprint-sensitivity", _pass_fingerprint_sensitivity, "full"),
)


def verify_plan(plan: "PhysicalPlan",
                source: Optional[ParsedQuery | str] = None,
                level: str = "full") -> VerificationResult:
    """Run every applicable pass over ``plan``; nothing executes.

    ``source`` is the parsed query the plan was built from (SQL text is
    parsed here); without it the predicate-accounting and
    selection-push-down passes have nothing to compare against and are
    skipped.  ``level="basic"`` runs the structural/metadata passes
    only; ``"full"`` adds the O(rows) scans and the
    fingerprint-sensitivity probe.
    """
    if level not in ("basic", "full"):
        raise ValueError(
            f'level must be "basic" or "full", got {level!r}'
        )
    if isinstance(source, str):
        source = parse_query(source)
    try:
        fingerprint: Optional[str] = plan.fingerprint()
    except Exception:
        fingerprint = None  # structural passes will say why
    diagnostics = []
    for name, pass_func, min_level in PLAN_PASSES:
        if min_level == "full" and level != "full":
            continue
        emitter = _Emitter(pass_name=name, plan_fingerprint=fingerprint)
        pass_func(plan, source, emitter, level)
        diagnostics.extend(emitter.diagnostics)
    return VerificationResult(
        tuple(diagnostics), level=level, plan_fingerprint=fingerprint
    )


# ----------------------------------------------------------------------
# PlanSpec verification
# ----------------------------------------------------------------------


def verify_spec(spec: "PlanSpec",
                query: Optional[ParsedQuery | JoinQuery | str] = None,
                catalog: Optional["Catalog"] = None) -> VerificationResult:
    """Statically validate a shipped :class:`PlanSpec` before rehydration.

    Checks the resolved knobs, the field-coverage registry, staleness
    against ``catalog`` (when given), and — when the source ``query``
    is given — that the spec's residuals identify a spanning tree of
    that query and that order / child_orders are consistent with it.
    Specs carry no data, so there is no basic/full split.
    """
    if isinstance(query, str):
        query = parse_query(query)
    emitter = _Emitter(pass_name="spec")
    spec_fields = {f.name for f in dataclasses.fields(spec)}
    for name in sorted(spec_fields - SPEC_FINGERPRINT_COVERED
                       - SPEC_FINGERPRINT_EXEMPT):
        emitter.error(
            "FP002",
            f"PlanSpec field {name!r} is neither covered by the "
            f"rehydrated fingerprint nor registered as exempt",
        )
    for name in sorted((SPEC_FINGERPRINT_COVERED
                        | SPEC_FINGERPRINT_EXEMPT) - spec_fields):
        emitter.error(
            "FP002",
            f"spec registry names {name!r}, which is not a PlanSpec "
            f"field (stale registry entry)",
        )
    try:
        ExecutionMode(spec.mode)
    except ValueError:
        emitter.error(
            "SPEC001", f"invalid execution mode {spec.mode!r}"
        )
    if spec.execution not in _RESOLVED_EXECUTIONS:
        emitter.error(
            "SPEC002",
            f"spec carries unresolved execution {spec.execution!r} "
            f"(expected one of {_RESOLVED_EXECUTIONS})",
        )
    spec_strategy = spec.cyclic_strategy
    if spec_strategy not in _RESOLVED_CYCLIC_STRATEGIES:
        emitter.error(
            "WCOJ001",
            f"spec carries unresolved cyclic strategy "
            f"{spec_strategy!r} "
            f"(expected one of {_RESOLVED_CYCLIC_STRATEGIES})",
        )
    elif spec_strategy == "tree_filter" and spec.wcoj_variable_order:
        emitter.error(
            "WCOJ001",
            "tree_filter spec carries a wcoj variable order "
            "(stale strategy resolution)",
        )
    elif spec_strategy == "wcoj" and not spec.wcoj_variable_order:
        emitter.error(
            "WCOJ003",
            "wcoj spec carries an empty variable order",
        )
    _bound_annotation_checks(
        spec.robustness, tuple(spec.prefix_bounds), spec.worst_case_bound,
        len(spec.order), emitter, "spec",
    )
    _placement_knob_checks(
        spec.placement, spec.num_workers, emitter, "spec",
    )
    if not isinstance(spec.num_shards, int) \
            or isinstance(spec.num_shards, bool) or spec.num_shards < 1:
        emitter.error(
            "SPEC003", f"invalid num_shards {spec.num_shards!r}"
        )
    if catalog is not None and \
            spec.catalog_fingerprint != catalog.fingerprint():
        emitter.error(
            "SPEC004",
            "stale PlanSpec: catalog content changed since planning "
            "(fingerprint mismatch)",
        )
    tree: Optional[JoinQuery] = None
    if isinstance(query, JoinQuery):
        tree = query if query.root == spec.root \
            else query.rerooted(spec.root)
    elif isinstance(query, ParsedQuery):
        try:
            if spec.residuals:
                tree = tree_query_from_residuals(
                    query, spec.residuals, spec.root
                )
            else:
                tree = query.to_join_query(driver=spec.root)
        except (KeyError, ValueError) as exc:
            emitter.error(
                "SPEC005",
                f"spec does not identify a spanning tree of the "
                f"query: {exc}",
            )
    if tree is not None:
        edges = list(tree.edges)
        if _check_tree(spec.root, edges, emitter):
            _check_order(spec.root, edges, spec.order, emitter)
        _check_child_orders(
            spec.root, edges, dict(spec.child_orders or ()), emitter
        )
    return VerificationResult(
        tuple(emitter.diagnostics), level="basic", plan_fingerprint=None
    )


# ----------------------------------------------------------------------
# Cached front end
# ----------------------------------------------------------------------


def _source_token(source: Optional[ParsedQuery]) -> Any:
    """A hashable identity for the source query (verdict-cache key)."""
    if source is None:
        return None
    try:
        from ..service.plancache import normalized_query_key
        return normalized_query_key(source)
    except Exception:  # pragma: no cover - unparseable fallback
        return repr(source)


class PlanVerifier:
    """Verdict-cached plan verification, keyed per fingerprint.

    The fingerprint covers everything the passes read (tree, order,
    knobs, catalog content), so one verdict per (fingerprint, source
    structure, level) is sound: a rehydrated spec fingerprints
    identically to the plan it snapshotted and re-verifies as a cache
    hit — the warm path pays a dictionary lookup, nothing more.
    """

    def __init__(self, cache_size: int = 256):
        self._verdicts = LRUCache(cache_size)

    def verify_plan(self, plan: "PhysicalPlan",
                    source: Optional[ParsedQuery | str] = None,
                    level: str = "full") -> VerificationResult:
        """Cached :func:`verify_plan`; raises on error findings."""
        if isinstance(source, str):
            source = parse_query(source)
        try:
            fingerprint: Optional[str] = plan.fingerprint()
        except Exception:
            fingerprint = None
        key = None
        if fingerprint is not None:
            key = (fingerprint, level, _source_token(source))
            cached = self._verdicts.get(key)
            if cached is not None:
                return cached.raise_if_errors()
        result = verify_plan(plan, source=source, level=level)
        if key is not None:
            self._verdicts.put(key, result)
        return result.raise_if_errors()

    def verify_spec(self, spec: "PlanSpec",
                    query: Optional[ParsedQuery | JoinQuery | str] = None,
                    catalog: Optional["Catalog"] = None,
                    ) -> VerificationResult:
        """Uncached :func:`verify_spec` (specs are verified pre-rehydration,
        once per arrival); raises on error findings."""
        return verify_spec(
            spec, query=query, catalog=catalog
        ).raise_if_errors()

    def cache_info(self) -> dict:
        return {"size": len(self._verdicts)}


# re-exported for callers that catch the verification failure
_ = PlanVerificationError
