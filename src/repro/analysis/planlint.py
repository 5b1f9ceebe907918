"""Static plan/spec verifier: pass-based checks over resolved plans.

Correctness rests on invariants no single constructor can see — every
parsed join predicate is exactly one spanning-tree edge XOR one
residual, the resolved tree is a tree rooted at the driver, the join
order respects it, every planner knob reaches the plan-cache key.  This
module checks them *statically*: :func:`verify_plan` walks a
:class:`~repro.planner.PhysicalPlan` (and, when available, the
:class:`~repro.core.parser.ParsedQuery` it was planned from) without
executing anything, and :func:`verify_spec` does the same for a shipped
:class:`~repro.planner.PlanSpec` before rehydration.  Knob legality and
fingerprint coverage are not checked here: ``PlanSpec`` construction
enforces both (every field declares its role), so a plan violating
them cannot exist.

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

import copy
import dataclasses
import inspect
from collections import Counter
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Iterator,
                    Optional, Tuple)

import numpy as np

from ..core.cyclic import tree_query_from_residuals
from ..core.lru import LRUCache
from ..core.parser import Contradiction, ParsedQuery, Placeholder, parse_query
from ..core.query import JoinQuery
from ..distributed.placement import ShardPlacement
from ..storage.partition import FLOAT_EXACT_MAX
from ..storage.table import Catalog
from .diagnostics import VerificationResult, _Emitter

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..planner import PhysicalPlan, PlanSpec
    from ..storage.table import Table

__all__ = [
    "PLAN_PASSES",
    "PlanVerifier",
    "VALIDATE_CHOICES",
    "verify_plan",
    "verify_spec",
]

#: accepted values of the ``validate`` knob
VALIDATE_CHOICES: Tuple[str, ...] = ("off", "basic", "full")

# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _undirected(rel_a: str, attr_a: str, rel_b: str, attr_b: str) -> tuple:
    """Canonical direction-independent key for an equality predicate."""
    if (rel_a, attr_a) <= (rel_b, attr_b):
        return (rel_a, attr_a, rel_b, attr_b)
    return (rel_b, attr_b, rel_a, attr_a)


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
    """PLAN001-004: the edges form a tree rooted at the driver, the join
    order is a precedence-respecting permutation of the non-root
    relations, ``child_orders`` permute each relation's children and
    residual selectivities align with the residuals.

    Judged on the edge list alone — ``JoinQuery``'s internal maps are
    ignored, so a query corrupted around its constructor's validation
    cannot hide.
    """
    root = plan.query.root
    parent_of: dict[str, str] = {}
    children: dict[str, list[str]] = {root: []}
    is_tree = True
    for edge in plan.query.edges:
        if edge.child == root:
            emitter.error("PLAN001", f"root {root!r} appears as the child "
                                     f"of {edge.parent!r}")
            is_tree = False
        elif edge.child in parent_of:
            emitter.error("PLAN001", f"relation {edge.child!r} has two "
                                     f"parents")
            is_tree = False
        parent_of.setdefault(edge.child, edge.parent)
        children.setdefault(edge.parent, []).append(edge.child)
        children.setdefault(edge.child, [])
    relations = {root} | set(parent_of)
    visited: set[str] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in visited:
            emitter.error("PLAN001", f"cycle through relation {node!r}")
            is_tree = False
            break
        visited.add(node)
        stack.extend(children.get(node, ()))
    else:
        if relations - visited:
            emitter.error("PLAN001", f"relations not reachable from root "
                                     f"{root!r}: {sorted(relations - visited)}")
            is_tree = False
    order, placed = plan.order, {root}
    if is_tree and Counter(order) != Counter(parent_of.keys()):
        emitter.error("PLAN002", f"order {order!r} is not a permutation of "
                                 f"the non-root relations {sorted(parent_of)}")
    elif is_tree:
        for relation in order:
            if parent_of[relation] not in placed:
                emitter.error("PLAN002", f"{relation!r} is ordered before "
                                         f"its parent {parent_of[relation]!r}")
                break
            placed.add(relation)
    for relation, declared in plan.child_orders.items():
        if relation not in relations:
            emitter.error("PLAN003", f"child_orders names unknown relation "
                                     f"{relation!r}")
        elif Counter(declared) != Counter(children.get(relation, [])):
            emitter.error("PLAN003", f"child_orders[{relation!r}] = "
                                     f"{declared!r} is not a permutation of "
                                     f"its children {children[relation]!r}")
    if plan.residual_selectivities and \
            len(plan.residual_selectivities) != len(plan.residuals):
        emitter.error(
            "PLAN004",
            f"{len(plan.residual_selectivities)} residual "
            f"selectivities for {len(plan.residuals)} residuals",
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
    """WCOJ002/003: a wcoj plan's variable-order coverage.

    A wcoj plan replaces tree-probe + residual-filter evaluation with
    attribute-at-a-time elimination, so its variable order must cover
    *exactly* the (relation, attribute) endpoints of the plan's
    predicates — tree edges and residuals alike.  A member the order
    misses would leave its predicate unjoined; an invented member would
    make the operator probe a column no predicate constrains.
    """
    if plan.cyclic_strategy != "wcoj":
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


def _pass_bounds(plan: "PhysicalPlan", source: Optional[ParsedQuery],
                 emitter: _Emitter, level: str) -> None:
    """BOUND002/003: bound-annotation hygiene.

    A plan produced under ``robustness != "off"`` promises one
    guaranteed cardinality upper bound per join step (what the regret
    gate reasoned about and what ``explain()`` prints); an off-mode
    plan promises it carries none (annotations there would be stale —
    nothing maintained them).  Bounds are products of max-frequencies,
    so a negative or non-finite value can only mean corrupted
    derivation.
    """
    prefix_bounds, worst_case_bound = plan.prefix_bounds, plan.worst_case_bound
    if plan.robustness == "off":
        if prefix_bounds or worst_case_bound:
            emitter.error(
                "BOUND002",
                "off-mode plan carries bound annotations "
                "(stale robustness resolution)",
            )
        return
    if len(prefix_bounds) != len(plan.order):
        emitter.error(
            "BOUND002",
            f"robust plan carries {len(prefix_bounds)} prefix bounds for "
            f"{len(plan.order)} join steps (one guaranteed cardinality "
            f"bound per step is required)",
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
    """Stand-in value no real plan produces — as a catalog (its
    fingerprint), a residual (its key) or a wcoj variable (its
    members)."""

    key = "__planlint_probe__"

    @staticmethod
    def fingerprint() -> str:
        return "__planlint_catalog_probe__"

    def __iter__(self) -> Iterator[str]:
        return iter((self.key,))


def _pass_placement(plan: "PhysicalPlan", source: Optional[ParsedQuery],
                    emitter: _Emitter, level: str) -> None:
    """PLACE001: shard-coverage hygiene of a distributed plan.

    The placements the pool would derive from a distributed plan —
    rendezvous over the plan's shards and the striped fallback — must
    partition their shard ids (every shard owned by exactly one worker;
    a violation would execute a shard twice or not at all).
    Re-deriving here is sound because placement is deterministic in
    (num_shards, num_workers): the pool and this pass see the same
    assignment.
    """
    if plan.placement != "distributed":
        return
    num_workers = plan.num_workers
    for candidate in (
        ShardPlacement.striped(num_workers),
        ShardPlacement.rendezvous(plan.num_shards,
                                  tuple(range(num_workers))),
    ):
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


def _pass_cache_key(plan: "PhysicalPlan", source: Optional[ParsedQuery],
                    emitter: _Emitter, level: str) -> None:
    """FP003: every planner knob reaches the plan-cache key the way its
    :class:`~repro.options.PlanOptions` declaration says — the
    under-keyed-cache failure mode this subsystem exists to block.
    """
    from ..options import PlanOptions, ResolvedOptions
    from ..planner import Planner

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


def _perturbed(value: Any) -> Any:
    """A value of the same shape as ``value`` that differs from it."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):  # ExecutionMode included
        return value + "~"
    if isinstance(value, tuple) and value:
        return value[:-1]
    return (_FingerprintProbe(),)


def _pass_fingerprint_sensitivity(plan: "PhysicalPlan",
                                  source: Optional[ParsedQuery],
                                  emitter: _Emitter, level: str) -> None:
    """FP004 (full): fingerprint() reacts to every semantic field.

    Behavioral probe: perturb the rooted tree, the catalog and each
    field the spec declares a *decision* on a copy (bypassing
    construction checks — only the digest matters) and demand a
    different digest.  Catches a fingerprint that silently stopped
    hashing a component (an overridden ``fingerprint()``, or a
    canonicalizer that collapses distinct values).
    """
    try:
        baseline = plan.fingerprint()
    except Exception:  # structurally broken; other passes report it
        return
    mutations: list[tuple[str, dict[str, Any]]] = [
        ("catalog", {"catalog": _FingerprintProbe()})]
    if plan.query.num_relations >= 2:
        mutations.append(("query", {
            "query": plan.query.rerooted(plan.query.edges[0].child)
        }))
    for spec_field in dataclasses.fields(plan.spec):
        if spec_field.metadata["role"] == "decision":
            spec = copy.copy(plan.spec)
            object.__setattr__(spec, spec_field.name, _perturbed(
                getattr(spec, spec_field.name)))
            mutations.append((spec_field.name, {"spec": spec}))
    for field_name, changes in mutations:
        try:
            digest = dataclasses.replace(plan, **changes).fingerprint()
        except Exception:
            continue  # unbuildable perturbation proves nothing
        if digest == baseline:
            emitter.error(
                "FP004",
                f"fingerprint() is insensitive to field "
                f"{field_name!r}: perturbing it left the digest "
                f"unchanged",
            )


#: the passes that read only the spec and the rooted tree — all a
#: shipped spec has (:func:`verify_spec`): (name, function)
_TREE_PASSES: Tuple[Tuple[str, Callable], ...] = (
    ("structure", _pass_structure),
    ("predicates", _pass_predicates),
    ("wcoj", _pass_wcoj),
    ("bounds", _pass_bounds),
    ("placement", _pass_placement),
)

#: the plan passes, in execution order: (name, function, minimum level)
PLAN_PASSES: Tuple[Tuple[str, Callable, str], ...] = tuple(
    (name, pass_func, "basic") for name, pass_func in _TREE_PASSES
) + (
    ("schema", _pass_schema, "basic"),
    ("shards", _pass_shards, "basic"),
    ("cache-key", _pass_cache_key, "basic"),
    ("selections", _pass_selections, "full"),
    ("row-ids", _pass_row_ids, "full"),
    ("fingerprint-sensitivity", _pass_fingerprint_sensitivity, "full"),
)


def _run_passes(passes: Iterable[tuple], plan: "PhysicalPlan",
                source: Optional[ParsedQuery], level: str,
                fingerprint: Optional[str]) -> list:
    diagnostics = []
    for name, pass_func, *_ in passes:
        emitter = _Emitter(pass_name=name, plan_fingerprint=fingerprint)
        pass_func(plan, source, emitter, level)
        diagnostics.extend(emitter.diagnostics)
    return diagnostics


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
    passes = [entry for entry in PLAN_PASSES
              if entry[2] == "basic" or level == "full"]
    diagnostics = _run_passes(passes, plan, source, level, fingerprint)
    return VerificationResult(
        tuple(diagnostics), level=level, plan_fingerprint=fingerprint
    )


# ----------------------------------------------------------------------
# PlanSpec verification
# ----------------------------------------------------------------------


def verify_spec(spec: "PlanSpec",
                query: Optional[ParsedQuery | JoinQuery | str] = None,
                catalog: Optional[Catalog] = None) -> VerificationResult:
    """Statically validate a shipped :class:`PlanSpec` before rehydration.

    Checks staleness against ``catalog`` (when given) and — when the
    source ``query`` is given — that the spec's residuals identify a
    spanning tree of that query; over the spec bound to that tree it
    then runs the plan passes that need no data (:data:`_TREE_PASSES`:
    tree shape, order, child orders, predicate accounting, wcoj
    coverage, bound annotations, shard placement).  Knob legality needs
    no check — an illegal spec cannot be constructed.  Specs carry no
    data, so there is no basic/full split.
    """
    from ..planner import PhysicalPlan

    if isinstance(query, str):
        query = parse_query(query)
    emitter = _Emitter(pass_name="spec")
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
    diagnostics = emitter.diagnostics
    if tree is not None:
        source = query if isinstance(query, ParsedQuery) else None
        # the tree passes read no data: an empty catalog stands in
        diagnostics += _run_passes(_TREE_PASSES,
                                   PhysicalPlan(spec, Catalog(), tree),
                                   source, "basic", None)
    return VerificationResult(
        tuple(diagnostics), level="basic", plan_fingerprint=None
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
