"""The planning-knob table: every knob declared once.

:class:`PlanOptions` is the single declaration of every knob the
planner and the service layer accept — name, default, validator, how
the knob enters the plan-cache key and whether a single
``plan()`` / ``execute()`` call may override it all live on the
dataclass field.  :class:`~repro.planner.Planner` and
:class:`~repro.service.QuerySession` take the fields as keyword
arguments and hold one instance as ``.options``; a request is
``options.override(**kwargs)``, and ``request.resolved(catalog, query)``
is the one record planning passes down.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Optional, Tuple

import numpy as np

from .core.costmodel import CostWeights
from .core.cyclic import CYCLIC_EXECUTION_CHOICES
from .core.optimizer import choose_optimizer
from .core.parser import ParsedQuery, parse_query
from .core.query import JoinQuery
from .distributed.placement import DEFAULT_MAX_WORKERS, PLACEMENT_CHOICES
from .engine.kernels import EXECUTION_CHOICES, resolve_execution
from .modes import ExecutionMode

__all__ = [
    "AUTO_MAX_SHARDS",
    "AUTO_MIN_ROWS_PER_SHARD",
    "OPTIMIZER_CHOICES",
    "PlanOptions",
    "ResolvedOptions",
    "resolve_optimizer",
]

#: ``partitioning="auto"`` only shards when the largest probe target
#: has at least this many rows per shard — below that, re-clustering
#: costs more than the shard-routed distributed scatter it enables
AUTO_MIN_ROWS_PER_SHARD = 16_384
#: cap for ``partitioning="auto"`` (explicit ints may exceed it)
AUTO_MAX_SHARDS = 8

#: ``optimizer`` choices — ``"auto"`` resolves by relation count via
#: :func:`resolve_optimizer`
OPTIMIZER_CHOICES: Tuple[str, ...] = (
    "exhaustive", "idp", "beam", "auto", "survival", "rank", "result_size",
)
DRIVER_CHOICES: Tuple[str, ...] = ("fixed", "auto")

Check = Callable[[Any], Any]


def _one_of(name: str, choices: Tuple[str, ...]) -> Check:
    def check(value: Any) -> Any:
        if value not in choices:
            raise ValueError(
                f"{name} must be one of {choices}, got {value!r}"
            )
        return value
    return check


def _integer(name: str, floor: int, note: str = "") -> Check:
    def check(value: Any) -> int:
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < floor:
            raise ValueError(
                f"{name} must be an int >= {floor}{note}, got {value!r}"
            )
        return value
    return check


def _check_mode(value: Any) -> str:
    return "auto" if value == "auto" else str(ExecutionMode(value))


def _is_number(value: Any) -> bool:
    """A real number that is neither a bool nor NaN."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and not math.isnan(value)


def _check_eps(value: Any) -> Any:
    if not _is_number(value) or not 0 <= value < 1:
        raise ValueError(f"eps must be a number in [0, 1), got {value!r}")
    return value


def _check_budget(value: Any) -> Any:
    if value is not None and (not _is_number(value) or value <= 0):
        raise ValueError(
            f"planning_budget_ms must be positive or None, got {value!r}"
        )
    return value


def _check_partitioning(value: Any) -> Any:
    if value == "off" or value == "auto":
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 1:
            raise ValueError(
                f"partitioning shard count must be >= 1, got {value}"
            )
        return value
    raise ValueError(
        f'partitioning must be "auto", "off" or a shard count, '
        f"got {value!r}"
    )


def _check_flat_output(value: Any) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"flat_output must be a bool, got {value!r}")
    return bool(value)


def _check_weights(value: Any) -> CostWeights:
    if value is None:
        return CostWeights()
    if not isinstance(value, CostWeights):
        raise ValueError(
            f"weights must be a CostWeights or None, got {value!r}"
        )
    return value


def _knob(default: Any, key: str, check: Optional[Check] = None,
          per_call: bool = True) -> Any:
    """One row of the knob table.

    ``key`` says how the knob enters the plan-cache key: ``"resolved"``
    (its :meth:`PlanOptions.resolved` form, so ``"auto"`` shares an
    entry with the explicit value it resolves to), ``"raw"`` (as
    given) or ``"exempt"`` (never keyed).  ``per_call`` knobs may be
    overridden on a single ``plan()`` / ``execute()`` call.
    """
    return field(default=default, metadata={
        "key": key, "check": check, "per_call": per_call,
    })


def _deadline(budget_ms: Optional[float]) -> Optional[float]:
    """When a planning budget started now runs out (``perf_counter``)."""
    return time.perf_counter() + budget_ms / 1e3 if budget_ms else None


def resolve_optimizer(optimizer: str, num_relations: int) -> str:
    """The concrete algorithm ``plan()`` will run for a query size.

    ``"auto"`` maps to ``"exhaustive"`` / ``"idp"`` / ``"beam"`` by
    relation count alone
    (:func:`repro.core.optimizer.choose_optimizer`); anything else
    resolves to itself.  A ``planning_budget_ms`` does not move the
    crossovers — it arms the deadline that steps an overrunning search
    down the ladder on the host that runs it.
    """
    return choose_optimizer(num_relations) if optimizer == "auto" \
        else optimizer


@dataclass(frozen=True)
class PlanOptions:
    """Every planner / session knob, declared once.

    Constructor-only knobs (shape the cost model and the scaling
    optimizers for every query of a planner):

    weights:
        Operation weights used to compare strategies (Section 5.4);
        ``None`` means the default :class:`~repro.core.CostWeights`.
    eps:
        Assumed bitvector false-positive rate for BVP costing.
    idp_block_size, beam_width:
        Tuning knobs of the scaling optimizers (:func:`repro.core.idp_order`
        / :func:`repro.core.beam_order`): ints >= 1, default 8 each.
        A block of 8 is solved exactly by the Algorithm 1 recurrence
        well inside interactive latency even on stars, and beam time is
        linear in the width.

    Per-call knobs (a default at construction, overridable on every
    ``plan()`` / ``cache_key()`` / ``execute()`` call; ``None`` there
    means "keep the configured default"):

    mode:
        One of the six :class:`~repro.modes.ExecutionMode` values, or
        ``"auto"`` to let the cost model choose the cheapest strategy.
    optimizer:
        ``"exhaustive"`` (Algorithm 1), ``"idp"`` (blockwise DP),
        ``"beam"`` (beam search), ``"auto"`` (one of those three by
        relation count, see :func:`resolve_optimizer`), or a greedy
        heuristic name.
    driver:
        ``"fixed"`` keeps the given rooting; ``"auto"`` searches every
        relation as the driver and keeps the cheapest plan (shared
        both-direction statistics, proxy-ranked rootings, each
        rooting's DP pruned against the incumbent).
    flat_output:
        A bool: whether the caller wants flat tuples (the expansion
        step is priced in) or accepts factorized output.  The tuples
        are generated only when rows are collected; a count-only run
        still counts and prices them.
    planning_budget_ms:
        Optional wall-time budget per ``plan()``.  Order searches run
        under a deadline measured on this host's clock, falling down the
        exhaustive -> IDP -> beam ladder when they overrun (beam search
        never checks it, so planning ends by the deadline plus one beam
        search); a DP that fits returns the exact optimum.  For a cyclic
        query the deadline additionally bounds the candidate-tree sweep
        (the greedy Kruskal tree is always fully evaluated).  It never
        changes which rung ``optimizer="auto"`` starts on.  ``None``
        keeps planning unbounded.
    partitioning:
        ``"off"`` (tables keep their base layout), a shard count, or
        ``"auto"`` (shard count from the largest probe target and the
        core count; 1 when tables are small).  When the resolved count
        exceeds 1, each non-root relation is re-clustered into hash
        shards on its probe attribute for the plan's rooting;
        every table is still probed through one index per attribute.
        Plans, predicted costs and result sets are identical across
        shard counts.
    execution:
        Kernel path: ``"vectorized"``, ``"interpreted"`` (the
        pure-Python oracle — bit-identical results and counters) or
        ``"auto"`` (the ``REPRO_EXECUTION`` environment override, else
        vectorized).  Never changes the chosen plan.
    cyclic_execution:
        Cyclic queries only: ``"tree_filter"`` (spanning tree +
        residual filters), ``"wcoj"`` (:mod:`repro.engine.wcoj`) or
        ``"auto"`` (price both, keep the cheaper).  Keyed raw: ``"auto"``
        resolves per query by data-dependent cost.
    placement:
        ``"local"`` or ``"distributed"`` (session executions scatter
        driver rows across a :class:`~repro.distributed.workerpool.WorkerPool`;
        bit-identical results and counters either way).
    num_workers:
        Worker-process count for distributed placement; ``0`` resolves
        to the core count capped at
        :data:`~repro.distributed.placement.DEFAULT_MAX_WORKERS`.
        Always resolves to 0 under local placement.
    """

    mode: Any = _knob("auto", "raw", _check_mode)
    optimizer: str = _knob("exhaustive", "resolved",
                           _one_of("optimizer", OPTIMIZER_CHOICES))
    driver: str = _knob("fixed", "raw", _one_of("driver", DRIVER_CHOICES))
    flat_output: bool = _knob(True, "raw", _check_flat_output)
    weights: Any = _knob(None, "raw", _check_weights, per_call=False)
    eps: float = _knob(0.01, "raw", _check_eps, per_call=False)
    idp_block_size: int = _knob(8, "raw", _integer("idp_block_size", 1),
                                per_call=False)
    beam_width: int = _knob(8, "raw", _integer("beam_width", 1),
                            per_call=False)
    planning_budget_ms: Optional[float] = _knob(None, "raw", _check_budget)
    partitioning: Any = _knob("off", "resolved", _check_partitioning)
    execution: str = _knob("auto", "resolved",
                           _one_of("execution", EXECUTION_CHOICES))
    cyclic_execution: str = _knob(
        "auto", "raw", _one_of("cyclic_execution", CYCLIC_EXECUTION_CHOICES))
    placement: str = _knob("local", "resolved",
                           _one_of("placement", PLACEMENT_CHOICES))
    num_workers: int = _knob(
        0, "resolved", _integer("num_workers", 0, " (0 = auto)"))

    def __post_init__(self) -> None:
        for name, check in _CHECKS:
            object.__setattr__(self, name, check(getattr(self, name)))

    def override(self, **overrides: Any) -> "PlanOptions":
        """The request record for one ``plan()`` / ``execute()`` call.

        ``None`` values keep the configured default; anything but a
        per-call knob name raises :class:`TypeError`.  Every other value
        passes its knob's check, also one that compares equal to the
        configured value (``flat_output=1`` raises like ``0`` does).
        """
        unknown = sorted(overrides.keys() - _PER_CALL)
        if unknown:
            raise TypeError(
                f"{unknown} are not per-call planning knobs "
                f"(see repro.options.PlanOptions)"
            )
        checked = {
            name: _CHECK_OF[name](value) for name, value in overrides.items()
            if value is not None
        }
        changed = {
            name: value for name, value in checked.items()
            if value != getattr(self, name)
        }
        return replace(self, **changed) if changed else self

    @property
    def modes(self) -> list:
        """The execution strategies the ``mode`` knob lets planning try."""
        if self.mode == "auto":
            return ExecutionMode.all_modes()
        return [ExecutionMode(self.mode)]

    def shard_count(self, catalog: Any, query: Any = None) -> int:
        """The concrete shard count ``partitioning`` resolves to.

        ``"off"`` resolves to 1; an ``int`` to itself; ``"auto"``
        scales with the largest non-root base table (one shard per
        :data:`AUTO_MIN_ROWS_PER_SHARD` rows) capped by the core count
        and :data:`AUTO_MAX_SHARDS`.
        """
        if self.partitioning == "off":
            return 1
        if isinstance(self.partitioning, int):
            return self.partitioning
        if isinstance(query, str):
            query = parse_query(query)
        names: list = []
        if isinstance(query, ParsedQuery):
            names = [query.relations[alias]
                     for alias in list(query.relations)[1:]]
        elif isinstance(query, JoinQuery):
            names = query.non_root_relations
        max_rows = max(
            (len(catalog.table(name)) for name in names if name in catalog),
            default=0,
        )
        return int(max(1, min(
            AUTO_MAX_SHARDS, os.cpu_count() or 1,
            max_rows // AUTO_MIN_ROWS_PER_SHARD,
        )))

    def resolved(self, catalog: Any, query: Any) -> "ResolvedOptions":
        """This request with every ``"resolved"`` knob made concrete.

        ``query`` is a :class:`~repro.core.parser.ParsedQuery` or
        :class:`~repro.core.JoinQuery`.  The optimizer resolves by
        relation count, ``partitioning`` to a shard count
        (plus the size floor only ``"auto"`` applies), ``execution`` to
        a kernel path, ``num_workers`` to a process count (0 under
        local placement); the planning deadline starts now.
        """
        num_relations = (
            len(query.relations) if isinstance(query, ParsedQuery)
            else query.num_relations
        )
        num_workers = 0
        if self.placement == "distributed":
            num_workers = self.num_workers or max(
                1, min(DEFAULT_MAX_WORKERS, os.cpu_count() or 1)
            )
        values = dict(vars(self))
        values.update(
            optimizer=resolve_optimizer(self.optimizer, num_relations),
            partitioning=self.shard_count(catalog, query),
            # "auto" resolves from base-table sizes (cache keys must be
            # computable before push-down); the floor keeps it from
            # re-clustering a selection that kept only a few rows, so
            # "auto" and an explicit count that resolve alike must not
            # share a plan
            partition_floor=(AUTO_MIN_ROWS_PER_SHARD
                             if self.partitioning == "auto" else 0),
            execution=resolve_execution(self.execution),
            num_workers=num_workers,
            deadline=_deadline(self.planning_budget_ms),
        )
        return ResolvedOptions(**values)

    def cache_token(self) -> tuple:
        """The non-exempt fields, in field order — the options part of a
        plan-cache key when called on a :meth:`resolved` record."""
        return tuple(getattr(self, name) for name in _KEYED[type(self)])

    def planner_config(self) -> dict:
        """Keyword arguments that rebuild an equal record in another
        process: ``Planner(catalog, **options.planner_config())``."""
        return {spec.name: getattr(self, spec.name)
                for spec in fields(PlanOptions)}


@dataclass(frozen=True)
class ResolvedOptions(PlanOptions):
    """What :meth:`PlanOptions.resolved` returns: the request plus the
    two values resolution derives that are not knobs."""

    #: minimum post-selection table size worth re-clustering
    #: (non-zero only when the request said ``partitioning="auto"``)
    partition_floor: int = field(default=0, metadata={"key": "resolved"})
    #: ``time.perf_counter()`` instant the planning budget runs out
    deadline: Optional[float] = field(
        default=None, metadata={"key": "exempt"})

    def __post_init__(self) -> None:
        """Built only from an already-validated record."""

    def restarted(self) -> "ResolvedOptions":
        """This record, its planning deadline armed now on this clock."""
        return replace(self, deadline=_deadline(self.planning_budget_ms))


_CHECKS = tuple(
    (spec.name, spec.metadata["check"]) for spec in fields(PlanOptions)
    if spec.metadata["check"] is not None
)
_CHECK_OF = dict(_CHECKS)
_PER_CALL = frozenset(
    spec.name for spec in fields(PlanOptions) if spec.metadata["per_call"]
)
#: per record type: the fields :meth:`PlanOptions.cache_token` reads
_KEYED = {
    cls: tuple(spec.name for spec in fields(cls)
               if spec.metadata["key"] != "exempt")
    for cls in (PlanOptions, ResolvedOptions)
}
