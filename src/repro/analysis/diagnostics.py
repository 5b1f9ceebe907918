"""Structured diagnostics for the static plan/spec verifier.

Every check in :mod:`repro.analysis.planlint` reports its findings as
:class:`Diagnostic` values — a stable ``code`` (the contract tests and
callers match on), a :class:`Severity`, the fingerprint of the plan the
finding is about, and a human-readable message.  A verification run
returns a :class:`VerificationResult` holding all of them;
``validate="basic"|"full"`` planning raises
:class:`PlanVerificationError` when any error-severity diagnostic is
present, and surfaces the full list on
:class:`~repro.service.QueryReport.diagnostics` otherwise.

The code registry below (:data:`DIAGNOSTIC_CODES`) is the single source
of truth for which codes exist; emitting an unregistered code is itself
a bug (the :class:`Diagnostic` constructor rejects it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Tuple

__all__ = [
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "PlanVerificationError",
    "Severity",
    "VerificationResult",
]


class Severity(str, Enum):
    """How bad a finding is.

    ``ERROR`` findings make a plan unservable (``validate`` raises);
    ``WARNING`` findings flag hazards the engine is known to handle but
    that deserve operator attention; ``INFO`` is purely informational.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


#: every diagnostic code the verifier can emit, with a one-line
#: description.  Codes are stable across releases — tests and callers
#: match on them — so entries may be added or retired but never renamed
#: or reused.  Knob legality has no code: an illegal plan fails
#: :class:`~repro.planner.PlanSpec` construction instead.
DIAGNOSTIC_CODES: dict[str, str] = {
    # --- plan structure -------------------------------------------------
    "PLAN001": "join tree malformed: duplicate child, root as child, "
               "cycle, or relation unreachable from the root",
    "PLAN002": "join order is not a precedence-respecting permutation "
               "of the non-root relations",
    "PLAN003": "semi-join child_orders inconsistent with the rooted tree "
               "(unknown relation or not a permutation of its children)",
    "PLAN004": "residual_selectivities not aligned with residuals",
    # --- predicate accounting (needs the parsed source query) ----------
    "PRED001": "parsed join predicate covered by neither a spanning-tree "
               "edge nor a residual (dropped predicate)",
    "PRED002": "parsed join predicate covered more than once "
               "(duplicate tree edge / edge duplicated as residual)",
    "PRED003": "tree edge or residual matches no parsed join predicate "
               "(invented predicate)",
    "PRED004": "constant selection not fully pushed down into the "
               "plan's derived catalog (or Contradiction not folded to "
               "an empty relation)",
    # --- schema / key-dtype consistency ---------------------------------
    "SCHEMA001": "plan references a relation missing from its catalog",
    "SCHEMA002": "join or residual predicate references a column missing "
                 "from the relation's schema",
    "SCHEMA003": "join between incomparable dtypes (string vs numeric): "
                 "the predicate can never match",
    "KEY001": "int/float join with integer keys at or beyond 2**53: "
              "float64 cannot represent them exactly (engine compares "
              "exactly, but check the data model)",
    "KEY002": "float join keys contain NaN: NaN never matches, those "
              "rows silently drop out",
    "KEY003": "bool/numeric key mix on a join predicate",
    # --- base-row-id space / partitioning -------------------------------
    "ROWID001": "partitioned table's base-row-id mapping is not a "
                "permutation of its row range",
    "SHARD001": "plan num_shards disagrees with the partitioned layout "
                "of its catalog",
    "SHARD002": "plan claims an unpartitioned layout but its catalog "
                "holds partitioned relations",
    # --- fingerprint / cache-key completeness ---------------------------
    "FP003": "planner knob does not reach the plan-cache key the way "
             "PlanOptions declares it (cache_token() sensitivity probe)",
    "FP004": "fingerprint() is insensitive to a semantic plan field "
             "(stripped or shadowed fingerprint component)",
    # --- PlanSpec-level checks ------------------------------------------
    "SPEC004": "PlanSpec is stale: catalog content fingerprint mismatch",
    "SPEC005": "PlanSpec residuals do not identify a spanning tree of "
               "the query (tree reconstruction failed)",
    # --- worst-case-optimal (wcoj) strategy ------------------------------
    "WCOJ002": "wcoj variable order does not cover exactly the "
               "predicate attributes (a residual attribute would go "
               "unjoined, or the order names an unknown member)",
    "WCOJ003": "wcoj strategy on a plan without residuals, or with an "
               "empty variable order (nothing to eliminate)",
    # --- pessimistic bounds / robustness ---------------------------------
    "BOUND002": "bound-annotation completeness violated: a robust plan "
                "must carry one prefix bound per join step, an off-mode "
                "plan must carry none",
    "BOUND003": "malformed bound annotation: a prefix cardinality bound "
                "or the worst-case bound is negative or non-finite",
    # --- distributed placement -------------------------------------------
    "PLACE001": "shard placement does not cover every shard exactly "
                "once (a shard would execute twice or not at all)",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the plan/spec verifier."""

    code: str
    severity: Severity
    message: str
    #: fingerprint of the plan the finding is about (``None`` for
    #: spec-level findings, which have no resolved catalog to pin)
    plan_fingerprint: Optional[str] = None
    #: name of the verifier pass that emitted the finding
    pass_name: str = ""

    def __post_init__(self) -> None:
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(
                f"unregistered diagnostic code {self.code!r}; add it to "
                f"repro.analysis.diagnostics.DIAGNOSTIC_CODES"
            )

    def __str__(self) -> str:
        return f"{self.code} [{self.severity}] {self.message}"


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one ``verify_plan`` / ``verify_spec`` run."""

    diagnostics: Tuple[Diagnostic, ...]
    #: the validation level the run executed ("basic" / "full")
    level: str = "full"
    #: fingerprint of the verified plan (``None`` for specs)
    plan_fingerprint: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was found."""
        return not self.errors

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics
                     if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics
                     if d.severity is Severity.WARNING)

    def codes(self) -> Tuple[str, ...]:
        """All emitted codes, in emission order (with duplicates)."""
        return tuple(d.code for d in self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def raise_if_errors(self) -> "VerificationResult":
        """Raise :class:`PlanVerificationError` on any error finding."""
        if not self.ok:
            raise PlanVerificationError(self)
        return self

    def __repr__(self) -> str:
        return (
            f"VerificationResult(level={self.level!r}, "
            f"errors={len(self.errors)}, warnings={len(self.warnings)}, "
            f"total={len(self.diagnostics)})"
        )


class PlanVerificationError(ValueError):
    """A plan or spec failed static verification.

    Subclasses :class:`ValueError` so service-layer failure handling
    (which records planning ``ValueError`` s on the
    :class:`~repro.service.QueryReport` instead of raising) treats a
    rejected plan like any other planning failure.
    """

    def __init__(self, result: VerificationResult):
        self.result = result
        lines = [str(d) for d in result.errors]
        super().__init__(
            "plan failed static verification "
            f"({len(result.errors)} error(s)):\n  " + "\n  ".join(lines)
        )


@dataclass
class _Emitter:
    """Mutable accumulator the verifier passes write into."""

    pass_name: str
    plan_fingerprint: Optional[str] = None
    diagnostics: list = field(default_factory=list)

    def emit(self, code: str, severity: Severity, message: str) -> None:
        self.diagnostics.append(Diagnostic(
            code=code,
            severity=severity,
            message=message,
            plan_fingerprint=self.plan_fingerprint,
            pass_name=self.pass_name,
        ))

    def error(self, code: str, message: str) -> None:
        self.emit(code, Severity.ERROR, message)

    def warning(self, code: str, message: str) -> None:
        self.emit(code, Severity.WARNING, message)
