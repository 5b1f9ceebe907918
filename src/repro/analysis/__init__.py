"""Static analysis for the reproduction: plan/spec verification.

Two consumers:

- the planner/service layers, through the ``validate`` knob
  (``Planner.plan(validate="basic"|"full")``,
  :class:`~repro.service.QuerySession`,
  :class:`~repro.service.AsyncQueryService`), which verify cold plans
  and rehydrated :class:`~repro.planner.PlanSpec` s and surface
  :class:`Diagnostic` s on :class:`~repro.service.QueryReport`;
- tests and tooling, through :func:`verify_plan` / :func:`verify_spec`
  directly.

The repo-invariant *linter* (AST rules run in CI) lives outside the
package at ``tools/check_invariants.py`` — it checks the source tree,
not runtime objects, and must stay importable without the package.
"""

from .diagnostics import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    PlanVerificationError,
    Severity,
    VerificationResult,
)
from .planlint import (
    PLAN_PASSES,
    PlanVerifier,
    VALIDATE_CHOICES,
    verify_plan,
    verify_spec,
)

__all__ = [
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "PLAN_PASSES",
    "PlanVerificationError",
    "PlanVerifier",
    "Severity",
    "VALIDATE_CHOICES",
    "VerificationResult",
    "verify_plan",
    "verify_spec",
]
