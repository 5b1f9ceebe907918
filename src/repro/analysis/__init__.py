"""Static analysis for the reproduction: key hazards of a plan's data.

Plans are valid by construction — :class:`~repro.planner.PlanSpec` and
:class:`~repro.planner.PhysicalPlan` check their own invariants — so
this package holds only what a constructor cannot know:
:func:`verify_plan` warns about join predicates whose key columns make
matching hazardous
(:data:`~repro.analysis.planlint.DIAGNOSTIC_CODES`).  Nothing in the planner
or the service calls it.

The repo-invariant *linter* (AST rules run in CI) lives outside the
package at ``tools/check_invariants.py`` — it checks the source tree,
not runtime objects, and must stay importable without the package.
"""

from .planlint import verify_plan

__all__ = ["verify_plan"]
