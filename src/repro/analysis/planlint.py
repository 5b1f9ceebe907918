"""Hazards of a query over its data: what no plan constructor can know.

Every structural fact of a plan is checked where the plan is built —
:class:`~repro.planner.PlanSpec` and :class:`~repro.planner.PhysicalPlan`
raise a ``ValueError`` whose message starts with the retired
diagnostic code — so a malformed plan cannot exist.  What is left here
are join predicates that are *legal* but compare keys the data makes
hazardous: string against numeric keys, bool against numeric keys and,
at ``level="full"``, integer keys beyond float64's exact range meeting
float keys, and NaN in float keys.  The engine compares keys exactly,
so these are warnings about the data model, never errors.

:func:`verify_plan` is a caller's tool: the planner and the service
never run it, so no request pays for its O(rows) scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..core.parser import ParsedQuery, parse_query
from ..storage.partition import FLOAT_EXACT_MAX

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..planner import PhysicalPlan

__all__ = ["DIAGNOSTIC_CODES", "Diagnostic", "verify_plan"]

#: every code :func:`verify_plan` can emit, with a one-line
#: description.  Codes are stable — callers match on them — so entries
#: may be retired but never renamed or reused.  Retired codes live on as
#: the prefix of the construction ``ValueError`` that replaced them.
DIAGNOSTIC_CODES: dict[str, str] = {
    "SCHEMA003": "join between incomparable dtypes (string vs numeric): "
                 "the predicate can never match",
    "KEY001": "int/float join with integer keys at or beyond 2**53: "
              "float64 cannot represent them exactly (engine compares "
              "exactly, but check the data model)",
    "KEY002": "float join keys contain NaN: NaN never matches, those "
              "rows silently drop out",
    "KEY003": "bool/numeric key mix on a join predicate",
}


@dataclass(frozen=True)
class Diagnostic:
    """One hazard warning: a registered ``code`` and a message."""

    code: str
    message: str

    def __post_init__(self) -> None:
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(
                f"unregistered diagnostic code {self.code!r}; add it to "
                f"repro.analysis.planlint.DIAGNOSTIC_CODES"
            )

    def __str__(self) -> str:
        return f"{self.code} {self.message}"


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


def _predicate_hazards(label: str, columns: list,
                       level: str) -> list[Diagnostic]:
    """The hazards of one join predicate over its two key columns."""
    (_, col_x), (_, col_y) = columns
    kinds = {_dtype_kind(col_x.dtype), _dtype_kind(col_y.dtype)}
    if "str" in kinds and kinds & {"int", "float", "bool"}:
        return [Diagnostic("SCHEMA003", f"join {label} compares string "
                                        f"with numeric keys and can never "
                                        f"match")]
    found = []
    if "bool" in kinds and kinds & {"int", "float"}:
        found.append(Diagnostic("KEY003", f"join {label} mixes bool and "
                                          f"numeric keys"))
    if level != "full":
        return found
    if kinds == {"int", "float"} and any(
            _dtype_kind(col.dtype) == "int" and len(col)
            and max(-int(col.min()), int(col.max())) >= FLOAT_EXACT_MAX
            for _, col in columns):
        found.append(Diagnostic("KEY001", f"join {label}: integer keys "
                                          f"reach |value| >= 2**53, beyond "
                                          f"float64's exact range"))
    for name, col in columns:
        if _dtype_kind(col.dtype) == "float" and len(col) \
                and bool(np.isnan(col).any()):
            found.append(Diagnostic("KEY002", f"float key {name} contains "
                                              f"NaN (NaN never matches; "
                                              f"those rows drop out)"))
    return found


def verify_plan(plan: "PhysicalPlan",
                source: Optional[ParsedQuery | str] = None,
                level: str = "basic") -> Tuple[Diagnostic, ...]:
    """The key-hazard warnings of ``plan``'s join predicates.

    The predicates are ``source``'s join predicates when it is given
    (SQL text is parsed here), else the plan's tree edges and
    residuals.  ``level="basic"`` reads dtypes only; ``"full"`` adds the
    O(rows) ``KEY001`` / ``KEY002`` scans.  Nothing executes.
    """
    if level not in ("basic", "full"):
        raise ValueError(
            f'level must be "basic" or "full", got {level!r}'
        )
    if isinstance(source, str):
        source = parse_query(source)
    if source is not None:
        predicates = list(source.join_predicates)
    else:
        predicates = plan.query.undirected_edges() + [
            residual.key for residual in plan.residuals]
    catalog = plan.catalog
    found: list[Diagnostic] = []
    for rel_a, attr_a, rel_b, attr_b in predicates:
        columns = [
            (f"{relation}.{attr}", catalog.table(relation).columns[attr])
            for relation, attr in ((rel_a, attr_a), (rel_b, attr_b))
        ]
        found += _predicate_hazards(f"{rel_a}.{attr_a} = {rel_b}.{attr_b}",
                                    columns, level)
    return tuple(found)
