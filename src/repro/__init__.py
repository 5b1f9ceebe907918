"""repro: reproduction of "Optimizing Queries with Many-to-Many Joins".

Kalumin & Deshpande, ICDE 2025 (arXiv:2412.16323).

Public API highlights
---------------------
* :class:`repro.JoinQuery`, :class:`repro.JoinEdge` — acyclic join
  trees rooted at a driver relation.
* :class:`repro.QueryStats`, :class:`repro.EdgeStats` — match
  probability / fanout statistics (Section 3.1).
* :func:`repro.plan_cost`, :func:`repro.exhaustive_optimal`,
  :func:`repro.greedy_order` — the cost model and optimizers
  (Sections 3.3-3.6).
* :func:`repro.execute`, :class:`repro.ExecutionMode` — the vectorized
  engine with all six strategies (Section 4).
* :class:`repro.Planner` — SQL in, executable
  :class:`~repro.planner.PhysicalPlan` out; a plan checks its own
  invariants when it is built.
* :class:`repro.QuerySession`, :class:`repro.AsyncQueryService` —
  plan-cached serving over one catalog.
* :func:`repro.verify_plan` — key-hazard warnings
  (:class:`~repro.analysis.planlint.Diagnostic`) for a plan's join
  predicates over its data.

Everything else is imported from the module that defines it.
"""

from .analysis import verify_plan
from .core import (
    CostWeights,
    EdgeStats,
    JoinEdge,
    JoinQuery,
    QueryStats,
    beam_order,
    execute_cyclic,
    exhaustive_optimal,
    greedy_order,
    idp_order,
    optimize_sj,
    parse_query,
    plan_cost,
    spanning_tree_decomposition,
    stats_from_data,
)
from .engine import execute
from .modes import ExecutionMode
from .planner import Planner
from .service import AsyncQueryService, QuerySession
from .storage import Catalog, PartitionedTable

__version__ = "1.1.0"

__all__ = [
    "AsyncQueryService",
    "Catalog",
    "CostWeights",
    "EdgeStats",
    "ExecutionMode",
    "JoinEdge",
    "JoinQuery",
    "PartitionedTable",
    "Planner",
    "QuerySession",
    "QueryStats",
    "beam_order",
    "execute",
    "execute_cyclic",
    "exhaustive_optimal",
    "greedy_order",
    "idp_order",
    "optimize_sj",
    "parse_query",
    "plan_cost",
    "spanning_tree_decomposition",
    "stats_from_data",
    "verify_plan",
    "__version__",
]
