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
* :class:`repro.Planner`, :class:`repro.PhysicalPlan`,
  :class:`repro.PlanSpec` — SQL in, executable plan out; a plan checks
  its own invariants when it is built.
* :func:`repro.verify_plan` — key-hazard warnings (:class:`Diagnostic`)
  for a plan's join predicates over its data.
* :mod:`repro.workloads` — synthetic benchmark, simulated CE datasets.
"""

from .analysis import Diagnostic, verify_plan
from .core import (
    Contradiction,
    CostWeights,
    EdgeStats,
    JoinEdge,
    JoinQuery,
    OptimizedPlan,
    ParseError,
    ParsedQuery,
    PlanCost,
    QueryStats,
    StatsCache,
    StatsReader,
    beam_order,
    best_driver,
    choose_optimizer,
    execute_cyclic,
    exhaustive_optimal,
    expected_output_size,
    greedy_order,
    idp_order,
    incremental_order_cost,
    optimize_sj,
    parse_query,
    plan_cost,
    spanning_tree_decomposition,
    stats_from_data,
    survival_probability,
)
from .engine import (
    BudgetExceededError,
    ExecutionResult,
    execute,
)
from .modes import ExecutionMode
from .planner import PhysicalPlan, PlanSpec, Planner
from .service import (
    AsyncQueryService,
    PlanCache,
    PreparedStatement,
    QueryReport,
    QuerySession,
)
from .storage import (
    Catalog,
    PartitionedTable,
    Table,
    partitioned_catalog,
)

__version__ = "1.1.0"

__all__ = [
    "AsyncQueryService",
    "BudgetExceededError",
    "Catalog",
    "Contradiction",
    "CostWeights",
    "Diagnostic",
    "EdgeStats",
    "ExecutionMode",
    "ExecutionResult",
    "JoinEdge",
    "JoinQuery",
    "OptimizedPlan",
    "ParseError",
    "ParsedQuery",
    "PartitionedTable",
    "PhysicalPlan",
    "PlanCache",
    "PlanCost",
    "PlanSpec",
    "Planner",
    "PreparedStatement",
    "QueryReport",
    "QuerySession",
    "QueryStats",
    "StatsCache",
    "StatsReader",
    "Table",
    "beam_order",
    "best_driver",
    "choose_optimizer",
    "execute",
    "execute_cyclic",
    "exhaustive_optimal",
    "expected_output_size",
    "greedy_order",
    "idp_order",
    "incremental_order_cost",
    "optimize_sj",
    "parse_query",
    "partitioned_catalog",
    "plan_cost",
    "spanning_tree_decomposition",
    "stats_from_data",
    "survival_probability",
    "verify_plan",
    "__version__",
]
