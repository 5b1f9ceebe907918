"""Core contribution: cost model, optimizers, robustness analysis."""

from .costmodel import CostWeights, plan_cost
from .cyclic import execute_cyclic, spanning_tree_decomposition
from .optimizer import (
    beam_order,
    exhaustive_optimal,
    greedy_order,
    idp_order,
    optimize_sj,
)
from .parser import parse_query
from .query import JoinEdge, JoinQuery
from .robustness import theta_fragility
from .stats import EdgeStats, QueryStats, stats_from_data

__all__ = [
    "CostWeights",
    "EdgeStats",
    "JoinEdge",
    "JoinQuery",
    "QueryStats",
    "beam_order",
    "execute_cyclic",
    "exhaustive_optimal",
    "greedy_order",
    "idp_order",
    "optimize_sj",
    "parse_query",
    "plan_cost",
    "spanning_tree_decomposition",
    "stats_from_data",
    "theta_fragility",
]
