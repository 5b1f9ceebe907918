"""Match-probability and fanout estimation (Section 3.2)."""

from .naive import naive_estimate_from_tables
from .qerror import q_error
from .sampling import CorrelatedSample, true_join_stats

__all__ = [
    "CorrelatedSample",
    "naive_estimate_from_tables",
    "q_error",
    "true_join_stats",
]
