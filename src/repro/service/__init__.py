"""Service layer: cached planning, prepared statements, batch execution.

The subsystem a long-lived process (a server, a benchmark harness)
would use instead of calling the planner directly:

* :class:`QuerySession` — plan cache + stats cache + batched execution;
* :class:`AsyncQueryService` — the asyncio front end multiplexing many
  concurrent clients over one session (cache-hit fast path,
  process-pool planning, signal-driven admission);
* :class:`~repro.service.session.PreparedStatement` — plan once,
  execute many with new selection constants (``?`` placeholders);
* :class:`~repro.service.plancache.PlanCache` — the cache layer.
"""

from .async_service import AsyncQueryService
from .session import QuerySession

__all__ = ["AsyncQueryService", "QuerySession"]
