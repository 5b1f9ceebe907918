"""Service layer: cached planning, prepared statements, batch execution.

The subsystem a long-lived process (a server, a benchmark harness)
would use instead of calling the planner directly:

* :class:`QuerySession` — plan cache + statistics store + batched
  execution; both are :class:`~repro.core.lru.LRUCache` s keyed by the
  fingerprints of the tables each entry read, reclaimed together when
  the catalog version moves (:meth:`repro.planner.Planner.reclaim`);
* :class:`AsyncQueryService` — the asyncio front end multiplexing many
  concurrent clients over one session (cache-hit fast path,
  process-pool planning, signal-driven admission);
* :class:`~repro.service.session.PreparedStatement` — plan once,
  execute many with new selection constants (``?`` placeholders);
* :func:`~repro.service.plancache.normalized_query_key` — the
  structural part of a plan-cache key.
"""

from .async_service import AsyncQueryService
from .session import QuerySession

__all__ = ["AsyncQueryService", "QuerySession"]
