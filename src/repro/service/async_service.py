"""Throughput-oriented asyncio front end over one :class:`QuerySession`.

A synchronous :class:`~repro.service.QuerySession` serves one query at
a time: planning holds the client's thread between executions.
:class:`AsyncQueryService` multiplexes many concurrent clients over a
single session so the hardware stays busy:

* **cache-hit fast path** — queries whose plan is already cached skip
  planning entirely and go straight to an execution thread, where
  numpy's GIL-releasing kernels overlap across in-flight queries;
* **process-pool planning** — cold, CPU-bound planning (the optimizer
  DP) is offloaded to a :class:`~concurrent.futures.ProcessPoolExecutor`
  whose workers hold no data: an execution thread measures the
  request's statistics (:meth:`~repro.planner.Planner.measure`), a
  worker runs :func:`~repro.planner.decide` over the frozen reader, and
  the decision is bound locally (:meth:`~repro.planner.Planner.bind`)
  and inserted into the session's plan cache, so the *executed* path is
  always the session's own and results are bit-identical to the
  synchronous path by construction; writes never restart the pool;
* **one admission limit** — every query, warm or cold, takes a slot
  of the global concurrency limit; concurrent cold arrivals of one
  query are single-flighted onto one planning pass.
"""

from __future__ import annotations

import asyncio
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..core.parser import ParsedQuery, parse_query
from ..core.query import JoinQuery
from ..options import _integer
from ..planner import decide
from .session import DEFAULT_BUDGET, QueryReport, QuerySession

__all__ = ["AsyncQueryService"]

#: queries below this relation count plan faster than a round trip to a
#: worker process costs — they are planned inline on a thread instead
DEFAULT_PROCESS_MIN_RELATIONS = 8


# ----------------------------------------------------------------------
# Planning-worker process plumbing
# ----------------------------------------------------------------------


def _decide_in_worker(query, reader, options):
    """:func:`~repro.planner.decide` over shipped, frozen statistics;
    the planning deadline starts here, on the clock the search runs on."""
    return decide(query, reader, options.restarted())


class AsyncQueryService:
    """Async multiplexer for one :class:`~repro.service.QuerySession`.

    Parameters
    ----------
    session:
        The session to serve.  Its plan cache, stats cache and planner
        are shared by every concurrent client — and by the synchronous
        path, so mixing ``session.execute`` and ``service.execute``
        stays consistent.
    max_concurrency:
        In-flight query limit **per serving event loop** (default:
        ``4 x`` the execution workers).  Excess clients queue on a
        semaphore.  The usual deployment is one loop per service; an
        unusual setup driving one service from several concurrent
        loops gets the limit per loop, not summed across them (asyncio
        semaphores are loop-bound).
    executor_workers:
        Threads executing queries (default: CPU count, capped at 16).
    planning_workers:
        Process-pool workers for cold planning.  ``0`` (default) plans
        inline on execution threads, which is right for single-core
        hosts and small queries; services planning large queries on
        multi-core hosts should set it to 1-4.  Workers receive
        measured statistics per query and hold no catalog, so they
        outlive every write.
    process_min_relations:
        Only offload queries at least this large to the process pool
        (below it, IPC costs more than the DP).
    """

    def __init__(self, session, max_concurrency=None, executor_workers=None,
                 planning_workers=0,
                 process_min_relations=DEFAULT_PROCESS_MIN_RELATIONS):
        if not isinstance(session, QuerySession):
            raise TypeError(
                f"expected a QuerySession, got {type(session).__name__}"
            )
        self.session = session
        if executor_workers is None:
            executor_workers = min(os.cpu_count() or 1, 16)
        _integer("executor_workers", 1)(executor_workers)
        if max_concurrency is None:
            max_concurrency = 4 * executor_workers
        self.max_concurrency = _integer("max_concurrency", 1)(max_concurrency)
        self.planning_workers = _integer("planning_workers", 0)(
            planning_workers)
        self.process_min_relations = _integer("process_min_relations", 1)(
            process_min_relations)
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers,
            thread_name_prefix="repro-exec",
        )
        self._planning_pool = None
        self._pool_lock = threading.Lock()
        #: loop id -> (weakref-to-loop, limits); asyncio primitives are
        #: loop-bound, so each serving loop gets its own set
        self._loop_limits = {}
        self._limits_lock = threading.Lock()
        self._closed = False
        self._stats_lock = threading.Lock()
        self._counters = {
            "submitted": 0,
            "completed": 0,
            "cache_hit_fast_path": 0,
            "planned_in_process_pool": 0,
            "planned_inline": 0,
            "process_pool_fallbacks": 0,
            # always 0; read by benchmarks/e2e/metrics.py, retired by benchmark upkeep
            "heavy_admissions": 0,
            "distributed_executions": 0,
            "worker_retries": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self):
        """Shut down execution threads, planning and execution workers."""
        self._closed = True
        self._executor.shutdown(wait=True)
        with self._pool_lock:
            if self._planning_pool is not None:
                self._planning_pool.shutdown(wait=True)
                self._planning_pool = None
        self.session.close()

    async def aclose(self):
        await asyncio.get_running_loop().run_in_executor(None, self.close)

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc_info):
        await self.aclose()

    def _bump(self, counter, amount=1):
        with self._stats_lock:
            self._counters[counter] += amount

    def stats(self):
        """Service-level admission counters (plain dict snapshot)."""
        with self._stats_lock:
            return dict(self._counters)

    def _limits(self):
        """The current loop's (global limit, single-flight) state.

        asyncio primitives bind to the loop they were created on, so
        each serving loop gets its own set — concurrent loops (e.g.
        one per thread over a shared service) coexist without evicting
        each other's live semaphore, which would silently double the
        admission limit.  Entries are keyed by loop id with a weakref
        guard (a dead loop's id can be reused by a new loop) and
        pruned once their loop is garbage collected.
        """
        loop = asyncio.get_running_loop()
        key = id(loop)
        with self._limits_lock:
            entry = self._loop_limits.get(key)
            if entry is not None:
                ref, limits = entry
                if ref() is loop:
                    return limits
            limits = (
                asyncio.Semaphore(self.max_concurrency),
                {},  # single-flight planning futures, by plan key
            )
            self._loop_limits = {
                existing: (ref, existing_limits)
                for existing, (ref, existing_limits)
                in self._loop_limits.items()
                if ref() is not None and existing != key
            }
            self._loop_limits[key] = (weakref.ref(loop), limits)
            return limits

    # ------------------------------------------------------------------
    # Planning-pool management
    # ------------------------------------------------------------------

    def _live_planning_pool(self):
        """The planning pool, started on first use; ``None`` once the
        service is closed."""
        with self._pool_lock:
            if self._closed:
                return None
            if self._planning_pool is None:
                from concurrent.futures import ProcessPoolExecutor

                self._planning_pool = ProcessPoolExecutor(
                    max_workers=self.planning_workers)
            return self._planning_pool

    def _offloadable(self, query):
        """Whether a cold plan is worth a worker-process round trip."""
        if self.planning_workers < 1:
            return False
        num_relations = (
            len(query.relations) if isinstance(query, ParsedQuery)
            else query.num_relations
        )
        return num_relations >= self.process_min_relations

    async def _plan_into_cache(self, query, key, plan_kwargs):
        """Ensure ``key`` is populated, planning wherever is cheapest.

        Process-pool path: an execution thread measures the request's
        statistics, a worker decides from them, an execution thread binds
        and caches the plan.  Any pool failure (broken pool, pickling
        surprise, a write since the measurement) falls back to inline
        planning — the session's ``plan()`` is the backstop either way.
        """
        loop = asyncio.get_running_loop()
        pool = self._live_planning_pool() if self._offloadable(query) \
            else None
        if pool is not None:
            planner = self.session.planner
            try:
                prep = await loop.run_in_executor(
                    self._executor,
                    lambda: planner.measure(query, **plan_kwargs))
                decided = await asyncio.wrap_future(pool.submit(
                    _decide_in_worker, prep.searched, prep.reader,
                    prep.options))
                await loop.run_in_executor(
                    self._executor,
                    lambda: self.session.plan_cache.put(
                        key, planner.bind(prep, *decided)))
                self._bump("planned_in_process_pool")
                return
            except (BrokenProcessPool, ValueError, TypeError,
                    AttributeError, EOFError, OSError):
                # includes stale-decision rejection and pickling failures
                self._bump("process_pool_fallbacks")
        try:
            await loop.run_in_executor(
                self._executor,
                lambda: self.session.plan(query, **plan_kwargs),
            )
        except Exception:  # noqa: BLE001
            # A genuine planning failure: leave the cache cold — the
            # execution path replans and records the error in the
            # QueryReport, exactly like the synchronous session.
            return
        self._bump("planned_inline")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    async def execute(self, query, flat_output=True, collect_output=False,
                      max_intermediate_tuples=DEFAULT_BUDGET, **plan_kwargs):
        """Plan (cache / worker / inline) and run one query.

        Returns the same :class:`~repro.service.session.QueryReport` the
        synchronous :meth:`QuerySession.execute` produces — failures
        and budget overruns are recorded, never raised.  Safe to call
        from many tasks concurrently.
        """
        if self._closed:
            raise RuntimeError("AsyncQueryService is closed")
        self._bump("submitted")
        loop = asyncio.get_running_loop()
        global_limit, inflight = self._limits()
        async with global_limit:
            if isinstance(query, str):
                try:
                    query = parse_query(query)
                except Exception as exc:  # noqa: BLE001 - reported
                    # Parity with the synchronous path: a parse error is
                    # recorded in the report, never raised mid-batch.
                    self._bump("completed")
                    return QueryReport(
                        query=query, error=exc,
                        cache_stats=self.session.cache_stats(),
                    )
            key = None
            if isinstance(query, (ParsedQuery, JoinQuery)):
                # session.execute recomputes this key internally (it
                # stays self-contained for sync callers); the ~10 us of
                # duplicate key work is noise next to an execution, and
                # routing genuinely needs the key up front.
                try:
                    key = self.session.cache_key(
                        query, flat_output=flat_output, **plan_kwargs
                    )
                except Exception:  # noqa: BLE001 - reported below
                    # e.g. an invalid knob: run unrouted, so
                    # session.execute records the error in the report
                    # like the synchronous path
                    pass
            if key is not None:
                if key in self.session.plan_cache:
                    self._bump("cache_hit_fast_path")
                else:
                    # Single-flight per key: concurrent cold arrivals of
                    # one query await the first client's planning pass
                    # instead of stampeding the planning pool.
                    pending = inflight.get(key)
                    if pending is None:
                        pending = inflight[key] = loop.create_future()
                        try:
                            await self._plan_into_cache(
                                query, key,
                                dict(plan_kwargs, flat_output=flat_output),
                            )
                        finally:
                            del inflight[key]
                            pending.set_result(None)
                    else:
                        await pending
            report = await loop.run_in_executor(
                self._executor,
                lambda: self.session.execute(
                    query,
                    flat_output=flat_output,
                    collect_output=collect_output,
                    max_intermediate_tuples=max_intermediate_tuples,
                    **plan_kwargs,
                ),
            )
            if report.workers_used:
                self._bump("distributed_executions")
            if report.worker_retries:
                self._bump("worker_retries", report.worker_retries)
            self._bump("completed")
            return report

    async def execute_many(self, queries, budgets=None,
                           max_intermediate_tuples=DEFAULT_BUDGET,
                           flat_output=True, collect_output=False,
                           **plan_kwargs):
        """Run a batch concurrently; one report per query, input order.

        The async analogue of :meth:`QuerySession.execute_many`:
        per-query budgets, and per-query failure isolation — one
        query's parse error or budget overrun is recorded in *its*
        report while the rest of the batch proceeds.
        """
        queries = list(queries)
        if budgets is not None:
            budgets = list(budgets)
            if len(budgets) != len(queries):
                raise ValueError(
                    f"got {len(budgets)} budgets for {len(queries)} queries"
                )
        else:
            budgets = [max_intermediate_tuples] * len(queries)
        return list(await asyncio.gather(*(
            self.execute(
                query,
                flat_output=flat_output,
                collect_output=collect_output,
                max_intermediate_tuples=budget,
                **plan_kwargs,
            )
            for query, budget in zip(queries, budgets)
        )))

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return (
            f"AsyncQueryService({state}, "
            f"max_concurrency={self.max_concurrency}, "
            f"planning_workers={self.planning_workers}, "
            f"completed={self.stats()['completed']})"
        )
