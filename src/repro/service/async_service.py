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
  whose workers hold a content-addressed copy of the catalog (shipped
  once per worker, not per query).  Workers return a picklable
  :class:`~repro.planner.PlanSpec` — decisions only, no catalog — which
  is rehydrated locally and inserted into the session's plan cache, so
  the *executed* path is always the session's own and results are
  bit-identical to the synchronous path by construction;
* **signal-driven admission** — per-query ``index_build_seconds`` /
  ``reduction_seconds`` from past :class:`~repro.service.session.QueryReport` s
  classify each cached plan as heavy or light.  Heavy queries
  (expensive index builds and reductions) are serialized through a
  small number of slots so they don't oversubscribe the execution
  threads; light queries flow freely up to the global concurrency
  limit.
"""

from __future__ import annotations

import asyncio
import os
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..core.parser import ParsedQuery, parse_query
from ..core.query import JoinQuery
from ..options import _integer, _is_number
from .session import DEFAULT_BUDGET, QueryReport, QuerySession

__all__ = ["AsyncQueryService"]

#: queries below this relation count plan faster than a round trip to a
#: worker process costs — they are planned inline on a thread instead
DEFAULT_PROCESS_MIN_RELATIONS = 8

#: a cached plan whose observed per-execution index build + reduction
#: time exceeds this is treated as heavy for admission
DEFAULT_HEAVY_BUILD_SECONDS = 0.05


# ----------------------------------------------------------------------
# Planning-worker process plumbing
# ----------------------------------------------------------------------

#: the worker process's planner, built once by the pool initializer
_worker_planner = None


def _init_planning_worker(catalog, planner_config):
    """Process-pool initializer: build this worker's planner once.

    The catalog is pickled once per worker (content-addressed: its
    fingerprint survives the trip), not once per query — per-query
    traffic is just (query, planning options) out, a
    :class:`~repro.planner.PlanSpec` back.
    """
    global _worker_planner
    from ..planner import Planner

    _worker_planner = Planner(catalog, stats_cache=True, **planner_config)


def _plan_spec_in_worker(query, plan_kwargs):
    """Plan in the worker and return the picklable spec."""
    plan = _worker_planner.plan(query, **plan_kwargs)
    return plan.to_spec(_worker_planner.catalog.fingerprint())


# ----------------------------------------------------------------------
# Admission signals
# ----------------------------------------------------------------------


class _AdmissionSignals:
    """Per-plan-key heaviness classification from past reports.

    A sustained (EWMA) index-build + reduction time above the
    threshold marks a plan heavy.  Unknown keys are light — the first
    execution measures them.  Bounded LRU: cold traffic mints a fresh
    plan-cache key per distinct literal, so an unbounded map would leak
    one entry per query ever served.
    """

    __slots__ = ("_entries", "_lock", "threshold", "alpha", "max_entries")

    def __init__(self, threshold=DEFAULT_HEAVY_BUILD_SECONDS, alpha=0.3,
                 max_entries=4096):
        #: key -> build-seconds EWMA, LRU-ordered
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.threshold = threshold
        self.alpha = alpha
        self.max_entries = max_entries

    def is_heavy(self, key):
        with self._lock:
            ewma = self._entries.get(key)
            if ewma is None:
                return False
            self._entries.move_to_end(key)
            return ewma > self.threshold

    def observe(self, key, report):
        if report.result is None:
            return
        build = report.index_build_seconds + report.reduction_seconds
        with self._lock:
            previous = self._entries.get(key)
            if previous is not None:
                build = self.alpha * build + (1.0 - self.alpha) * previous
            self._entries[key] = build
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)


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
        semaphores are loop-bound).  Same for ``heavy_slots``.
    executor_workers:
        Threads executing queries (default: CPU count, capped at 16).
    planning_workers:
        Process-pool workers for cold planning.  ``0`` (default) plans
        inline on execution threads, which is right for single-core
        hosts and small queries; services planning large queries on
        multi-core hosts should set it to 1-4.
    process_min_relations:
        Only offload queries at least this large to the process pool
        (below it, IPC costs more than the DP).
    heavy_build_seconds:
        Admission threshold on the per-query EWMA of index build +
        reduction seconds.
    heavy_slots:
        Concurrent heavy-query executions (default: half the execution
        workers, at least 1).
    """

    def __init__(self, session, max_concurrency=None, executor_workers=None,
                 planning_workers=0,
                 process_min_relations=DEFAULT_PROCESS_MIN_RELATIONS,
                 heavy_build_seconds=DEFAULT_HEAVY_BUILD_SECONDS,
                 heavy_slots=None):
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
        if heavy_slots is None:
            heavy_slots = max(1, executor_workers // 2)
        self.max_concurrency = _integer("max_concurrency", 1)(max_concurrency)
        self.heavy_slots = _integer("heavy_slots", 1)(heavy_slots)
        self.planning_workers = _integer("planning_workers", 0)(
            planning_workers)
        self.process_min_relations = _integer("process_min_relations", 1)(
            process_min_relations)
        if not _is_number(heavy_build_seconds) or heavy_build_seconds < 0:
            raise ValueError(
                "heavy_build_seconds must be a number >= 0, got "
                f"{heavy_build_seconds!r}"
            )
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers,
            thread_name_prefix="repro-exec",
        )
        self._planning_pool = None
        self._planning_pool_fingerprint = None
        self._pool_lock = threading.Lock()
        self._signals = _AdmissionSignals(threshold=heavy_build_seconds)
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
            "heavy_admissions": 0,
            "replans": 0,
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
        """The current loop's (global, heavy, single-flight) state.

        asyncio primitives bind to the loop they were created on, so
        each serving loop gets its own set — concurrent loops (e.g.
        one per thread over a shared service) coexist without evicting
        each other's live semaphores, which would silently double the
        admission limits.  Entries are keyed by loop id with a weakref
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
                asyncio.Semaphore(self.heavy_slots),
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

    def _planning_pool_for(self, fingerprint):
        """The live planning pool, (re)spawned for the catalog content.

        Workers hold a pickled copy of the catalog; a content change
        (fingerprint mismatch) retires the pool and spawns a fresh one,
        mirroring how the plan cache invalidates.  Returns ``None``
        when process planning is disabled.
        """
        if self.planning_workers < 1:
            return None
        with self._pool_lock:
            if self._closed:
                return None
            if (
                self._planning_pool is not None
                and self._planning_pool_fingerprint != fingerprint
            ):
                self._planning_pool.shutdown(wait=False)
                self._planning_pool = None
            if self._planning_pool is None:
                from concurrent.futures import ProcessPoolExecutor

                # workers plan under the session's full knob record, or
                # their specs would land under the wrong cache key
                self._planning_pool = ProcessPoolExecutor(
                    max_workers=self.planning_workers,
                    initializer=_init_planning_worker,
                    initargs=(
                        self.session.catalog,
                        self.session.planner.options.planner_config(),
                    ),
                )
                self._planning_pool_fingerprint = fingerprint
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

        Process-pool path: the worker returns a spec, rehydration and
        cache insertion happen here.  Any pool failure (broken pool,
        pickling surprise, stale spec after a concurrent data change)
        falls back to inline planning on an execution thread — the
        session's ``plan()`` is the correctness backstop either way.
        """
        loop = asyncio.get_running_loop()
        pool = (
            self._planning_pool_for(self.session.catalog.fingerprint())
            if self._offloadable(query) else None
        )
        if pool is not None:
            try:
                spec = await loop.run_in_executor(
                    None,
                    lambda: pool.submit(
                        _plan_spec_in_worker, query, plan_kwargs
                    ).result(),
                )
                plan = self.session.planner.rehydrate(
                    spec, query,
                    partitioning=plan_kwargs.get("partitioning"),
                )
                self.session.plan_cache.put(key, plan)
                self._bump("planned_in_process_pool")
                return
            except (BrokenProcessPool, ValueError, TypeError,
                    AttributeError, EOFError, OSError):
                # includes stale-spec rejection and pickling failures
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
        global_limit, heavy_limit, inflight = self._limits()
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
            heavy = key is not None and self._signals.is_heavy(key)
            if heavy:
                self._bump("heavy_admissions")

            def run():
                return self.session.execute(
                    query,
                    flat_output=flat_output,
                    collect_output=collect_output,
                    max_intermediate_tuples=max_intermediate_tuples,
                    **plan_kwargs,
                )

            if heavy:
                async with heavy_limit:
                    report = await loop.run_in_executor(self._executor, run)
            else:
                report = await loop.run_in_executor(self._executor, run)
            if key is not None:
                self._signals.observe(key, report)
            if report.replans:
                self._bump("replans", report.replans)
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
