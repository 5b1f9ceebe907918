"""The query-service layer: cached planning, prepared statements, batches.

:class:`QuerySession` wraps a :class:`~repro.planner.Planner` the way a
server would: every ``plan()`` goes through an LRU **plan cache** keyed
on normalized query structure + the fingerprints of the tables the
query reads (so replanning a repeated query is a dictionary lookup, a
change to a table it reads invalidates automatically, and a write to
any other table leaves it cached), every directed join predicate is
measured once and kept in a statistics store that all queries over the
same table contents share (both caches drop what a write superseded on
one catalog version move, :meth:`~repro.planner.Planner.reclaim`),
**prepared statements** plan a parameterized query once and re-execute
it with fresh constants, and ``execute_many()`` runs a batch under
per-query budgets with timing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..core.parser import ParsedQuery, Placeholder, parse_query
from ..core.lru import LRUCache
from ..engine import BudgetExceededError
from ..planner import Planner, filtered_table
from ..storage.partition import PartitionedTable, partitioned_relation
from .plancache import normalized_query_key

__all__ = ["PreparedStatement", "QueryReport", "QuerySession"]

#: default per-query intermediate-tuple budget (matches PhysicalPlan)
DEFAULT_BUDGET = 50_000_000


@dataclass
class QueryReport:
    """Outcome of one service-level query execution.

    ``planning_seconds`` covers cache lookup + (on a miss) planning;
    ``execution_seconds`` the engine run.  ``timed_out`` is set when the
    per-query intermediate-tuple budget was exceeded, ``error`` for any
    other planning or execution failure — service-level executions
    never raise; always check :attr:`ok` (or :attr:`error`) before
    using :attr:`result`.
    """

    query: object
    plan: object = None
    result: object = None
    cache_hit: bool = False
    planning_seconds: float = 0.0
    execution_seconds: float = 0.0
    #: shard count of the execution's partitioned probe targets
    #: (1 = unpartitioned)
    shards_used: int = 1
    #: wall time the engine spent building phase-2 hash indexes
    #: (per-phase breakdown of ``execution_seconds``; benchmark and
    #: service callers read this one consistent shape)
    index_build_seconds: float = 0.0
    #: wall time of the phase-1 semi-join reduction (SJ modes build
    #: their reduced indexes here, so read both phases for build cost)
    reduction_seconds: float = 0.0
    #: worker processes a distributed execution gathered results from
    #: (0 = the query ran in-process)
    workers_used: int = 0
    #: wall time routing driver rows and shipping fragments to workers
    #: (distributed executions only)
    scatter_seconds: float = 0.0
    #: wall time merging per-worker rows and counters (distributed
    #: executions only)
    gather_seconds: float = 0.0
    #: worker deaths recovered by sibling retry during this execution
    worker_retries: int = 0
    #: human-readable partial-failure events (one per recovered death)
    worker_events: tuple = ()
    #: snapshot of :meth:`QuerySession.cache_stats` taken when the
    #: report was produced (``None`` outside session executions)
    cache_stats: dict = None
    #: residual predicates of a cyclic plan, in application order
    #: (empty for acyclic queries)
    residual_predicates: tuple = ()
    #: *observed* joint selectivity of the residual-filter stage —
    #: ``output_size / residual_input_tuples`` (1.0 when the query had
    #: no residuals or nothing reached them)
    residual_selectivity: float = 1.0
    timed_out: bool = False
    error: Exception = None

    @property
    def ok(self):
        return self.error is None and not self.timed_out

    @property
    def total_seconds(self):
        return self.planning_seconds + self.execution_seconds

    def __repr__(self):
        status = "ok" if self.ok else ("timeout" if self.timed_out else "error")
        return (
            f"QueryReport({status}, cache_hit={self.cache_hit}, "
            f"plan={self.planning_seconds * 1e3:.2f}ms, "
            f"exec={self.execution_seconds * 1e3:.2f}ms)"
        )


def _reported_run(query, plan_phase, session=None):
    """Shared plan/execute/report scaffolding for service executions.

    ``plan_phase()`` returns ``(plan, cache_hit, run)`` where ``run()``
    performs the engine execution; any planning failure, budget overrun
    or engine error is recorded in the returned :class:`QueryReport`
    instead of raising — a mid-batch failure must never abort the rest
    of an ``execute_many`` batch.  A budget overrun is reported as
    ``timed_out`` no matter which phase raised it (a prepared
    statement's rebind, for example, executes inside its plan phase).
    With ``session``, the report carries a :meth:`QuerySession.cache_stats`
    snapshot for observability.
    """
    t0 = time.perf_counter()
    try:
        plan, cache_hit, run = plan_phase()
    except BudgetExceededError:
        report = QueryReport(
            query=query, timed_out=True,
            planning_seconds=time.perf_counter() - t0,
        )
        if session is not None:
            report.cache_stats = session.cache_stats()
        return report
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        report = QueryReport(
            query=query, error=exc,
            planning_seconds=time.perf_counter() - t0,
        )
        if session is not None:
            report.cache_stats = session.cache_stats()
        return report
    t1 = time.perf_counter()
    report = QueryReport(
        query=query, plan=plan, cache_hit=cache_hit,
        planning_seconds=t1 - t0,
    )
    try:
        report.result = run()
    except BudgetExceededError:
        report.timed_out = True
    except Exception as exc:  # noqa: BLE001
        report.error = exc
    report.execution_seconds = time.perf_counter() - t1
    if report.result is not None:
        report.shards_used = getattr(report.result, "shards_used", 1)
        report.index_build_seconds = getattr(
            report.result, "index_build_seconds", 0.0
        )
        report.reduction_seconds = getattr(
            report.result, "reduction_seconds", 0.0
        )
        report.workers_used = getattr(report.result, "workers_used", 0)
        report.scatter_seconds = getattr(
            report.result, "scatter_seconds", 0.0
        )
        report.gather_seconds = getattr(report.result, "gather_seconds", 0.0)
        report.worker_retries = getattr(report.result, "worker_retries", 0)
        report.worker_events = tuple(
            getattr(report.result, "worker_events", ())
        )
        report.residual_predicates = tuple(plan.residuals)
        counters = getattr(report.result, "counters", None)
        residual_input = getattr(counters, "residual_input_tuples", 0)
        if residual_input:
            report.residual_selectivity = (
                report.result.output_size / residual_input
            )
    if session is not None:
        report.cache_stats = session.cache_stats()
    return report


class QuerySession:
    """A reusable planning/execution session over one catalog.

    Parameters
    ----------
    catalog:
        The :class:`~repro.storage.Catalog` to serve queries against.
    plan_cache_size:
        LRU capacity of the plan cache (``None`` for unbounded).  The
        plan cache is registered on the planner's ``table_caches``, so
        a write reclaims its plans over the written table together with
        the statistics and partition layouts that read it
        (:meth:`~repro.planner.Planner.reclaim`).
    stats_cache_size:
        LRU capacity of the statistics store (the planner's
        ``stats_cache``), counted in *measurements*: one entry per
        directed join predicate ``(m, fo)`` or column statistic, shared
        by every query, rooting, spanning tree and shard count over the
        same table contents.  An ``n``-relation ``driver="auto"`` plan
        reads ``2 * (n - 1)`` entries; the default holds about the bytes
        256 whole-query entries of a 24-relation join used to.
    **knobs:
        The fields of :class:`~repro.options.PlanOptions`, forwarded to
        the underlying :class:`~repro.planner.Planner` — the knob
        documentation lives there, including how each knob enters the
        plan-cache key.  ``placement="distributed"`` executions scatter
        the driver rows across a lazily-started
        :class:`~repro.distributed.workerpool.WorkerPool` (one per catalog
        fingerprint and worker count; see :meth:`close`).
    """

    def __init__(self, catalog, plan_cache_size=128, stats_cache_size=4096,
                 **knobs):
        self.catalog = catalog
        self.planner = Planner(
            catalog, stats_cache=LRUCache(stats_cache_size), **knobs
        )
        self.plan_cache = LRUCache(plan_cache_size)
        self.planner.table_caches.append(self.plan_cache)
        # distributed execution: one lazily-started worker pool, keyed
        # by (catalog fingerprint, worker count); `_worker_pool_factory`
        # is the fault-injection seam (tests install a killing wrapper)
        self._worker_pool = None
        self._worker_pool_key = None
        self._worker_pool_factory = None

    # ------------------------------------------------------------------
    # Cached planning
    # ------------------------------------------------------------------

    def cache_key(self, query, **overrides):
        """The plan-cache key :meth:`plan` would use for this request.

        Exposed for front ends that manage cache population themselves
        — the async service tests it with ``in`` (which touches no
        counter) to route cache hits straight to execution and inserts
        worker-planned specs under it.
        ``query`` must already be parsed (a :class:`ParsedQuery` or
        :class:`~repro.core.query.JoinQuery`); ``overrides`` are
        per-call :class:`~repro.options.PlanOptions` knobs.
        """
        return self._key(query, self.planner.options.override(**overrides))

    def _key(self, query, request):
        """(the fingerprints of the tables it reads, normalized query,
        the non-exempt fields of the resolved request) — see
        :meth:`_read_tables`, :mod:`repro.service.plancache` and
        :meth:`PlanOptions.cache_token`.
        """
        return (
            self._read_tables(query), normalized_query_key(query),
            request.resolved(self.catalog, query).cache_token(),
        )

    def _read_tables(self, query):
        """The ``Table.fingerprint()`` s of the tables ``query`` reads,
        in table-name order (``None`` for a name the catalog lacks: the
        key stays computable and planning reports the error).

        First runs the planner's reclaim gate: after a write, the cached
        plans, statistics and layouts that read a superseded table are
        dropped, and only those — they are unreachable by key, and they
        pin their filtered copies and the superseded tables' indexes.
        """
        self.planner.reclaim()
        names = query.relations
        if isinstance(names, dict):
            names = names.values()
        return tuple(
            self.catalog.table(name).fingerprint()
            if name in self.catalog else None
            for name in sorted(set(names))
        )

    def plan(self, query, **overrides):
        """A :class:`~repro.planner.PhysicalPlan`, via the plan cache.

        Accepts the same per-call knobs as :meth:`Planner.plan`.  Plans
        are cached per (normalized query structure, fingerprints of the
        tables it reads, :meth:`~repro.options.PlanOptions.cache_token`
        of the resolved request) — so a write to another table keeps the
        entry, ``optimizer="auto"`` shares entries
        with an explicit request for the algorithm it resolves to,
        while a different ``idp_block_size`` / ``beam_width`` /
        ``partitioning`` misses instead of serving a stale plan.
        """
        return self._plan_with_hit(query, **overrides)[0]

    def _plan_with_hit(self, query, **overrides):
        """``(plan, cache_hit)`` — :meth:`plan` plus a race-free hit flag.

        The flag comes from *this call's own* cache lookup, never from
        a before/after delta on the shared counters (concurrent
        sessions — the async service's thread pool — would otherwise
        attribute another query's hit to a cold plan).
        """
        if isinstance(query, str):
            # parse once: the cache key and the planner share the result
            query = parse_query(query)
        key = self._key(query, self.planner.options.override(**overrides))
        plan = self.plan_cache.get(key)
        if plan is not None:
            return plan, True
        plan = self.planner.plan(query, **overrides)
        self.plan_cache.put(key, plan)
        return plan, False

    def explain(self, query, **plan_kwargs):
        """The ``explain()`` text of the (possibly cached) plan."""
        return self.plan(query, **plan_kwargs).explain()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, query, flat_output=True, collect_output=False,
                max_intermediate_tuples=DEFAULT_BUDGET, **plan_kwargs):
        """Plan (through the cache) and run one query; returns a report."""

        def plan_phase():
            plan, cache_hit = self._plan_with_hit(
                query, flat_output=flat_output, **plan_kwargs
            )

            def run():
                return self._execute_plan(
                    plan, query, flat_output, collect_output,
                    max_intermediate_tuples, plan_kwargs,
                )

            return plan, cache_hit, run

        return _reported_run(query, plan_phase, session=self)

    def _execute_plan(self, plan, query, flat_output, collect_output,
                      max_intermediate_tuples, plan_kwargs):
        """Run one plan in-process or through the worker pool.

        Distributed routing needs a driver-decomposable execution:
        flat output (factorized results cannot be concatenated across
        workers) and a non-wcoj cyclic strategy (the wcoj frontier is
        not a per-driver-row computation).  Requests outside that
        envelope fall back to the in-process path, which is always
        correct — the plan itself executes identically either way.
        """
        if (plan.placement == "distributed" and plan.num_workers >= 1
                and flat_output and plan.cyclic_strategy != "wcoj"):
            pool = self._worker_pool_for(plan)
            if isinstance(query, str):
                query = parse_query(query)
            # pin to the *base* catalog: workers hold (and rehydrate
            # against) the session catalog, not the plan's derived one
            spec = plan.to_spec(self.catalog.fingerprint())
            return pool.run(
                plan, spec, query,
                partitioning=plan_kwargs.get("partitioning"),
                collect_output=collect_output,
                max_intermediate_tuples=max_intermediate_tuples,
            )
        return plan.execute(
            flat_output=flat_output, collect_output=collect_output,
            max_intermediate_tuples=max_intermediate_tuples,
        )

    def _worker_pool_for(self, plan):
        """The (lazily started) worker pool for a distributed plan.

        One pool lives at a time, keyed by (catalog fingerprint,
        worker count); a key change closes the old pool and starts a
        fresh one — workers hold a pickled catalog replica, so a
        superseded catalog must not serve new queries.
        """
        from ..distributed.workerpool import WorkerPool

        key = (self.catalog.fingerprint(), plan.num_workers)
        if self._worker_pool is not None and self._worker_pool_key != key:
            self._worker_pool.close()
            self._worker_pool = None
        if self._worker_pool is None:
            factory = self._worker_pool_factory or WorkerPool
            self._worker_pool = factory(
                self.catalog,
                planner_config=self.planner.options.planner_config(),
                num_workers=plan.num_workers,
            )
            self._worker_pool_key = key
        return self._worker_pool

    def close(self):
        """Release the distributed worker pool, if one was started.

        Idempotent, and the session stays usable — a later distributed
        execution lazily starts a fresh pool.
        """
        if self._worker_pool is not None:
            self._worker_pool.close()
            self._worker_pool = None
            self._worker_pool_key = None

    def execute_many(self, queries, budgets=None,
                     max_intermediate_tuples=DEFAULT_BUDGET,
                     flat_output=True, collect_output=False, **plan_kwargs):
        """Run a batch of queries; one :class:`QueryReport` each.

        ``budgets`` optionally gives a per-query intermediate-tuple
        budget (a sequence aligned with ``queries``); otherwise
        ``max_intermediate_tuples`` applies to every query.  Failures
        and budget overruns are recorded in the reports — the batch
        always completes.  Each report carries the per-phase timing
        shape benchmarks and service callers share: planning /
        execution wall time plus :attr:`QueryReport.shards_used` and
        :attr:`QueryReport.index_build_seconds` from the engine run.
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
        return [
            self.execute(
                query,
                flat_output=flat_output,
                collect_output=collect_output,
                max_intermediate_tuples=budget,
                **plan_kwargs,
            )
            for query, budget in zip(queries, budgets)
        ]

    # ------------------------------------------------------------------
    # Prepared statements
    # ------------------------------------------------------------------

    def prepare(self, query, **plan_kwargs):
        """A :class:`PreparedStatement` for a ``?``-parameterized query."""
        if isinstance(query, str):
            query = parse_query(query)
        if not isinstance(query, ParsedQuery):
            raise TypeError(
                f"prepare() takes SQL text or a ParsedQuery; "
                f"got {type(query).__name__}"
            )
        return PreparedStatement(self, query, plan_kwargs)

    def cache_info(self):
        """Plan- and stats-cache counters, for monitoring.

        Returns the live :class:`~repro.core.lru.CacheStats` objects
        (they keep counting); :meth:`cache_stats` returns a plain-dict
        point-in-time snapshot instead.
        """
        return {
            "plan_cache": self.plan_cache.stats,
            "stats_cache": self.planner.stats_cache.stats,
        }

    def cache_stats(self):
        """A point-in-time snapshot of plan- and stats-cache counters.

        Plain nested dicts (hits / misses / evictions / invalidations /
        size / hit_rate per cache), safe to store in a
        :class:`QueryReport`, serialize into benchmark output, or diff
        across calls — unlike :meth:`cache_info`, nothing in the
        snapshot keeps counting.
        """

        def snapshot(stats, size):
            return {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "invalidations": stats.invalidations,
                "size": size,
                "hit_rate": round(stats.hit_rate, 4),
            }

        return {
            "plan_cache": snapshot(self.plan_cache.stats,
                                   len(self.plan_cache)),
            "stats_cache": snapshot(self.planner.stats_cache.stats,
                                    len(self.planner.stats_cache)),
        }

    def __repr__(self):
        return (
            f"QuerySession(tables={len(self.catalog.table_names)}, "
            f"plans={len(self.plan_cache)})"
        )


@dataclass
class PreparedStatement:
    """Plan once, execute many times with fresh selection constants.

    The join *structure* (driver, join order, execution mode, semi-join
    child orders) is optimized on the first execution and reused for
    every subsequent binding — only the selection push-down and the
    engine run are repeated.  The structural plan is tied to the
    fingerprints of the tables the statement reads, observed when it
    was built; if one of them changes, the next execution transparently
    replans (a write to any other table keeps the template).

    Note the reused order is the one optimal for the *first* binding's
    statistics; a binding with wildly different selectivities executes
    correctly but may run a suboptimal order — call :meth:`invalidate`
    to force a replan.
    """

    session: QuerySession
    parsed: ParsedQuery
    plan_kwargs: dict = field(default_factory=dict)
    _template: object = None
    _template_tables: tuple = None
    _template_flat_output: bool = None
    executions: int = 0

    @property
    def num_params(self):
        return self.parsed.num_placeholders

    @property
    def _dynamic_aliases(self):
        """Aliases whose selection carries a ``?`` (re-filtered per bind)."""
        return [
            alias
            for alias, predicate in self.parsed.selections.items()
            if any(isinstance(v, Placeholder) for v in predicate.values())
        ]

    def _rebind_catalog(self, bound):
        """Derived catalog for a new binding, re-filtering only the
        placeholder-bearing relations.

        Unchanged relations (and their already-built hash indexes) are
        shared from the template's catalog, so re-execution cost is
        proportional to the parameterized tables only.  A re-filtered
        relation the template holds hash-partitioned is re-clustered
        into the same layout, so every binding — not just the first —
        keeps the plan's shard layout.
        """
        replacements = {}
        for alias in self._dynamic_aliases:
            table = filtered_table(
                self.session.catalog.table(self.parsed.relations[alias]),
                alias,
                bound.selections.get(alias, {}),
            )
            current = self._template.catalog.table(alias)
            if isinstance(current, PartitionedTable):
                # the planner's per-relation helper: a binding admitting
                # e.g. keys >= 2**53 keeps the base layout instead of
                # failing
                sharded = partitioned_relation(
                    table, current.shard_key, current.num_shards
                )
                if sharded is not None:
                    table = sharded
            replacements[alias] = table
        return self._template.catalog.derived_with(replacements)

    def invalidate(self):
        """Drop the structural plan; the next execution replans."""
        self._template = None
        self._template_tables = None
        self._template_flat_output = None

    def _structural_plan(self, bound, flat_output):
        """(template plan, fresh?, served from any cache?) for the shape.

        The template is keyed to the fingerprints of the tables the
        statement reads (:meth:`QuerySession._read_tables`) *and* the
        requested output shape: ``flat_output`` feeds the cost model's
        mode choice, so executing a template planned for the other
        shape would lock in a systematically suboptimal strategy.

        Even a "fresh" template may be served from the session's plan
        cache (e.g. a second statement prepared over the same SQL);
        that still counts as a cache hit for reporting.
        """
        tables = self.session._read_tables(self.parsed)
        if (
            self._template is None
            or self._template_tables != tables
            or self._template_flat_output != flat_output
        ):
            kwargs = dict(self.plan_kwargs)
            kwargs["flat_output"] = flat_output
            self._template, cache_hit = self.session._plan_with_hit(
                bound, **kwargs
            )
            self._template_tables = tables
            self._template_flat_output = flat_output
            return self._template, True, cache_hit
        return self._template, False, True

    def execute(self, *params, flat_output=None, collect_output=False,
                max_intermediate_tuples=DEFAULT_BUDGET):
        """Bind ``params`` to the placeholders and run; returns a report.

        ``flat_output`` defaults to the shape requested at
        :meth:`QuerySession.prepare` time (via its ``plan_kwargs``),
        falling back to flat; passing it here overrides per execution.
        """
        if flat_output is None:
            flat_output = self.plan_kwargs.get("flat_output", True)
        bound = self.parsed.bind(*params)

        def plan_phase():
            template, fresh, cache_hit = self._structural_plan(
                bound, flat_output
            )
            if fresh:
                # The template was planned against exactly this binding;
                # its derived catalog already has the selections pushed
                # down.
                catalog = template.catalog
            else:
                catalog = self._rebind_catalog(bound)

            def run():
                # Same plan, re-bound catalog: the session helper keeps
                # the engine / worker-pool invocation in one place.
                return self.session._execute_plan(
                    replace(template, catalog=catalog), bound,
                    flat_output, collect_output, max_intermediate_tuples,
                    self.plan_kwargs,
                )

            return template, cache_hit, run

        report = _reported_run(bound, plan_phase, session=self.session)
        self.executions += 1
        return report

    def __repr__(self):
        return (
            f"PreparedStatement(params={self.num_params}, "
            f"planned={self._template is not None}, "
            f"executions={self.executions})"
        )
