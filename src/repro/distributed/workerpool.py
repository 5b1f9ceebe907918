"""Persistent execution workers: scatter/gather distributed queries.

A :class:`WorkerPool` owns ``num_workers`` single-process executors.
Each worker process is initialized exactly once per catalog fingerprint
with the content-addressed pickled catalog (execution needs the data;
planning workers, deciding from shipped statistics, hold none) and
builds its hash indexes worker-locally on first use; after that,
queries ship only a picklable
:class:`~repro.planner.PlanSpec`, the (parsed) query, and a driver-row
subset.

The scatter model partitions the *driver row set*, not the plan: every
worker holds a full catalog replica, routes its driver subset through
the identical plan, and the per-worker runs compose exactly because an
inner-join pipeline decomposes over any disjoint cover of the driver
rows.  Routing follows :class:`~repro.distributed.placement.ShardPlacement`:
when the query's first root-attached join child is hash-partitioned on
the join key, driver rows route to that child's shards via the same
splitmix64 hash that laid the child out — so each worker's driver rows
mostly match rows of its own shards — and shards map to workers by
rendezvous hashing.  Otherwise driver rows are cut into contiguous
stripes, one per worker.  Either way each worker holds and reduces
over its full replica: the shards decide only which driver rows it
runs.

The gather reconstructs the single-process result bit-identically:

* rows: per-worker flat outputs are concatenated and stable-sorted by
  the root (driver) column.  Each worker's output is ascending in
  driver id, a driver id's whole output group lives in exactly one
  worker, and within-group order depends only on that driver row — so
  the merged order equals the local pipeline's.
* counters: probe/tuple counters are per-driver-row work and sum;
  ``semijoin_probes`` is driver-independent (every worker computes the
  identical global reduction) and is taken once;
  ``peak_intermediate_tuples`` is rebuilt as the max over the summed
  per-stage totals of ``intermediate_tuples_by_stage`` (each labeled
  stage runs once per execution, so per-stage sizes are additive).

Partial failure: a worker death surfaces as ``BrokenProcessPool`` on
its fragment future; the pool retires the executor (a fresh one is
lazily respawned for the next query), reassigns only the victim's
shards via :meth:`ShardPlacement.without` (rendezvous keeps every other
shard in place, so survivors' warm caches stay useful), and resubmits
to the siblings — up to ``max_retries`` deaths per query, after which a
:class:`DistributedExecutionError` is raised rather than hanging.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ..core.lru import LRUCache
from ..engine.executor import (
    BudgetExceededError,
    ExecutionCounters,
    ExecutionResult,
)
from ..storage.partition import _probe_shard_ids
from .placement import ShardPlacement

__all__ = [
    "DistributedExecutionError",
    "WorkerPool",
]


class DistributedExecutionError(RuntimeError):
    """A distributed execution could not complete.

    Raised when worker deaths exceed the retry budget (or no worker
    survives), or when a worker reports a non-retryable failure.  Always
    raised promptly on the driver — a dead worker is detected through
    its broken executor, never awaited indefinitely.
    """


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------

_worker_planner = None
#: rehydrated plans cached per plan fingerprint inside each worker
#: (an ``LRUCache(8)``, built by the initializer) — small, since the
#: driver's plan cache already bounds live plans
_worker_plans = None


def _init_exec_worker(catalog, planner_config):
    """Process-pool initializer: one planner per worker, created once.

    The catalog crosses the process boundary exactly once
    (content-addressed by the fingerprint inside every shipped
    ``PlanSpec``), and everything derived from it — partitioned layouts,
    hash indexes, stats — is built worker-locally and reused across
    queries.
    """
    global _worker_planner, _worker_plans
    from ..planner import Planner

    _worker_planner = Planner(catalog, stats_cache=True, **planner_config)
    _worker_plans = LRUCache(8)


def _plan_for(token, spec, query, partitioning):
    """Rehydrate (or fetch the cached) plan for a fingerprint token."""
    return _worker_plans.get_or_compute(
        token,
        lambda: _worker_planner.rehydrate(spec, query,
                                          partitioning=partitioning),
    )


def _execute_fragment(token, spec, query, partitioning, driver_rows, options):
    """Run one driver-row fragment; returns a picklable payload dict.

    Failures are returned as data rather than raised: exceptions with
    non-trivial constructors do not round-trip through the result
    pickle, and an unpicklable exception would break the whole pool.
    """
    try:
        plan = _plan_for(token, spec, query, partitioning)
        result = plan.execute(
            flat_output=True,
            collect_output=options["collect_output"],
            max_intermediate_tuples=options["max_intermediate_tuples"],
            driver_rows=np.asarray(driver_rows, dtype=np.int64),
        )
        return {
            "ok": True,
            "output_size": result.output_size,
            "output_rows": result.output_rows,
            "counters": result.counters,
            "wall_time": result.wall_time,
            "index_build_seconds": result.index_build_seconds,
            "reduction_seconds": result.reduction_seconds,
            "shards_used": result.shards_used,
            "execution": result.execution,
        }
    except BudgetExceededError as exc:
        return {
            "ok": False,
            "budget": (str(exc.mode), exc.relation, int(exc.size),
                       int(exc.budget)),
        }
    except Exception as exc:  # noqa: BLE001 — keep worker failures picklable
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------


def _merge_counters(counter_list):
    """Merge per-worker counters bit-identically to a single-process run."""
    merged = ExecutionCounters()
    for counters in counter_list:
        merged.hash_probes += counters.hash_probes
        merged.bitvector_probes += counters.bitvector_probes
        merged.tuples_generated += counters.tuples_generated
        merged.residual_checks += counters.residual_checks
        merged.residual_input_tuples += counters.residual_input_tuples
        for relation, probes in counters.hash_probes_by_relation.items():
            merged.hash_probes_by_relation[relation] = (
                merged.hash_probes_by_relation.get(relation, 0) + probes
            )
        for stage, size in counters.intermediate_tuples_by_stage.items():
            merged.intermediate_tuples_by_stage[stage] = (
                merged.intermediate_tuples_by_stage.get(stage, 0) + size
            )
    if counter_list:
        # driver-independent: every worker computed the identical global
        # semi-join reduction, so the count is taken once, not summed
        merged.semijoin_probes = counter_list[0].semijoin_probes
    merged.peak_intermediate_tuples = max(
        merged.intermediate_tuples_by_stage.values(), default=0
    )
    return merged


def _merge_rows(rows_list, root):
    """Concatenate per-worker outputs and restore driver order."""
    rows_list = [rows for rows in rows_list if rows is not None]
    if not rows_list:
        return None
    if len(rows_list) == 1:
        return rows_list[0]
    merged = {
        relation: np.concatenate([rows[relation] for rows in rows_list])
        for relation in rows_list[0]
    }
    if len(merged[root]):
        # each driver id's whole group lives in one worker and workers
        # emit ascending driver ids, so a stable sort on the root column
        # reproduces the single-process output order exactly
        order = np.argsort(merged[root], kind="stable")
        merged = {relation: rows[order] for relation, rows in merged.items()}
    return merged


class WorkerPool:
    """A pool of persistent execution workers for one catalog snapshot.

    ``planner_config`` is forwarded to each worker's
    :class:`~repro.planner.Planner` (the session planner's
    ``options.planner_config()``) so rehydrated plans resolve
    identically to the driver's.  ``_submit`` is the single seam every
    worker-bound task goes through — the fault-injection test helper
    overrides it to kill a chosen worker mid-query.
    """

    def __init__(self, catalog, planner_config=None, num_workers=2,
                 max_retries=2):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.catalog = catalog
        self.catalog_fingerprint = catalog.fingerprint()
        self.planner_config = dict(planner_config or {})
        self.num_workers = num_workers
        self.max_retries = max_retries
        self._executors = [None] * num_workers

    # -- worker lifecycle ----------------------------------------------

    def _executor(self, worker):
        """The (lazily spawned) executor backing one logical worker."""
        executor = self._executors[worker]
        if executor is None:
            executor = ProcessPoolExecutor(
                max_workers=1,
                initializer=_init_exec_worker,
                initargs=(self.catalog, self.planner_config),
            )
            self._executors[worker] = executor
        return executor

    def _submit(self, worker, fn, *args):
        """Submit a task to one worker (the fault-injection seam)."""
        return self._executor(worker).submit(fn, *args)

    def _retire(self, worker):
        """Drop a dead worker's executor; a successor respawns lazily."""
        executor = self._executors[worker]
        if executor is not None:
            executor.shutdown(wait=False)
        self._executors[worker] = None

    def close(self):
        """Shut down every worker process."""
        for worker in range(self.num_workers):
            executor = self._executors[worker]
            if executor is not None:
                executor.shutdown(wait=False)
            self._executors[worker] = None

    # -- scatter --------------------------------------------------------

    @staticmethod
    def _routing_edge(plan):
        """The root-attached join edge driver rows can shard-route on."""
        if plan.num_shards <= 1:
            return None
        query = plan.query
        for edge in query.edges:
            if edge.parent != query.root:
                continue
            child = plan.catalog.table(edge.child)
            if (
                getattr(child, "num_shards", 1) == plan.num_shards
                and getattr(child, "shard_key", None) == edge.child_attr
            ):
                return edge
        return None

    def _scatter(self, plan):
        """(placement, {shard: ascending driver-row ids}) for a plan."""
        root_table = plan.catalog.table(plan.query.root)
        num_rows = len(root_table)
        workers = tuple(range(self.num_workers))
        edge = self._routing_edge(plan)
        if edge is not None:
            placement = ShardPlacement.rendezvous(
                plan.num_shards, workers,
                routing="hash",
                routing_relation=edge.child,
                routing_attr=edge.child_attr,
            )
            keys = root_table.column(edge.parent_attr)
            shard_of_row = _probe_shard_ids(keys, plan.num_shards)
        else:
            placement = ShardPlacement.striped(self.num_workers)
            shard_of_row = (
                np.arange(num_rows, dtype=np.int64) * placement.num_shards
            ) // max(num_rows, 1)
        shard_rows = {
            shard: np.flatnonzero(shard_of_row == shard).astype(np.int64)
            for shard in range(placement.num_shards)
        }
        return placement, shard_rows

    # -- execute --------------------------------------------------------

    def run(self, plan, spec, query, *, partitioning=None,
            collect_output=False, max_intermediate_tuples=50_000_000):
        """Scatter a plan across the pool and gather the merged result."""
        start = time.perf_counter()
        placement, shard_rows = self._scatter(plan)
        placement.validate()
        task_args = (plan.fingerprint(), spec, query, partitioning)
        options = {
            "collect_output": collect_output,
            "max_intermediate_tuples": int(max_intermediate_tuples),
        }

        live = set(placement.workers)
        pending = []

        def submit(worker, shards):
            chunks = [shard_rows[s] for s in shards if len(shard_rows[s])]
            if not chunks:
                rows = np.empty(0, dtype=np.int64)
            elif len(chunks) == 1:
                rows = chunks[0]
            else:
                rows = np.sort(np.concatenate(chunks))
            try:
                future = self._submit(
                    worker, _execute_fragment, *task_args, rows, options
                )
            except BrokenProcessPool as exc:
                # a worker already found dead at submit time is handled
                # exactly like one dying mid-flight
                future = Future()
                future.set_exception(BrokenProcessPool(str(exc)))
            pending.append((worker, tuple(shards), future))

        by_worker = {}
        for shard in range(placement.num_shards):
            if len(shard_rows[shard]):
                by_worker.setdefault(placement.worker_of(shard), []).append(shard)
        if not by_worker:
            # all-empty driver: run one empty fragment anyway so the
            # driver-independent counters (semi-join reduction, zeroed
            # stage totals) still match the single-process run
            by_worker = {min(live): []}
        for worker in sorted(by_worker):
            submit(worker, by_worker[worker])
        scatter_seconds = time.perf_counter() - start

        payloads = []
        events = []
        used_workers = set()
        retries = 0
        while pending:
            worker, shards, future = pending.pop(0)
            try:
                payload = future.result()
            except BrokenProcessPool:
                self._retire(worker)
                live.discard(worker)
                retries += 1
                events.append(
                    f"worker {worker} died executing shards {list(shards)}; "
                    f"retry {retries}/{self.max_retries}"
                )
                if retries > self.max_retries:
                    raise DistributedExecutionError(
                        f"worker deaths exceeded max_retries="
                        f"{self.max_retries}: " + "; ".join(events)
                    ) from None
                if not live:
                    raise DistributedExecutionError(
                        "no live workers left to retry on: "
                        + "; ".join(events)
                    ) from None
                placement = placement.without(worker)
                regroup = {}
                for shard in shards:
                    regroup.setdefault(placement.worker_of(shard), []).append(shard)
                if not regroup:
                    regroup = {min(live): []}
                for sibling in sorted(regroup):
                    submit(sibling, regroup[sibling])
                continue
            if not payload.get("ok"):
                budget = payload.get("budget")
                if budget is not None:
                    mode, relation, size, limit = budget
                    raise BudgetExceededError(mode, relation, size, limit)
                raise DistributedExecutionError(
                    f"worker {worker} failed: "
                    f"{payload.get('error', 'unknown error')}"
                )
            payloads.append(payload)
            used_workers.add(worker)

        gather_start = time.perf_counter()
        counters = _merge_counters([p["counters"] for p in payloads])
        output_rows = _merge_rows(
            [p["output_rows"] for p in payloads], plan.query.root
        )
        result = ExecutionResult(
            mode=plan.mode,
            order=list(plan.order),
            output_size=sum(p["output_size"] for p in payloads),
            counters=counters,
            wall_time=time.perf_counter() - start,
            output_rows=output_rows,
            factorized=None,
            index_build_seconds=max(p["index_build_seconds"] for p in payloads),
            reduction_seconds=max(p["reduction_seconds"] for p in payloads),
            shards_used=max(p["shards_used"] for p in payloads),
            execution=payloads[0]["execution"],
        )
        result.workers_used = len(used_workers)
        result.scatter_seconds = scatter_seconds
        result.gather_seconds = time.perf_counter() - gather_start
        result.worker_retries = retries
        result.worker_events = tuple(events)
        result.placement = placement.describe()
        return result
