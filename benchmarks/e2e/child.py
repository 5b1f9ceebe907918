"""The workload subprocess: set up the program, drive it, observe it.

``run.py`` starts this file once per run, pickles the generated inputs
to its stdin and reads from its stdout heartbeat lines (``HB``) while
operations complete and one ``RESULT <json>`` line at the end.  The
process judges nothing: it returns what the program answered and how
long it took; the load generator checks the answers against the oracle.

Phases: set-up (repeated, the last one is kept) -> untimed warm-up ->
timed phase -> memory reading -> with ``trace``: a plain and a staged
replay of the first operations on fresh set-ups, plus stand-alone
timings of the planner's children and of the kernels.
"""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import os
import pickle
import statistics
import sys
import time

import numpy as np

from oracle import rows_checksum
from spans import Tracer

HEARTBEAT_SECONDS = 0.25
#: most cold plans timed stand-alone for the planner attribution
ATTRIBUTION_SAMPLES = 30
MICRO_REPEATS = 7


class Heart:
    """Tells the watchdog in ``run.py`` that operations still complete."""

    def __init__(self):
        self._last = 0.0

    def beat(self):
        now = time.perf_counter()
        if now - self._last >= HEARTBEAT_SECONDS:
            self._last = now
            os.write(1, b"HB\n")


class Program:
    """The program under test, assembled for one workload."""

    def __init__(self, inputs):
        from repro import AsyncQueryService, Catalog, QuerySession

        self.catalog = Catalog()
        for name, columns in inputs["tables"].items():
            # copies: live_mutation writes in place, and every set-up
            # must start from the generated data
            self.catalog.add_table(
                name, {col: values.copy() for col, values in columns.items()})
        self.session = QuerySession(self.catalog, **inputs["session"])
        self.service = (AsyncQueryService(self.session)
                        if inputs["service"] else None)

    def close(self):
        """Stop serving; worker processes exit on their own afterwards
        (:func:`reap_workers` waits for them)."""
        if self.service is not None:
            self.service.close()        # closes its session too
        else:
            self.session.close()


def reap_workers():
    """Wait for the worker processes of closed programs to end."""
    for process in multiprocessing.active_children():
        process.join(timeout=10)


def set_up(inputs, heart):
    """(program, seconds): build it and answer every pool query once."""
    start = time.perf_counter()
    program = Program(inputs)
    first_seconds = []
    for sql in inputs["pool"]:
        report = program.session.execute(sql, **inputs["execute"])
        if not report.ok:
            raise RuntimeError(f"set-up query failed: {report.error!r} "
                               f"(timed_out={report.timed_out})")
        first_seconds.append(report.execution_seconds)
        heart.beat()
    return program, time.perf_counter() - start, first_seconds


def apply_write(catalog, op):
    """One ``live_mutation`` write, acknowledged the documented way."""
    if op[0] == "update":
        _, table, column, rows, values = op
        catalog.table(table).column(column)[rows] = values
        catalog.invalidate_indexes(table)
    else:
        _, table, new_columns = op
        old = catalog.table(table)
        catalog.add_table(table, {
            column: np.concatenate([old.column(column), new_columns[column]])
            for column in old.column_names
        })


def read_record(index, start, latency, report, late=0.0):
    result = report.result
    rows = getattr(result, "output_rows", None)
    return {
        "i": index, "kind": "read", "start": start, "latency": latency,
        "ok": bool(report.ok),
        "error": None if report.ok else (
            "budget" if report.timed_out else repr(report.error)),
        "size": int(result.output_size) if result is not None else -1,
        "checksum": rows_checksum(rows) if rows is not None else None,
        "hit": bool(report.cache_hit),
        "plan_s": report.planning_seconds,
        "exec_s": report.execution_seconds,
        "late": late,
    }


def write_record(index, start, latency):
    return {"i": index, "kind": "write", "start": start, "latency": latency,
            "ok": True}


# ----------------------------------------------------------------------
# Load loops
# ----------------------------------------------------------------------


def run_sync(program, inputs, first, last, seconds, heart):
    """One closed-loop client calling ``QuerySession.execute``."""
    ops, kwargs = inputs["ops"], inputs["execute"]
    records = []
    origin = time.perf_counter()
    for index in range(first, min(last, len(ops))):
        start = time.perf_counter()
        if start - origin >= seconds:
            break
        op = ops[index]
        if op[0] == "read":
            report = program.session.execute(op[1], **kwargs)
            records.append(read_record(
                index, start - origin, time.perf_counter() - start, report))
        else:
            apply_write(program.catalog, op)
            records.append(write_record(
                index, start - origin, time.perf_counter() - start))
        heart.beat()
    return records, time.perf_counter() - origin


async def run_clients(program, inputs, first, last, seconds, heart):
    """Closed loop: ``clients`` tasks share one operation stream."""
    ops, kwargs = inputs["ops"], inputs["execute"]
    last = min(last, len(ops))
    records = []
    cursor = [first]
    origin = time.perf_counter()

    async def client():
        while cursor[0] < last:
            start = time.perf_counter()
            if start - origin >= seconds:
                break
            index = cursor[0]
            cursor[0] += 1
            report = await program.service.execute(ops[index][1], **kwargs)
            records.append(read_record(
                index, start - origin, time.perf_counter() - start, report))
            heart.beat()

    await asyncio.gather(*(client() for _ in range(inputs["clients"])))
    return records, time.perf_counter() - origin


async def run_arrivals(program, inputs, first, heart):
    """Open loop: send on schedule, whatever is still in flight.

    Latency counts from the instant a request was *due*, so the wait a
    stall imposes on later requests is in the samples; how late the
    generator itself sent is kept per request (``late``).
    """
    ops, kwargs = inputs["ops"], inputs["execute"]
    records = []
    origin = time.perf_counter()

    async def request(index, due):
        late = time.perf_counter() - origin - due
        report = await program.service.execute(ops[index][1], **kwargs)
        done = time.perf_counter() - origin
        records.append(read_record(index, due, done - due, report, late))
        heart.beat()

    tasks = []
    for offset, due in enumerate(inputs["due"]):
        delay = due - (time.perf_counter() - origin)
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(request(first + offset, due)))
    await asyncio.gather(*tasks)
    return records, time.perf_counter() - origin


def drive(program, inputs, first, last, seconds, heart):
    """The workload's own load shape over ``ops[first:last]``."""
    if not inputs["service"]:
        return run_sync(program, inputs, first, last, seconds, heart)
    if inputs["clients"]:
        return asyncio.run(
            run_clients(program, inputs, first, last, seconds, heart))
    return asyncio.run(run_arrivals(program, inputs, first, heart))


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def process_stats():
    """(pid, [state, ppid, pgrp, ...]) of every live process (Linux
    /proc); ``run.py``'s watchdog reads process groups from it too."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # the command name may hold spaces; fields follow its ")"
                yield int(entry), handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue        # the process ended while we were looking


def descendants(pid):
    """Process ids of every live descendant of ``pid``."""
    children = {}
    for child, fields in process_stats():
        children.setdefault(int(fields[1]), []).append(child)
    found, frontier = [], [pid]
    while frontier:
        frontier = [c for p in frontier for c in children.get(p, ())]
        found.extend(frontier)
    return found


def pss_mb(pid):
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
# Traced replays
# ----------------------------------------------------------------------


def plan_arguments(inputs):
    """The workload's per-execute arguments that ``plan()`` also takes."""
    return {name: value for name, value in inputs["execute"].items()
            if name != "collect_output"}


def staged_op(tracer, program, inputs, op_id, sql, misses):
    """One read through the layers' public entry points, in order."""
    from repro import Planner, parse_query

    session = program.session
    execute_kwargs = inputs["execute"]
    plan_kwargs = plan_arguments(inputs)
    collect = bool(execute_kwargs.get("collect_output"))
    with tracer.span("op", op_id) as (root, root_span):
        with tracer.span("parser.parse", op_id, root):
            parsed = parse_query(sql)
        hits = session.plan_cache.stats.hits
        with tracer.span("planner.plan", op_id, root) as (_, plan_span):
            plan = session.plan(parsed, **plan_kwargs)
        hit = session.plan_cache.stats.hits > hits
        with tracer.span("engine.execute", op_id, root) as (_, run_span):
            if plan.placement == "distributed":
                # the worker pool is reached through the session only
                report = session.execute(parsed, **execute_kwargs)
                if not report.ok:
                    raise RuntimeError(f"staged run failed: {report.error!r}")
                result = report.result
            else:
                result = plan.execute(collect_output=collect)
    optimizer = "" if hit else Planner.resolve_optimizer(
        plan_kwargs.get("optimizer", "exhaustive"), len(parsed.relations))
    plan_span.attrs = {"hit": hit, "optimizer": optimizer}
    counters = result.counters
    run_span.attrs = {
        "hash_probes": int(counters.hash_probes),
        "tuples_out": int(result.output_size),
        "peak_tuples": int(counters.peak_intermediate_tuples),
        "index_build_s": result.index_build_seconds,
        "reduction_s": result.reduction_seconds,
        "strategy": plan.cyclic_strategy if plan.is_cyclic else "",
        "scatter_s": getattr(result, "scatter_seconds", 0.0),
        "gather_s": getattr(result, "gather_seconds", 0.0),
        "workers_used": getattr(result, "workers_used", 0),
        "worker_retries": getattr(result, "worker_retries", 0),
    }
    root_span.attrs = {"kind": "read", "sql": sql}
    if not hit and len(misses) < ATTRIBUTION_SAMPLES:
        misses.append((parsed, plan, optimizer))


def staged_write(tracer, program, op_id, op):
    with tracer.span("op", op_id) as (root, root_span):
        with tracer.span("storage.write", op_id, root):
            apply_write(program.catalog, op)
    root_span.attrs = {"kind": "write"}


def replays(inputs, count, heart):
    """The first ``count`` operations twice, one client each time:
    plainly through ``QuerySession.execute`` and through the staged
    driver with a span around every layer call.

    The two replays run on separate fresh set-ups and take turns
    operation by operation (alternating who goes first), so drift of
    the host and process-wide warm-up touch both alike; the ratio of
    their total times is the tracing overhead.
    """
    tracer = Tracer()
    misses = []
    plain_program, _, _ = set_up(inputs, heart)
    staged_program = Program(inputs)
    plain = []
    try:
        for offset, sql in enumerate(inputs["pool"]):
            staged_op(tracer, staged_program, inputs, -1 - offset, sql, misses)
            heart.beat()
        before = staged_program.session.cache_stats()
        for op_id, op in enumerate(inputs["ops"][:count]):
            for turn in (op_id % 2, 1 - op_id % 2):
                if turn == 0:
                    plain += run_sync(plain_program, inputs, op_id,
                                      op_id + 1, math.inf, heart)[0]
                elif op[0] == "read":
                    staged_op(tracer, staged_program, inputs, op_id, op[1],
                              misses)
                else:
                    staged_write(tracer, staged_program, op_id, op)
        after = staged_program.session.cache_stats()
        attribution = attribute_planning(staged_program, misses, heart)
        micro = micro_timings(staged_program, inputs, heart)
    finally:
        plain_program.close()
        staged_program.close()
        reap_workers()
    caches = {
        cache: {field: after[cache][field] - before[cache][field]
                for field in ("hits", "misses", "evictions", "invalidations")}
        for cache in ("plan_cache", "stats_cache")
    }
    return {"plain": plain, "spans": tracer.to_json(), "caches": caches,
            "attribution": attribution, "micro": micro}


def timed(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def attribute_planning(program, misses, heart):
    """Stand-alone timings of what a cold ``plan()`` is made of.

    For each sampled cold plan: statistics derivation, the order search
    the optimizer knob resolved to, hash-index builds for the plan's
    probe targets, spec rehydration and basic plan verification.  One
    rooting is searched here while ``driver="auto"`` searches several,
    so the children explain part of ``planner.plan_ms``, not all of it.
    """
    from repro import (
        Catalog,
        ExecutionMode,
        beam_order,
        exhaustive_optimal,
        idp_order,
        stats_from_data,
        verify_plan,
    )

    searches = {"exhaustive": exhaustive_optimal, "idp": idp_order,
                "beam": beam_order}
    planner = program.session.planner
    fingerprint = program.catalog.fingerprint()
    samples = []
    for parsed, plan, resolved in misses:
        mode = plan.mode
        if mode.uses_semijoin:
            # semi-join plans are ordered by optimize_sj; time the
            # plain search over the same tree for comparability
            mode = ExecutionMode.COM if mode.factorized else ExecutionMode.STD
        search_kwargs = {"mode": mode, "eps": planner.eps,
                         "weights": planner.weights}
        if resolved == "idp":
            search_kwargs["block_size"] = planner.idp_block_size
        elif resolved == "beam":
            search_kwargs["beam_width"] = planner.beam_width
        bare = Catalog()
        rows = 0
        for edge in plan.query.edges:
            table = plan.catalog.table(edge.child)
            bare.add(table)
            rows += len(table)
        spec = plan.to_spec(fingerprint)
        samples.append({
            "stats_s": timed(
                lambda: stats_from_data(plan.catalog, plan.query)),
            "search_s": timed(lambda: searches[resolved](
                plan.query, plan.stats, **search_kwargs)),
            "index_s": timed(lambda: [
                bare.hash_index(edge.child, edge.child_attr)
                for edge in plan.query.edges]),
            "index_rows": rows,
            "rehydrate_s": timed(lambda: planner.rehydrate(spec, parsed)),
            "verify_s": timed(
                lambda: verify_plan(plan, source=parsed, level="basic")),
        })
        heart.beat()
    return samples


def median_seconds(call):
    return statistics.median(timed(call) for _ in range(MICRO_REPEATS))


def micro_timings(program, inputs, heart):
    """Storage and kernel primitives, timed on the workload's own
    arrays: the first join of the last (heaviest) pool query, over the
    full base tables, hash-sharded when the session is."""
    from repro import Catalog, PartitionedTable, parse_query
    from repro.engine.kernels import get_kernels

    parsed = parse_query(inputs["pool"][-1])
    plan = program.session.plan(parsed, **plan_arguments(inputs))
    edge = plan.query.edges[0]
    keys = program.catalog.table(
        parsed.relations[edge.parent]).column(edge.parent_attr)
    build = program.catalog.table(parsed.relations[edge.child])
    shards = inputs["session"].get("partitioning", "off")
    partition_seconds = 0.0
    if isinstance(shards, int) and shards > 1:
        partition_seconds = median_seconds(
            lambda: PartitionedTable.from_table(build, edge.child_attr,
                                                shards))
        build = PartitionedTable.from_table(build, edge.child_attr, shards)
    index = build.build_hash_index(edge.child_attr)
    kernels = get_kernels(plan.execution)
    counts = np.asarray(kernels.lookup(index, keys).counts)
    row_ids = np.arange(len(keys))
    heart.beat()

    def fingerprint_fresh():
        fresh = Catalog()
        for name, columns in inputs["tables"].items():
            fresh.add_table(name, columns)
        return timed(fresh.fingerprint)

    return {
        "keys": int(len(keys)),
        "repeat_rows": int(counts.sum()),
        "storage_lookup_s": median_seconds(lambda: index.lookup(keys)),
        "kernels_lookup_s": median_seconds(
            lambda: kernels.lookup(index, keys)),
        "repeat_rows_s": median_seconds(
            lambda: kernels.repeat_rows(row_ids, counts)),
        "equal_mask_s": median_seconds(
            lambda: kernels.equal_mask(keys, keys[::-1])),
        "partition_s": partition_seconds,
        "fingerprint_s": statistics.median(
            fingerprint_fresh() for _ in range(MICRO_REPEATS)),
    }


def distributed_extras(program, inputs, first_seconds):
    """Worker-pool start-up and replica size (distributed plans only)."""
    if inputs["session"].get("placement") != "distributed":
        return {"pool_start_s": 0.0, "catalog_pickle_mb": 0.0}
    warm = program.session.execute(inputs["pool"][0], **inputs["execute"])
    return {
        # the first distributed execution starts the workers; the same
        # query again does not
        "pool_start_s": max(0.0, first_seconds[0] - warm.execution_seconds),
        # computed from pickle.dumps: the bytes one worker is sent
        "catalog_pickle_mb": len(pickle.dumps(program.catalog)) / 2 ** 20,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main():
    inputs = pickle.load(sys.stdin.buffer)
    params = inputs["params"]
    heart = Heart()
    heart.beat()

    setup_seconds = []
    program = None
    for _ in range(params["setups"]):
        if program is not None:
            program.close()
            reap_workers()
        program, seconds, first_seconds = set_up(inputs, heart)
        setup_seconds.append(seconds)
    try:
        extras = distributed_extras(program, inputs, first_seconds)
        warmup = params["warmup_ops"]
        drive_inputs = dict(inputs)
        if inputs["service"] and not inputs["clients"]:
            # open loop: warm up closed-loop, then follow the schedule
            drive_inputs["clients"] = 1
        drive(program, drive_inputs, 0, warmup, math.inf, heart)
        records, wall = drive(program, inputs, warmup, len(inputs["ops"]),
                              params["seconds"], heart)
        workers = descendants(os.getpid())
        workers_mb = sum(pss_mb(pid) for pid in workers)
        memory = {"total_mb": pss_mb(os.getpid()) + workers_mb,
                  "workers_mb": workers_mb}
        service_stats = (program.service.stats()
                         if program.service is not None else None)
    finally:
        program.close()
        reap_workers()

    result = {
        "setup_seconds": setup_seconds, "records": records,
        "wall_seconds": wall, "memory": memory,
        "service_stats": service_stats, "extras": extras, "trace": None,
    }
    if params["trace"]:
        result["trace"] = replays(inputs, params["replay_ops"], heart)
    sys.stdout.write("RESULT " + json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
