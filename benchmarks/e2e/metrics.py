"""From raw observations to named metrics.

``BENCHMARK.json`` at the repository root is the one declaration of
metric names, units and bounds; :func:`declared` reads it and
:func:`with_units` refuses a value whose name it does not declare, so
what the harness prints and what the file declares cannot drift apart.

:func:`check_answers` is where correctness is decided — here, in the
load generator, against the oracle — and :func:`end_to_end` /
:func:`per_layer` turn one subprocess result into metric values.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import oracle
from spans import Span, mean, percentile, self_times_ns

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def declared():
    """{"end_to_end": {name: spec}, "per_layer": {name: spec}}."""
    document = json.loads(BENCHMARK_JSON.read_text())
    return {
        kind: {spec["name"]: spec for spec in document[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def with_units(values, kind):
    specs = declared()[kind]
    if set(values) != set(specs):
        raise KeyError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(set(values) - set(specs))}, "
            f"missing {sorted(set(specs) - set(values))}")
    return {name: {"value": float(values[name]), "unit": specs[name]["unit"]}
            for name in specs}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def check_answers(workload, result):
    """Mark every timed record ``correct`` or not; returns the failures.

    Walks the operation stream in issue order so that writes reach the
    oracle's copy of the tables before the reads that follow them (the
    writing workload has one client, so issue order is execution
    order).  A read is correct when the program reported success and
    its result size — and, where rows were collected, their checksum —
    equals the oracle's.  Sizes are computed once per distinct (query,
    data version).
    """
    size_of = oracle.cyclic_join_size if workload.cyclic else oracle.join_size
    checksums = (oracle.local_checksums(workload)
                 if workload.execute.get("collect_output") else {})
    # the oracle's own copy of the data: writes change it as they go
    tables = {name: {col: values.copy() for col, values in columns.items()}
              for name, columns in workload.tables.items()}
    by_index = {record["i"]: record for record in result["records"]}
    last = max(by_index, default=-1)
    expected = {}
    version = 0
    failures = []
    for index in range(last + 1):
        op = workload.ops[index]
        if op[0] != "read":
            oracle.apply_write(tables, op)
            version += 1
            continue
        record = by_index.get(index)
        if record is None:
            continue
        query = op[1]
        key = (query, version)
        if key not in expected:
            expected[key] = size_of(tables, query)
        problem = None
        if not record["ok"]:
            problem = record["error"]
        elif record["size"] != expected[key]:
            problem = f"size {record['size']} != oracle {expected[key]}"
        elif checksums and record["checksum"] != checksums[query.sql()]:
            problem = "row checksum differs from the local session's"
        record["correct"] = problem is None
        if problem is not None:
            failures.append({"op": index, "sql": query.sql(),
                             "problem": problem})
    for record in result["records"]:
        record.setdefault("correct", record["ok"])      # writes
    return failures


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------


def write_to_read_ms(workload, records):
    """Per write: start of the write -> completion of the first correct
    read of a query over the written table."""
    samples = []
    pending = []        # (table, start) of writes not yet read back
    for record in sorted(records, key=lambda r: r["i"]):
        op = workload.ops[record["i"]]
        if record["kind"] == "write":
            pending.append((op[1], record["start"]))
            continue
        if not record["correct"]:
            continue
        still = []
        for table, start in pending:
            if table in op[1].relations:
                samples.append(
                    (record["start"] + record["latency"] - start) * 1e3)
            else:
                still.append((table, start))
        pending = still
    return samples


def end_to_end(workload, result):
    """The end-to-end metrics plus the figures printed beside them."""
    records = result["records"]
    reads = [r for r in records if r["kind"] == "read" and r["correct"]]
    latencies = [r["latency"] * 1e3 for r in reads]
    correct = sum(1 for r in records if r["correct"])
    values = {
        "qps": correct / result["wall_seconds"],
        "p50_ms": percentile(latencies, 0.50),
        "p95_ms": percentile(latencies, 0.95),
        "setup_s": statistics.median(result["setup_seconds"]),
        "mem_mb": result["memory"]["total_mb"],
    }
    info = {
        "p99_ms": percentile(latencies, 0.99),
        "timed_reads": len(reads),
        "timed_seconds": result["wall_seconds"],
        "attempted": len(records),
        "failed": len(records) - correct,
        "failed_share": (len(records) - correct) / max(1, len(records)),
        "setup_seconds": result["setup_seconds"],
    }
    return values, info


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------


def _ms(seconds):
    return [value * 1e3 for value in seconds]


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer(workload, result):
    """The per-layer metrics of one traced run, and trace bookkeeping."""
    trace = result["trace"]
    spans = [Span(**span) for span in trace["spans"]]
    parts_of = {}       # root span index -> {child span name: span}
    for span in spans:
        if span.parent >= 0:
            parts_of.setdefault(span.parent, {})[span.name] = span
    roots = [(index, span) for index, span in enumerate(spans)
             if span.parent < 0]
    # set-up's pool queries carry negative op ids: their plans count as
    # cold plans, their time is not operation time
    replay = [(index, root) for index, root in roots if root.op_id >= 0]
    reads = [dict(parts_of[index], root=root) for index, root in replay
             if root.attrs["kind"] == "read"]
    writes = [parts_of[index] for index, root in replay
              if root.attrs["kind"] == "write"]
    cold_plans = [parts_of[index]["planner.plan"] for index, root in roots
                  if root.attrs["kind"] == "read"
                  and not parts_of[index]["planner.plan"].attrs["hit"]]

    def is_hit(read):
        return read["planner.plan"].attrs["hit"]

    def is_wcoj(read):
        return read["engine.execute"].attrs["strategy"] == "wcoj"

    def span_ms(group, name, keep=lambda read: True):
        return [read[name].duration_ns / 1e6 for read in group if keep(read)]

    def run_attr(name, keep=lambda read: True):
        return [read["engine.execute"].attrs[name] for read in reads
                if keep(read)]

    samples = trace["attribution"]
    micro = trace["micro"]
    plan_cache, stats_cache = (trace["caches"][name]
                               for name in ("plan_cache", "stats_cache"))
    stats_ms = mean(_ms(s["stats_s"] for s in samples))
    search_ms = mean(_ms(s["search_s"] for s in samples))
    execute_seconds = sum(span_ms(reads, "engine.execute")) / 1e3
    tuples_out = sum(run_attr("tuples_out"))
    hash_probes = sum(run_attr("hash_probes"))
    scattered = [read for read in reads
                 if read["engine.execute"].attrs["workers_used"]]

    # what reads pay for a write: every cold read after one, over what
    # the same statement costs as a plan-cache hit
    warm_ms = {}
    for read in reads:
        if is_hit(read):
            warm_ms.setdefault(read["root"].attrs["sql"], []).append(
                read["root"].duration_ns / 1e6)
    rebuild_ms = sum(
        read["root"].duration_ns / 1e6
        - statistics.median(warm_ms[read["root"].attrs["sql"]])
        for read in reads
        if writes and not is_hit(read)
        and read["root"].attrs["sql"] in warm_ms)

    # the untraced phase of the same run: real client concurrency
    served = [r for r in result["records"]
              if r["kind"] == "read" and r["correct"]]
    service = result["service_stats"]
    late = [r["late"] * 1e3 for r in served] if workload.due else []
    w2r = write_to_read_ms(workload, result["records"])

    plain_reads = [r for r in trace["plain"] if r["kind"] == "read"]
    plain_ms = sum(r["latency"] for r in trace["plain"]) * 1e3
    staged_ms = sum(root.duration_ns for _, root in replay) / 1e6

    values = {
        "parser.parse_ms": mean(span_ms(reads, "parser.parse")),
        "stats.derive_ms": stats_ms,
        "stats.cache_hit_ratio": _ratio(
            stats_cache["hits"], stats_cache["hits"] + stats_cache["misses"]),
        "optimizer.search_ms": search_ms,
        **{f"optimizer.resolved_share.{name}": _ratio(
            sum(1 for plan in cold_plans if plan.attrs["optimizer"] == name),
            len(cold_plans)) for name in ("exhaustive", "idp", "beam")},
        "planner.plan_ms": mean(span_ms(reads, "planner.plan")),
        "planner.self_ms": max(0.0, mean(
            plan.duration_ns / 1e6 for plan in cold_plans)
            - stats_ms - search_ms),
        "planner.rehydrate_ms": mean(_ms(s["rehydrate_s"] for s in samples)),
        "plancache.hit_ratio": _ratio(
            plan_cache["hits"], plan_cache["hits"] + plan_cache["misses"]),
        "plancache.lookup_ms": mean(span_ms(reads, "planner.plan", is_hit)),
        "plancache.evictions": plan_cache["evictions"],
        "plancache.invalidations": plan_cache["invalidations"],
        "storage.index_build_ms": mean(_ms(s["index_s"] for s in samples)),
        "storage.index_build_rows_per_s": _ratio(
            sum(s["index_rows"] for s in samples),
            sum(s["index_s"] for s in samples)),
        "storage.lookup_ns_per_key":
            micro["storage_lookup_s"] / micro["keys"] * 1e9,
        "storage.partition_ms": micro["partition_s"] * 1e3,
        "storage.fingerprint_ms": micro["fingerprint_s"] * 1e3,
        "storage.write_ack_ms": mean(span_ms(writes, "storage.write")),
        "storage.rebuild_ms_per_write": _ratio(rebuild_ms, len(writes)),
        "engine.execute_ms": mean(span_ms(reads, "engine.execute")),
        "engine.index_build_ms": mean(_ms(run_attr("index_build_s"))),
        "engine.reduction_ms": mean(_ms(run_attr("reduction_s"))),
        "engine.hash_probes": hash_probes,
        "engine.tuples_out": tuples_out,
        "engine.peak_tuples": max(run_attr("peak_tuples"), default=0),
        "engine.probes_per_output_tuple": _ratio(hash_probes, tuples_out),
        "engine.tuples_per_s": _ratio(tuples_out, execute_seconds),
        "kernels.lookup_ns_per_key":
            micro["kernels_lookup_s"] / micro["keys"] * 1e9,
        "kernels.repeat_rows_ns_per_row":
            _ratio(micro["repeat_rows_s"], micro["repeat_rows"]) * 1e9,
        "kernels.equal_mask_ns_per_row":
            micro["equal_mask_s"] / micro["keys"] * 1e9,
        "wcoj.execute_ms": mean(span_ms(reads, "engine.execute", is_wcoj)),
        "wcoj.peak_tuples": max(run_attr("peak_tuples", is_wcoj), default=0),
        "wcoj.strategy_share": _ratio(
            sum(1 for read in reads if is_wcoj(read)), len(reads)),
        "session.overhead_ms": mean(
            (r["latency"] - r["plan_s"] - r["exec_s"]) * 1e3
            for r in plain_reads),
        # time in the service beyond the session's own timers; an open
        # loop's latency also holds how late the generator sent
        "async_service.queue_wait_ms": mean(
            (r["latency"] - r["late"] - r["plan_s"] - r["exec_s"]) * 1e3
            for r in served) if service else 0.0,
        "async_service.fast_path_share": _ratio(
            service["cache_hit_fast_path"], service["submitted"])
        if service else 0.0,
        "async_service.heavy_admissions":
            service["heavy_admissions"] if service else 0,
        "async_service.generator_late_p95_ms":
            percentile(late, 0.95) if late else 0.0,
        "distributed.scatter_ms": mean(_ms(run_attr("scatter_s"))),
        "distributed.gather_ms": mean(_ms(run_attr("gather_s"))),
        "distributed.worker_ms": mean(
            read["engine.execute"].duration_ns / 1e6
            - (read["engine.execute"].attrs["scatter_s"]
               + read["engine.execute"].attrs["gather_s"]) * 1e3
            for read in scattered),
        "distributed.pool_start_s": result["extras"]["pool_start_s"],
        "distributed.workers_pss_mb": result["memory"]["workers_mb"],
        "distributed.catalog_pickle_mb":
            result["extras"]["catalog_pickle_mb"],
        "distributed.worker_retries": sum(run_attr("worker_retries")),
        "analysis.verify_ms": mean(_ms(s["verify_s"] for s in samples)),
        "trace.overhead_share": staged_ms / plain_ms - 1.0,
        "write_to_read_p50_ms": percentile(w2r, 0.50) if w2r else 0.0,
    }
    own = self_times_ns(spans)
    info = {
        "replayed_ops": len(replay),
        "attribution_samples": len(samples),
        # share of operation time inside a named layer span
        "span_coverage": 1.0 - _ratio(
            sum(own[index] for index, _ in replay),
            sum(root.duration_ns for _, root in replay)),
        "planner_share": _ratio(
            sum(span_ms(reads, "planner.plan")), staged_ms),
        "engine_share": _ratio(
            sum(span_ms(reads, "engine.execute")), staged_ms),
    }
    return values, info
