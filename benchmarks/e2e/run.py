"""The repository's canonical benchmark: six serving workloads.

One command generates every workload from a seed, runs each in its own
fresh subprocess (one after another — the reference host has two
cores), checks every answer against an oracle and prints every metric
by name with its unit.

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME]
                                  [--repeat K] [--label L] [--quick]

runs the untraced and the traced run of each workload and prints one
JSON document (also written under ``benchmarks/e2e/out/``).  The form
the benchmark contract uses,

    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
                                  --seconds S --trace 0|1

makes one run and prints, as its last line, ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
OUT = HERE / "out"

#: timed-phase length when the command line gives none (the value
#: BENCHMARK.json's run_seconds hands the driver's runs)
DEFAULT_SECONDS = 10.0
#: set-ups per untraced run; setup_s is their median
SETUPS = 5
#: operations each traced replay covers — more than the 128-entry plan
#: cache, so cold_planning's evictions show in a count-bounded replay
REPLAY_OPS = 160
#: share of --seconds a traced run gives its untraced phase (the two
#: replays, bounded by REPLAY_OPS, take the rest)
TRACED_UNTRACED_SHARE = 0.5
#: seconds without a completed operation before the watchdog kills the
#: workload subprocess and its workers
OPERATION_DEADLINE = 30.0

QUICK = {"seconds": 1.0, "scale": 0.25, "replay_ops": 20}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def check_environment():
    if "REPRO_EXECUTION" in os.environ:
        fail("REPRO_EXECUTION is set; it silently swaps the kernel path "
             "under every execution=\"auto\" — unset it to benchmark")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        fail(f"the program's source is missing: {SOURCE / 'repro'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json is missing at the repository root")


# ----------------------------------------------------------------------
# The workload subprocess and its watchdog
# ----------------------------------------------------------------------


def group_members(pgid):
    """Live (not zombie) process ids whose process group is ``pgid``."""
    from child import process_stats

    return [pid for pid, fields in process_stats()
            if int(fields[2]) == pgid and fields[0] != "Z"]


def stop_group(process):
    """Kill the subprocess's whole process group and wait it out.

    The subprocess leads its own session, so worker processes it forked
    — orphaned or not — are in the group and die with it.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + 10.0
    while group_members(process.pid) and time.monotonic() < deadline:
        time.sleep(0.02)


def run_child(inputs, deadline=OPERATION_DEADLINE):
    """Run ``child.py`` on ``inputs``; its result, or ``None`` when the
    watchdog had to kill it (no operation completed for ``deadline``
    seconds) or it died."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE), str(HERE)]
        + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH")
           else []))
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=environment,
        start_new_session=True,
    )
    result = None
    try:
        process.stdin.write(pickle.dumps(inputs))
        process.stdin.close()
        descriptor = process.stdout.fileno()
        pending = b""
        while True:
            ready, _, _ = select.select([descriptor], [], [], deadline)
            if not ready:
                print(f"run.py: watchdog: no operation completed for "
                      f"{deadline:.0f} s; killing the workload subprocess",
                      file=sys.stderr)
                return None
            chunk = os.read(descriptor, 1 << 20)
            if not chunk:
                break
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                if line.startswith(b"RESULT "):
                    result = json.loads(line[len(b"RESULT "):])
        if process.wait() != 0:
            return None
        return result
    finally:
        stop_group(process)


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def one_run(name, seed, seconds, trace, scale=1.0, replay_ops=REPLAY_OPS,
            setups=SETUPS):
    """Generate, run, check and measure one workload once; ``seconds``
    is the length of its (untraced) timed phase.

    Returns ``{"correct", "attempted", "failed", "end_to_end",
    "per_layer", "info", "trace"}``; the metric groups are ``None``
    when the subprocess had to be killed — every operation of such a
    run counts as failed.
    """
    import gen
    import metrics

    started = time.perf_counter()
    workload = gen.generate(name, seed, seconds, scale)
    inputs = workload.program_inputs()
    inputs["params"] = {
        "seconds": seconds, "trace": bool(trace),
        "setups": 1 if trace else setups,
        "replay_ops": replay_ops, "warmup_ops": gen.WARMUP_OPS,
    }
    datagen_seconds = time.perf_counter() - started
    result = run_child(inputs)
    if result is None:
        return {"correct": False, "attempted": 1, "failed": 1,
                "end_to_end": None, "per_layer": None, "trace": None,
                "info": {"killed": True, "failed_share": 1.0}}
    failures = metrics.check_answers(workload, result)
    values, info = metrics.end_to_end(workload, result)
    info["datagen_s"] = datagen_seconds
    info["failures"] = failures[:5]
    run = {
        "correct": not failures, "attempted": info["attempted"],
        "failed": info["failed"],
        "end_to_end": metrics.with_units(values, "end_to_end"),
        "per_layer": None, "trace": None, "info": info,
    }
    if trace:
        layer_values, trace_info = metrics.per_layer(workload, result)
        run["per_layer"] = metrics.with_units(layer_values, "per_layer")
        run["trace"] = result["trace"]["spans"]
        info.update(trace_info)
    return run


def write_trace(name, spans):
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{name}.json").write_text(json.dumps(spans) + "\n")


def contract_run(args):
    """One run in the benchmark contract's output format."""
    seconds = args.seconds * (TRACED_UNTRACED_SHARE if args.trace else 1.0)
    run = one_run(args.workload, args.seed, seconds, args.trace)
    if run["trace"] is not None:
        write_trace(args.workload, run["trace"])
    group = run["per_layer"] if args.trace else run["end_to_end"]
    print(json.dumps({"info": run["info"]}))
    if group is None:
        # the subprocess was killed: there is nothing measured to print
        raise SystemExit(1)
    print(json.dumps({"correct": run["correct"],
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": group}))
    raise SystemExit(0 if run["correct"] else 1)


# ----------------------------------------------------------------------
# The full benchmark
# ----------------------------------------------------------------------


def host_stamp():
    import multiprocessing

    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None       # the driver's checkouts are not repositories
    return {
        "commit": commit, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


def full_run(args):
    import gen

    names = [args.workload] if args.workload else list(gen.WORKLOAD_NAMES)
    seconds = QUICK["seconds"] if args.quick else args.seconds
    document = {
        "benchmark": "e2e", "quick": bool(args.quick), "seed": args.seed,
        "seconds": seconds, "host": host_stamp(), "runs": [],
    }
    for repeat in range(args.repeat):
        workloads = {}
        for name in names:
            if args.quick:
                # one subprocess gives both groups; good for a smoke
                # test, not for numbers (compare.py refuses it)
                traced = one_run(name, args.seed, seconds, True,
                                 QUICK["scale"], QUICK["replay_ops"])
                untraced = traced
            else:
                untraced = one_run(name, args.seed, seconds, False)
                traced = one_run(name, args.seed,
                                 seconds * TRACED_UNTRACED_SHARE, True)
            if traced["trace"] is not None:
                write_trace(name, traced["trace"])
            workloads[name] = {
                "correct": untraced["correct"] and traced["correct"],
                "end_to_end": untraced["end_to_end"],
                "per_layer": traced["per_layer"],
                "info": untraced["info"],
                "trace_info": {key: traced["info"].get(key) for key in (
                    "replayed_ops", "attribution_samples", "span_coverage",
                    "planner_share", "engine_share", "failed_share")},
            }
            print(f"[{repeat + 1}/{args.repeat}] {name}: "
                  + summary_line(workloads[name]), file=sys.stderr)
        document["runs"].append({"repeat": repeat, "workloads": workloads})
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-{args.label}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(document, indent=1))
    print(f"[saved to {path}]", file=sys.stderr)
    failed = [name for run in document["runs"]
              for name, entry in run["workloads"].items()
              if not entry["correct"]]
    raise SystemExit(1 if failed else 0)


def summary_line(entry):
    if entry["end_to_end"] is None:
        return "KILLED by the watchdog (failed_share 1.0)"
    parts = [f"{name}={spec['value']:.4g}{spec['unit']}"
             for name, spec in entry["end_to_end"].items()]
    parts.append(f"failed_share={entry['info']['failed_share']:.3g}")
    return " ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract form: one run, end-to-end (0) or "
                             "per-layer (1) metrics on the last line")
    parser.add_argument("--repeat", type=int, default=1,
                        help="result sets to produce (same seed each)")
    parser.add_argument("--label", default="run",
                        help="results go to out/results-<label>.json")
    parser.add_argument("--quick", action="store_true",
                        help="a < 20 s smoke run, marked \"quick\": true")
    args = parser.parse_args(argv)

    check_environment()
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SOURCE))
    import gen

    if args.workload and args.workload not in gen.WORKLOAD_NAMES:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(gen.WORKLOAD_NAMES)}")
    if args.trace is not None:
        if not args.workload:
            fail("--trace needs --workload")
        contract_run(args)
    full_run(args)


if __name__ == "__main__":
    main()
