"""Cyclic-query benchmark: joint tree+order search vs greedy Kruskal.

For cycle / clique / grid join graphs backed by real data
(:mod:`repro.workloads.cyclic`), plans each query twice —

* **joint** — the planner's spanning-tree + join-order search (the
  default ``max_spanning_trees`` cap): candidate trees streamed in ascending
  estimated-output order, each priced by the full cost model (tree
  join + expansion + residual filters) with branch-and-bound pruning
  against the incumbent;
* **greedy** — the historical baseline (``max_spanning_trees=1``): the
  Kruskal minimum-selectivity tree only, order-optimized.

and records both predicted plan costs and planning wall times to
``benchmarks/results/BENCH_cyclic_scaling.json``.  The joint search
starts from the greedy tree, so its cost can only match or beat the
baseline; ``cost_ratio`` (greedy / joint) quantifies the win.  Small
cases are additionally executed under both plans and cross-checked for
identical result sizes before their numbers are recorded.

Run ``python benchmarks/bench_cyclic_scaling.py`` (full sweep, up to 40
relations) or ``--smoke`` for the CI gate (~seconds).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.core import CyclicPlan
from repro.planner import Planner
from repro.workloads.cyclic import CYCLIC_SHAPES, cyclic_catalog

RESULTS_DIR = Path(__file__).parent / "results"

#: per-shape relation counts (cliques grow O(n^2) predicates)
FULL_SIZES = {
    "cycle": (12, 24, 40),
    "grid": (12, 24, 40),
    "clique": (8, 12, 14),
}
SMOKE_SIZES = {
    "cycle": (12,),
    "grid": (12,),
    "clique": (8,),
}
#: execute + cross-check result sizes up to this relation count
EXECUTE_MAX_RELATIONS = 12


def measure_case(shape, n, seed, mode, optimizer,
                 cyclic_execution="auto"):
    parsed = CYCLIC_SHAPES[shape](n)
    catalog = cyclic_catalog(parsed, seed=seed)

    # Fresh planner per strategy so both pay one cold statistics
    # derivation — wall times compare search effort, not cache luck.
    joint_planner = Planner(catalog, stats_cache=True)
    start = time.perf_counter()
    joint = joint_planner.plan(parsed, mode=mode, optimizer=optimizer,
                               cyclic_execution=cyclic_execution)
    joint_s = time.perf_counter() - start

    greedy_planner = Planner(catalog, stats_cache=True)
    start = time.perf_counter()
    greedy = greedy_planner.plan(parsed, mode=mode, optimizer=optimizer,
                                 max_spanning_trees=1,
                                 cyclic_execution=cyclic_execution)
    greedy_s = time.perf_counter() - start

    if joint.predicted_cost > greedy.predicted_cost * (1 + 1e-9):
        raise AssertionError(
            f"{shape} n={n}: joint search ({joint.predicted_cost:.6g}) "
            f"must never cost more than greedy ({greedy.predicted_cost:.6g})"
        )

    entry = {
        "shape": shape,
        "relations": n,
        "predicates": len(parsed.join_predicates),
        "residuals": len(joint.residuals),
        "joint_cost": joint.predicted_cost,
        "greedy_cost": greedy.predicted_cost,
        "cost_ratio": round(greedy.predicted_cost / joint.predicted_cost, 4),
        "joint_beats_greedy":
            joint.predicted_cost < greedy.predicted_cost * (1 - 1e-9),
        # tree identity, not plan identity: two plans can pick the same
        # spanning tree yet differ in join order or execution mode
        "same_tree": (
            CyclicPlan(joint.query, list(joint.residuals)).tree_signature()
            == CyclicPlan(greedy.query,
                          list(greedy.residuals)).tree_signature()
        ),
        "joint_plan_s": round(joint_s, 4),
        "greedy_plan_s": round(greedy_s, 4),
        "joint_mode": str(joint.mode),
        "joint_driver": joint.query.root,
        "joint_strategy": joint.cyclic_strategy,
        "greedy_strategy": greedy.cyclic_strategy,
    }

    if n <= EXECUTE_MAX_RELATIONS:
        start = time.perf_counter()
        joint_result = joint.execute()
        joint_exec_s = time.perf_counter() - start
        start = time.perf_counter()
        greedy_result = greedy.execute()
        greedy_exec_s = time.perf_counter() - start
        if joint_result.output_size != greedy_result.output_size:
            raise AssertionError(
                f"{shape} n={n}: joint and greedy plans disagree on the "
                f"result size ({joint_result.output_size} vs "
                f"{greedy_result.output_size})"
            )
        entry.update(
            output_size=joint_result.output_size,
            joint_exec_s=round(joint_exec_s, 4),
            greedy_exec_s=round(greedy_exec_s, 4),
        )
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run for CI")
    parser.add_argument("--mode", default="auto",
                        help='execution strategy (default "auto")')
    parser.add_argument("--optimizer", default="auto",
                        help='order-search algorithm (default "auto")')
    parser.add_argument("--cyclic-execution", default="auto",
                        choices=("auto", "tree_filter", "wcoj"),
                        help="cyclic strategy knob forwarded to the "
                             'planner (default "auto": the cost model '
                             "picks tree+filter or wcoj per query)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    start = time.perf_counter()
    entries = [
        measure_case(shape, n, args.seed, args.mode, args.optimizer,
                     cyclic_execution=args.cyclic_execution)
        for shape, shape_sizes in sizes.items()
        for n in shape_sizes
    ]
    winning_shapes = sorted({
        entry["shape"] for entry in entries if entry["joint_beats_greedy"]
    })
    record = {
        "benchmark": "cyclic_scaling",
        "mode": "smoke" if args.smoke else "full",
        "plan_mode": args.mode,
        "optimizer": args.optimizer,
        "cyclic_execution": args.cyclic_execution,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "wall_s": round(time.perf_counter() - start, 2),
        "cases": entries,
        "shapes_with_improvement": winning_shapes,
        "best_cost_ratio": max(entry["cost_ratio"] for entry in entries),
    }
    if not winning_shapes:
        raise AssertionError(
            "expected the joint search to beat the greedy tree on at "
            "least one shape; none improved"
        )
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_cyclic_scaling.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"[saved to {path}]")


if __name__ == "__main__":
    main()
