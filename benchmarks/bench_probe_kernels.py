"""Probe data-plane micro-benchmark: dense vs sorted ``HashIndex`` layout.

One cell per key density {1.0, 0.5, sparse} x shard count {1, 4, 8} x
key distribution {uniform, power-law}.  Every cell builds the index the
engine would build (``HashIndex`` / the per-shard indexes of a
:class:`~repro.storage.PartitionedTable`, each choosing its own layout
from its keys) and a twin forced into the sorted layout, then measures
on both

* ``lookup`` and ``contains`` throughput (probe keys per second),
* build throughput (indexed rows per second),
* bytes held (``nbytes``),

and cross-checks that both answer the probe batch identically (matched
keys, total matches, matching rows).  Sparse cells additionally time
the pre-dense-layout ``lookup`` (kept here verbatim as
:func:`legacy_lookup`) on the same arrays.

Results go to ``benchmarks/results/BENCH_probe_kernels.json``.  Three
gates, asserted in ``--smoke`` (CI) and full runs alike:

1. unsharded cells at density 1.0 choose the dense layout and probe at
   least :data:`MIN_DENSE_SPEEDUP` x the sorted layout's keys/s;
2. wherever a (shard) index chose the dense layout it holds no more
   bytes than its sorted twin;
3. sparse keys choose the sorted layout and probe no slower than
   :data:`MAX_SPARSE_SLOWDOWN` x the legacy lookup.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.storage import HashIndex, PartitionedTable

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_PATH = RESULTS_DIR / "BENCH_probe_kernels.json"

MIN_DENSE_SPEEDUP = 3.0
MAX_SPARSE_SLOWDOWN = 1.05

SIZES = {"build": 1_000_000, "probe": 2_000_000, "reps": 5}
SMOKE_SIZES = {"build": 60_000, "probe": 120_000, "reps": 7}

DENSITIES = ("1.0", "0.5", "sparse")
SHARD_COUNTS = (1, 4, 8)
DISTRIBUTIONS = ("uniform", "power_law")

#: average rows per distinct key
ROWS_PER_KEY = 4


class SortedLayoutIndex(HashIndex):
    """Benchmark-local twin whose byte rule never admits the dense
    layout (the library has no switch for this, by design)."""

    @staticmethod
    def _dense_fits(key_itemsize, span, rows, distinct):
        return False


def legacy_lookup(unique_keys, group_counts, keys):
    """``HashIndex.lookup`` as it was before the dense layout: the
    probe-side work of one batch (positions, hit mask, counts)."""
    pos = np.searchsorted(unique_keys, keys)
    pos_clipped = np.minimum(pos, len(unique_keys) - 1)
    hit = unique_keys[pos_clipped] == keys
    positions = np.where(hit, pos_clipped, -1)
    counts = np.where(hit, group_counts[pos_clipped], 0).astype(np.int64)
    return positions, counts


def key_domain(density, distinct, rng):
    """``distinct`` ascending key values at the given slot density."""
    if density == "1.0":
        return np.arange(distinct, dtype=np.int64) + 1_000
    if density == "0.5":
        return 2 * np.arange(distinct, dtype=np.int64) + 1_000
    domain = np.unique(rng.integers(0, 2**40, size=2 * distinct))
    return rng.permutation(domain)[:distinct]


def draw_positions(distribution, domain_size, size, rng):
    if distribution == "uniform":
        return rng.integers(0, domain_size, size=size)
    # Zipf-like popularity over a shuffled domain: a few heavy keys
    ranks = rng.zipf(1.3, size=size)
    return rng.permutation(domain_size)[(ranks - 1) % domain_size]


def best_seconds(fn, reps):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def build_pair(keys, num_shards):
    """``(engine index, forced-sorted twin, builders)`` for one cell."""
    if num_shards == 1:
        return (HashIndex(keys), SortedLayoutIndex(keys),
                (lambda: HashIndex(keys), lambda: SortedLayoutIndex(keys)))
    table = PartitionedTable("t", {"k": keys}, "k", num_shards)
    column = table.column("k")
    slices = [table.shard_slice(s) for s in range(num_shards)]

    def build_auto():
        return table.build_hash_index("k")

    def build_sorted():
        twin = table.build_hash_index("k")
        twin._shards = [
            SortedLayoutIndex(column[start:stop], row_offset=start)
            for start, stop in slices
        ]
        return twin

    return build_auto(), build_sorted(), (build_auto, build_sorted)


def shard_indexes(index):
    return index.shards if hasattr(index, "shards") else [index]


def measure_cell(density, num_shards, distribution, sizes, rng):
    distinct = max(1, sizes["build"] // ROWS_PER_KEY)
    domain = key_domain(density, distinct, rng)
    keys = domain[draw_positions(distribution, distinct, sizes["build"], rng)]
    # probes: build keys plus ~20 % misses around and between them
    probes = domain[draw_positions(distribution, distinct, sizes["probe"],
                                   rng)]
    miss = rng.random(sizes["probe"]) < 0.2
    probes = np.where(miss, probes + rng.integers(-3, 4, sizes["probe"]),
                      probes)
    reps = sizes["reps"]

    auto, twin, (build_auto, build_sorted) = build_pair(keys, num_shards)
    auto_result, twin_result = auto.lookup(probes), twin.lookup(probes)
    assert np.array_equal(auto_result.counts, twin_result.counts)
    assert np.array_equal(auto_result.matching_rows(),
                          twin_result.matching_rows())
    assert np.array_equal(auto.contains(probes), twin.contains(probes))
    assert auto.probe_stats(probes) == twin.probe_stats(probes)
    matched, total = auto.probe_stats(probes)

    dense_flags = [shard._offsets is not None
                   for shard in shard_indexes(auto)]
    dense_bytes_ok = all(
        a.nbytes <= b.nbytes
        for a, b, dense in zip(shard_indexes(auto), shard_indexes(twin),
                               dense_flags) if dense
    )

    def rate(fn, work):
        return work / best_seconds(fn, reps)

    n_probe, n_build = len(probes), len(keys)
    row = {
        "density": density,
        "shards": num_shards,
        "distribution": distribution,
        "rows": n_build,
        "distinct": int(auto.num_distinct),
        "probe_keys": n_probe,
        "matched_keys": int(matched),
        "total_matches": int(total),
        "dense_shards": int(sum(dense_flags)),
        "dense_nbytes_within_sorted": bool(dense_bytes_ok),
        "nbytes": {"auto": int(auto.nbytes), "sorted": int(twin.nbytes)},
        "lookup_keys_per_s": {
            "auto": round(rate(lambda: auto.lookup(probes), n_probe)),
            "sorted": round(rate(lambda: twin.lookup(probes), n_probe)),
        },
        "contains_keys_per_s": {
            "auto": round(rate(lambda: auto.contains(probes), n_probe)),
            "sorted": round(rate(lambda: twin.contains(probes), n_probe)),
        },
        "build_rows_per_s": {
            "auto": round(rate(build_auto, n_build)),
            "sorted": round(rate(build_sorted, n_build)),
        },
    }
    row["lookup_speedup"] = round(
        row["lookup_keys_per_s"]["auto"] / row["lookup_keys_per_s"]["sorted"],
        2,
    )
    if density == "sparse" and num_shards == 1:
        unique_keys, _, group_counts = twin._sorted_groups()
        # interleave so host drift hits both alike
        legacy = auto_time = float("inf")
        for _ in range(reps):
            legacy = min(legacy, best_seconds(
                lambda: legacy_lookup(unique_keys, group_counts, probes), 1))
            auto_time = min(auto_time, best_seconds(
                lambda: auto.lookup(probes), 1))
        row["legacy_lookup_keys_per_s"] = round(n_probe / legacy)
        row["lookup_vs_legacy"] = round(auto_time / legacy, 3)
    return row


def check_gates(cells):
    """The three CI gates; returns the failures as strings."""
    failures = []
    for cell in cells:
        name = (f"density={cell['density']} shards={cell['shards']} "
                f"{cell['distribution']}")
        if not cell["dense_nbytes_within_sorted"]:
            failures.append(f"{name}: a dense index holds more bytes than "
                            "its sorted twin")
        if cell["density"] == "1.0" and cell["shards"] == 1:
            if cell["dense_shards"] != 1:
                failures.append(f"{name}: density 1.0 did not choose the "
                                "dense layout")
            if cell["lookup_speedup"] < MIN_DENSE_SPEEDUP:
                failures.append(
                    f"{name}: dense lookup only {cell['lookup_speedup']}x "
                    f"the sorted layout (gate: {MIN_DENSE_SPEEDUP}x)")
        if cell["density"] == "sparse":
            if cell["dense_shards"]:
                failures.append(f"{name}: sparse keys chose the dense layout")
            slowdown = cell.get("lookup_vs_legacy")
            if slowdown is not None and slowdown > MAX_SPARSE_SLOWDOWN:
                failures.append(
                    f"{name}: sparse lookup takes {slowdown}x the legacy "
                    f"lookup (gate: {MAX_SPARSE_SLOWDOWN}x)")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: reduced sizes, same three gates")
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else SIZES
    rng = np.random.default_rng(13)
    start = time.perf_counter()

    cells = []
    for density in DENSITIES:
        for num_shards in SHARD_COUNTS:
            for distribution in DISTRIBUTIONS:
                cell = measure_cell(density, num_shards, distribution,
                                    sizes, rng)
                cells.append(cell)
                lookups = cell["lookup_keys_per_s"]
                print(
                    f"density={density:<6} shards={num_shards} "
                    f"{distribution:<9} dense_shards={cell['dense_shards']} "
                    f"lookup auto={lookups['auto'] / 1e6:7.1f}M/s "
                    f"sorted={lookups['sorted'] / 1e6:6.1f}M/s "
                    f"({cell['lookup_speedup']}x)  bytes "
                    f"{cell['nbytes']['auto']}/{cell['nbytes']['sorted']}"
                )

    failures = check_gates(cells)
    record = {
        "benchmark": "probe_kernels",
        "smoke": args.smoke,
        "host": {"cpus": os.cpu_count() or 1},
        "sizes": sizes,
        "rows_per_key": ROWS_PER_KEY,
        "cells": cells,
        "gates": {
            "min_dense_lookup_speedup": MIN_DENSE_SPEEDUP,
            "max_sparse_lookup_vs_legacy": MAX_SPARSE_SLOWDOWN,
            "dense_nbytes_within_sorted": True,
            "failures": failures,
        },
        "total_seconds": round(time.perf_counter() - start, 2),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"[saved to {RESULTS_PATH}]")
    assert not failures, "\n".join(failures)
    return record


if __name__ == "__main__":
    main()
