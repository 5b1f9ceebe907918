"""Figure 4: sampling vs naive estimation of match probability and fanout.

Random two-relation joins with random predicates over the DBLP-like
dataset; average q-error of the naive estimator and of correlated
samples of three sizes, split by low (< 0.05) and high match
probability.  The paper's 0.1% / 0.5% / 1% sample fractions refer to
multi-million-row relations; on the scaled-down stand-in the fractions
are scaled up (:data:`SAMPLE_FRACTIONS`, floored at 60 probe tuples) so
the *absolute* sample sizes are comparable.
"""

from __future__ import annotations

import numpy as np

from ..estimation import (
    CorrelatedSample,
    naive_estimate_from_tables,
    q_error,
    true_join_stats,
)
from ..workloads.dblp_like import build_estimation_dataset
from .runner import render_table

__all__ = ["run", "main"]

#: paper label -> sample fraction on the stand-in dataset.  The paper's
#: relations have millions of rows, so its 0.1% samples hold thousands
#: of tuples; these fractions give comparable absolute sample sizes on
#: the scaled-down stand-in.
SAMPLE_FRACTIONS = {"0.1%": 0.04, "0.5%": 0.12, "1%": 0.25}
#: the paper splits results at this match probability
M_SPLIT = 0.05


def run(num_tasks=80, scale=2.0, seed=0, q_error_floor=1e-3):
    """Return Figure 4 rows: avg q-error per estimator / bucket / quantity."""
    dataset = build_estimation_dataset(scale=scale, seed=seed)
    tasks = dataset.random_tasks(num_tasks, seed=seed + 1)
    errors = {}  # (estimator, bucket, quantity) -> list of q-errors
    sample_cache = {}
    for task in tasks:
        probe = dataset.catalog.table(task.probe_relation)
        build = dataset.catalog.table(task.build_relation)
        truth = true_join_stats(
            probe, build, task.probe_attr, task.build_attr,
            task.probe_predicate, task.build_predicate,
        )
        bucket = "m<0.05" if truth.m < M_SPLIT else "m>0.05"
        estimates = {
            "naive": naive_estimate_from_tables(
                probe, build, task.probe_attr, task.build_attr,
                task.build_predicate, task.probe_predicate,
            )
        }
        for label, fraction in SAMPLE_FRACTIONS.items():
            key = (task.probe_relation, task.build_relation,
                   task.probe_attr, task.build_attr, label)
            sample = sample_cache.get(key)
            if sample is None:
                # Floor the absolute sample size: the paper's relations
                # have millions of rows, so even its 0.1% samples are
                # thousands of tuples; tiny stand-in relations would
                # otherwise yield single-digit samples.
                effective = max(fraction, min(1.0, 60.0 / len(probe)))
                sample = CorrelatedSample(
                    probe, build, task.probe_attr, task.build_attr,
                    sample_fraction=effective, seed=seed + 2,
                )
                sample_cache[key] = sample
            estimates[label] = sample.estimate(
                task.probe_predicate, task.build_predicate
            )
        for estimator, est in estimates.items():
            errors.setdefault((estimator, bucket, "match_prob"), []).append(
                q_error(est.m, truth.m, floor=q_error_floor)
            )
            errors.setdefault((estimator, bucket, "fanout"), []).append(
                q_error(est.fo, truth.fo, floor=q_error_floor)
            )
    rows = []
    for estimator in ["naive"] + list(SAMPLE_FRACTIONS):
        for bucket in ("m<0.05", "m>0.05"):
            for quantity in ("match_prob", "fanout"):
                values = errors.get((estimator, bucket, quantity), [])
                if not values:
                    continue
                arr = np.asarray(values)
                rows.append(
                    {
                        "estimator": estimator,
                        "bucket": bucket,
                        "quantity": quantity,
                        "avg_q_error": float(arr.mean()),
                        "std": float(arr.std()),
                        "n": len(arr),
                    }
                )
    return rows


def main(**kwargs):
    rows = run(**kwargs)
    print(render_table(
        rows,
        ["estimator", "bucket", "quantity", "avg_q_error", "std", "n"],
        title="Figure 4: q-error of match probability / fanout estimators",
    ))
    return rows


if __name__ == "__main__":
    main()
