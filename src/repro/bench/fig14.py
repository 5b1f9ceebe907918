"""Figure 14: predicted cost tracks measured execution time.

Synthetic queries of the four shapes; for each, random join orders are
executed under COM and the measured wall-clock time is compared with
the cost model's prediction (weighted probes per driver tuple).  The
paper shows a scatter plot; this driver reports the Pearson and
Spearman correlations plus representative scatter points.
"""

from __future__ import annotations

import numpy as np

from ..core.costmodel import CostWeights, plan_cost
from ..core.stats import stats_from_data
from ..modes import ExecutionMode
from ..workloads.shapes import PAPER_SHAPES
from ..workloads.synthetic import generate_dataset, specs_from_ranges
from .runner import render_table, timed_execute

__all__ = ["run", "main"]


def _spearman(x, y):
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    if rx.std() == 0 or ry.std() == 0:
        return float("nan")
    return float(np.corrcoef(rx, ry)[0, 1])


def run(
    driver_size=10_000,
    orders_per_query=40,
    m_range=(0.1, 0.5),
    fo_range=(1.0, 6.0),
    repeats=1,
    seed=0,
):
    """Return (summary_rows, scatter) for Figure 14.

    ``scatter`` is a list of (shape, predicted_cost, measured_seconds)
    triples; summary rows carry per-shape and pooled correlations.
    """
    weights = CostWeights()
    scatter = []
    summary = []
    all_pred, all_time = [], []
    for shape_name, builder in PAPER_SHAPES.items():
        query = builder()
        data_seed = seed + hash(shape_name) % 10_000
        specs = specs_from_ranges(query, m_range, fo_range, seed=data_seed)
        dataset = generate_dataset(query, driver_size, specs, seed=data_seed)
        stats = stats_from_data(dataset.catalog, query)
        rng = np.random.default_rng(seed + 17)
        predicted, measured = [], []
        for _ in range(orders_per_query):
            order = query.random_order(rng)
            cost = plan_cost(
                query, stats, order, ExecutionMode.COM, flat_output=True
            ).total(weights)
            times = []
            for _ in range(repeats):
                result = timed_execute(
                    dataset.catalog, query, order, ExecutionMode.COM,
                    flat_output=True,
                )
                times.append(result.wall_time)
            elapsed = min(times)
            predicted.append(cost)
            measured.append(elapsed)
            scatter.append((shape_name, cost, elapsed))
        predicted = np.asarray(predicted)
        measured = np.asarray(measured)
        all_pred.extend(predicted)
        all_time.extend(measured)
        if predicted.std() > 0 and measured.std() > 0:
            pearson = float(np.corrcoef(predicted, measured)[0, 1])
        else:
            pearson = float("nan")
        summary.append(
            {
                "shape": shape_name,
                "orders": orders_per_query,
                "pearson_r": pearson,
                "spearman_r": _spearman(predicted, measured),
                "cost_spread": float(predicted.max() / max(predicted.min(), 1e-12)),
                "time_spread": float(measured.max() / max(measured.min(), 1e-12)),
            }
        )
    all_pred = np.asarray(all_pred)
    all_time = np.asarray(all_time)
    summary.append(
        {
            "shape": "ALL",
            "orders": len(all_pred),
            "pearson_r": float(np.corrcoef(all_pred, all_time)[0, 1]),
            "spearman_r": _spearman(all_pred, all_time),
            "cost_spread": float(all_pred.max() / max(all_pred.min(), 1e-12)),
            "time_spread": float(all_time.max() / max(all_time.min(), 1e-12)),
        }
    )
    return summary, scatter


def main(**kwargs):
    summary, _scatter = run(**kwargs)
    print(render_table(
        summary,
        ["shape", "orders", "pearson_r", "spearman_r",
         "cost_spread", "time_spread"],
        title=("Figure 14: predicted cost vs measured execution time "
               "(COM, random join orders)"),
    ))
    return summary


if __name__ == "__main__":
    main()
