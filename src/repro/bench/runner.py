"""Shared experiment-running helpers for the figure benchmarks.

Besides the per-figure helpers (:func:`run_all_modes`,
:func:`render_table`, ...), this module hosts the **figure suite
runner**: :func:`run_figures` executes any subset of the paper's
figures, optionally fanned out over a :class:`ProcessPoolExecutor`
(``jobs > 1``) and optionally in **smoke mode** — drastically reduced
problem sizes per figure (:data:`SMOKE_PARAMS`) that exercise every
driver end-to-end in seconds, which is what CI runs on every push.
"""

from __future__ import annotations

import io
import math
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import redirect_stdout
from dataclasses import dataclass, field

from ..core.costmodel import CostWeights
from ..engine import BudgetExceededError, execute
from ..engine.kernels import get_kernels
from ..modes import ExecutionMode

__all__ = [
    "FigureResult",
    "ModeRun",
    "SMOKE_PARAMS",
    "run_all_modes",
    "timed_execute",
    "run_figures",
    "relative_to",
    "render_table",
    "geometric_mean",
]

#: the paper's operation weights (Section 5.4)
PAPER_WEIGHTS = CostWeights()


@dataclass
class ModeRun:
    """Execution metrics of one mode on one query (or a timeout)."""

    mode: ExecutionMode
    wall_time: float = math.nan
    hash_probes: int = 0
    bitvector_probes: int = 0
    semijoin_probes: int = 0
    tuples_generated: int = 0
    output_size: int = 0
    weighted_cost: float = math.nan
    timed_out: bool = False

    @classmethod
    def from_result(cls, result):
        return cls(
            mode=result.mode,
            wall_time=result.wall_time,
            hash_probes=result.counters.hash_probes,
            bitvector_probes=result.counters.bitvector_probes,
            semijoin_probes=result.counters.semijoin_probes,
            tuples_generated=result.counters.tuples_generated,
            output_size=result.output_size,
            weighted_cost=result.counters.weighted_cost(PAPER_WEIGHTS),
        )

    @classmethod
    def timeout(cls, mode):
        return cls(mode=ExecutionMode(mode), timed_out=True)


def timed_execute(catalog, query, order, mode, flat_output=True, **options):
    """:func:`~repro.engine.execute`, with ``wall_time`` covering flat
    output as the paper's figures time it: the engine generates no flat
    tuples for a run that keeps no rows, so a factorized run's expansion
    is drained here, in the engine's batches, on its kernels."""
    result = execute(catalog, query, order, mode, flat_output=flat_output,
                     **options)
    if flat_output and result.factorized is not None:
        weights = result.factorized.subtree_weights()
        start = time.perf_counter()
        for _ in result.factorized.expand(
                kernels=get_kernels(result.execution), weights=weights):
            pass
        result.wall_time += time.perf_counter() - start
    return result


def run_all_modes(
    catalog,
    query,
    order,
    modes=None,
    flat_output=True,
    child_orders=None,
    max_intermediate_tuples=20_000_000,
):
    """Execute a query under every mode; budget overruns become timeouts."""
    modes = modes or ExecutionMode.all_modes()
    runs = {}
    for mode in modes:
        try:
            result = timed_execute(
                catalog,
                query,
                order,
                mode,
                flat_output=flat_output,
                child_orders=child_orders if ExecutionMode(mode).uses_semijoin else None,
                max_intermediate_tuples=max_intermediate_tuples,
            )
        except BudgetExceededError:
            runs[ExecutionMode(mode)] = ModeRun.timeout(mode)
            continue
        runs[ExecutionMode(mode)] = ModeRun.from_result(result)
    return runs


def relative_to(runs, baseline=ExecutionMode.COM, metric="wall_time"):
    """Per-mode metric normalized by the baseline mode's value."""
    base = getattr(runs[baseline], metric)
    ratios = {}
    for mode, run in runs.items():
        if run.timed_out or base in (0, 0.0) or math.isnan(base):
            ratios[mode] = math.inf if run.timed_out else math.nan
        else:
            ratios[mode] = getattr(run, metric) / base
    return ratios


def geometric_mean(values):
    """Geometric mean ignoring NaN; returns inf if any value is inf."""
    cleaned = [v for v in values if not (isinstance(v, float) and math.isnan(v))]
    if not cleaned:
        return math.nan
    if any(math.isinf(v) for v in cleaned):
        return math.inf
    log_sum = sum(math.log(max(v, 1e-12)) for v in cleaned)
    return math.exp(log_sum / len(cleaned))


# ----------------------------------------------------------------------
# Figure-suite runner (serial or process-parallel, full or smoke)
# ----------------------------------------------------------------------

#: per-figure reduced parameters for --smoke: every driver runs its full
#: code path on problem sizes that finish in seconds, so the whole
#: suite is CI-runnable on every push.
SMOKE_PARAMS = {
    "4": {"num_tasks": 8, "scale": 1.0},
    "6": {"num_samples": 8, "num_dimensions": 6},
    "10": {"num_trees": 8, "max_nodes": 10},
    "11": {"driver_size": 1_500, "shapes": ["star", "snowflake_3_2"],
           "m_ranges": [(0.1, 0.5)]},
    "12": {"num_queries": 2, "scale": 0.25},
    "13": {"driver_size": 50_000, "m_values": [0.2, 0.5, 0.8]},
    "14": {"driver_size": 1_500, "orders_per_query": 6},
    "15": {"driver_size": 1_500, "normal_sigmas": (0.5, 4.0),
           "exponential_means": (2.0, 10.0)},
    "16": {"driver_size": 600, "num_orders": 2,
           "ce_datasets": ("dblp",), "ce_scale": 0.15},
}


@dataclass
class FigureResult:
    """Outcome of one figure driver run (possibly in a worker process)."""

    figure: str
    ok: bool = True
    seconds: float = 0.0
    #: everything the driver printed (tables), shown by the CLI
    output: str = ""
    #: formatted traceback when the driver raised
    error: str = None
    rows: object = field(default=None, repr=False)


class _TeeIO(io.StringIO):
    """StringIO that also mirrors writes to another stream (live output)."""

    def __init__(self, mirror):
        super().__init__()
        self._mirror = mirror

    def write(self, text):
        self._mirror.write(text)
        return super().write(text)

    def flush(self):
        self._mirror.flush()
        super().flush()


def _run_figure(figure, smoke=False, mirror=None):
    """Run one figure driver, capturing stdout; never raises.

    ``mirror`` optionally receives the driver's output live as well
    (serial runs), so long full-scale figures stream instead of
    printing only on completion.  Module-level so it pickles for
    :class:`ProcessPoolExecutor`.
    """
    from . import FIGURES  # local import: avoids a circular module import

    kwargs = SMOKE_PARAMS.get(figure, {}) if smoke else {}
    buffer = _TeeIO(mirror) if mirror is not None else io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buffer):
            rows = FIGURES[figure].main(**kwargs)
    except Exception:  # noqa: BLE001 - reported to the caller
        return FigureResult(
            figure=figure,
            ok=False,
            seconds=time.perf_counter() - start,
            output=buffer.getvalue(),
            error=traceback.format_exc(),
        )
    return FigureResult(
        figure=figure,
        ok=True,
        seconds=time.perf_counter() - start,
        output=buffer.getvalue(),
        rows=rows,
    )


def run_figures(figures=None, jobs=1, smoke=False, on_result=None,
                stream=False):
    """Run figure drivers, serially or across worker processes.

    Parameters
    ----------
    figures:
        Figure ids (strings) to run; ``None`` means the full suite.
    jobs:
        Number of worker processes; ``1`` runs in-process.  The figures
        are independent, so this is an embarrassingly-parallel fan-out.
    smoke:
        Use the reduced :data:`SMOKE_PARAMS` problem sizes.
    on_result:
        Optional callable invoked with each :class:`FigureResult` as it
        completes (e.g. to stream output); results are also returned as
        a list in the order of ``figures``.
    stream:
        Serial runs only: mirror each driver's output to stdout live
        (long full-scale figures print as they go) in addition to
        capturing it in the result.  Ignored when ``jobs > 1`` (worker
        output would interleave).
    """
    from . import FIGURES

    if figures is None:
        figures = sorted(FIGURES, key=int)
    # dedupe (order-preserving): results are keyed per figure id, and
    # running the same deterministic driver twice is never useful
    figures = list(dict.fromkeys(str(figure) for figure in figures))
    unknown = [figure for figure in figures if figure not in FIGURES]
    if unknown:
        raise ValueError(
            f"unknown figure(s) {unknown}; available: {sorted(FIGURES, key=int)}"
        )
    results = {}
    if jobs > 1 and len(figures) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(figures))) as pool:
            futures = {
                pool.submit(_run_figure, figure, smoke): figure
                for figure in figures
            }
            for future in as_completed(futures):
                figure = futures[future]
                try:
                    result = future.result()
                except Exception:  # noqa: BLE001 - e.g. a killed worker
                    # Keep _run_figure's never-raises contract: a dead
                    # worker becomes a FAILED figure, not a lost suite.
                    result = FigureResult(
                        figure=figure, ok=False,
                        error=traceback.format_exc(),
                    )
                results[figure] = result
                if on_result is not None:
                    on_result(result)
    else:
        mirror = sys.stdout if stream else None
        for figure in figures:
            results[figure] = _run_figure(figure, smoke, mirror=mirror)
            if on_result is not None:
                on_result(results[figure])
    return [results[figure] for figure in figures]


def render_table(rows, columns, title=None, float_format="{:.3g}"):
    """Render dict-rows as an aligned text table (the bench output)."""
    lines = []
    if title:
        lines.append(title)

    def fmt(value):
        if isinstance(value, float):
            if math.isnan(value):
                return "-"
            if math.isinf(value):
                return "timeout"
            return float_format.format(value)
        return str(value)

    cells = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
