"""Benchmark drivers — one per figure of the paper's evaluation."""

from . import fig04, fig06, fig10, fig11, fig12, fig13, fig14, fig15, fig16

#: figure id -> driver module
FIGURES = {
    "4": fig04,
    "6": fig06,
    "10": fig10,
    "11": fig11,
    "12": fig12,
    "13": fig13,
    "14": fig14,
    "15": fig15,
    "16": fig16,
}

__all__ = ["FIGURES"]
