"""Workload and dataset generators for the evaluation."""

from .cebench import build_dataset
from .shapes import snowflake
from .synthetic import generate_dataset, specs_from_ranges

__all__ = [
    "build_dataset",
    "generate_dataset",
    "snowflake",
    "specs_from_ranges",
]
