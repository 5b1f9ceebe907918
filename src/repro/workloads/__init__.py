"""Workload and dataset generators for the evaluation."""

from .cebench import DATASET_FLAVORS, CEDataset, DatasetFlavor, build_dataset
from .dblp_like import EstimationDataset, JoinTask, build_estimation_dataset
from .random_trees import (
    DEFAULT_FANOUT_RANGE,
    MATCH_PROBABILITY_RANGES,
    random_join_tree,
    random_stats,
)
from .shapes import (
    PAPER_SHAPES,
    paper_path11,
    paper_snowflake_3_2,
    paper_snowflake_5_1,
    paper_star7,
    path,
    snowflake,
    star,
)
from .synthetic import (
    EdgeSpec,
    SyntheticDataset,
    generate_dataset,
    specs_from_ranges,
)

__all__ = [
    "DATASET_FLAVORS",
    "DEFAULT_FANOUT_RANGE",
    "CEDataset",
    "DatasetFlavor",
    "EdgeSpec",
    "EstimationDataset",
    "JoinTask",
    "MATCH_PROBABILITY_RANGES",
    "PAPER_SHAPES",
    "SyntheticDataset",
    "build_dataset",
    "build_estimation_dataset",
    "generate_dataset",
    "paper_path11",
    "paper_snowflake_3_2",
    "paper_snowflake_5_1",
    "paper_star7",
    "path",
    "random_join_tree",
    "random_stats",
    "snowflake",
    "specs_from_ranges",
    "star",
]
