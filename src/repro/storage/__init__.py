"""Columnar storage: tables, catalogs, hash indexes, partitioned layouts."""

from .hashindex import HashIndex, LookupResult, concat_ranges
from .partition import (
    FLOAT_EXACT_MAX,
    PartitionedTable,
    partition_replacements,
    partitioned_catalog,
    shard_ids,
)
from .table import Catalog, Table

__all__ = [
    "FLOAT_EXACT_MAX",
    "Catalog",
    "HashIndex",
    "LookupResult",
    "PartitionedTable",
    "Table",
    "concat_ranges",
    "partition_replacements",
    "partitioned_catalog",
    "shard_ids",
]
