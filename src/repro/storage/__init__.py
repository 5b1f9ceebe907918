"""Columnar storage substrate: vectors, chunks, tables, hash indexes."""

from .chunk import DEFAULT_CHUNK_SIZE, DataChunk, iter_chunks
from .column import VectorColumn
from .hashindex import HashIndex, LookupResult, concat_ranges
from .io import load_catalog, save_catalog, table_from_csv, table_to_csv
from .partition import (
    FLOAT_EXACT_MAX,
    PartitionedTable,
    partition_replacements,
    partitioned_catalog,
    shard_ids,
)
from .table import Catalog, Table

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "FLOAT_EXACT_MAX",
    "Catalog",
    "DataChunk",
    "HashIndex",
    "LookupResult",
    "PartitionedTable",
    "Table",
    "VectorColumn",
    "concat_ranges",
    "iter_chunks",
    "load_catalog",
    "partition_replacements",
    "partitioned_catalog",
    "save_catalog",
    "shard_ids",
    "table_from_csv",
    "table_to_csv",
]
