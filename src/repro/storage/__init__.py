"""Columnar storage: tables, catalogs, hash indexes, partitioned layouts."""

from .partition import PartitionedTable
from .table import Catalog

__all__ = ["Catalog", "PartitionedTable"]
