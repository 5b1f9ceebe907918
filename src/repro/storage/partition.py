"""Hash-partitioned tables: a physical layout, not a probe path.

A :class:`PartitionedTable` physically re-clusters a table into ``N``
hash-shards on a chosen key column: rows whose key hashes to shard
``s`` occupy one contiguous row range, in base row order.  Row identity
inside the engine is the *physical* (re-clustered) position;
:meth:`PartitionedTable.original_rows` maps results back to the base
table's row ids, which is how partitioned execution returns result
sets identical to the unpartitioned engine.

Indexes over a partitioned table are ordinary
:class:`~repro.storage.hashindex.HashIndex` objects over the physical
column, on every attribute.  Hash routing puts every occurrence of a
key in one shard, so a key's matches are the same rows in the same
ascending physical order whether one index or one index per shard
served them; a second probe structure would buy nothing inside one
process.  The shards matter across processes: the distributed scatter
routes driver rows to workers by :func:`_probe_shard_ids`, the same
hash that laid the table out.
"""

from __future__ import annotations

import numpy as np

from .table import Table

__all__ = [
    "FLOAT_EXACT_MAX",
    "PartitionedTable",
    "partitioned_relation",
    "shard_ids",
]

#: largest magnitude for which int64 <-> float64 comparison is exact;
#: build keys at or beyond this are excluded from hash partitioning
#: (a float probe could float-compare equal to an int it doesn't route
#: to, so hash routing would send it to the wrong shard)
FLOAT_EXACT_MAX = 2**53


def shard_ids(values, num_shards):
    """Shard id per value: a mixed 64-bit hash of the key, mod ``N``.

    The same routing function lays out a :class:`PartitionedTable` and
    routes distributed driver rows, which is what sends each driver row
    to the worker owning its matches' shard.  The mixer is the
    splitmix64 finalizer, so consecutive key ranges spread evenly
    instead of landing in one shard.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise TypeError(
            f"hash sharding requires an integer key column, got dtype "
            f"{values.dtype}"
        )
    mixed = values.astype(np.uint64, copy=True)
    mixed ^= mixed >> np.uint64(33)
    mixed *= np.uint64(0xFF51AFD7ED558CCD)
    mixed ^= mixed >> np.uint64(33)
    mixed *= np.uint64(0xC4CEB9FE1A85EC53)
    mixed ^= mixed >> np.uint64(33)
    return (mixed % np.uint64(num_shards)).astype(np.int64)


def _float_exact(keys):
    """True when every key sits inside float64's exact integer range.

    Uses min/max bounds (``abs`` would overflow on int64 min).
    """
    return (int(keys.min()) > -FLOAT_EXACT_MAX
            and int(keys.max()) < FLOAT_EXACT_MAX)


def _probe_shard_ids(keys, num_shards):
    """Shard routing for *probe* keys, tolerant of numeric dtype mixes.

    Build keys are always integers (enforced at partitioning time), but
    probe columns may be floats — a lookup handles that via
    searchsorted upcasting, so routing must too.  A float probe can
    only match an integer build key if it is exactly integral; those route by their integer value, everything else
    (fractional, NaN/inf, out of int64 range) routes to shard 0 where
    it misses like any absent key.
    """
    keys = np.asarray(keys)
    if np.issubdtype(keys.dtype, np.integer):
        return shard_ids(keys, num_shards)
    if keys.dtype == bool:
        return shard_ids(keys.astype(np.int64), num_shards)
    if not np.issubdtype(keys.dtype, np.floating):
        raise TypeError(
            f"cannot route probe keys of dtype {keys.dtype} to hash shards"
        )
    # Partitioned build keys are < 2**53 in magnitude (see
    # PartitionedTable.can_shard), so any probe at or beyond that range
    # cannot match and routes to shard 0 where it misses like any
    # absent key.
    representable = np.isfinite(keys) & (np.abs(keys) < float(FLOAT_EXACT_MAX))
    as_int = np.zeros(len(keys), dtype=np.int64)
    as_int[representable] = keys[representable].astype(np.int64)
    integral = representable & (as_int == keys)
    ids = shard_ids(as_int, num_shards)
    ids[~integral] = 0
    return ids


class PartitionedTable(Table):
    """A table re-clustered into contiguous hash-shards on one column.

    The constructor takes columns in *base* row order, routes every row
    to ``shard_ids(key) % num_shards`` and stores the columns permuted
    so each shard is one contiguous range.  The permutation is stable,
    so base row order is preserved inside each shard, and
    :meth:`original_rows` maps physical row ids back to base ids for
    result reporting.
    """

    def __init__(self, name, columns, shard_key, num_shards):
        if shard_key not in columns:
            raise KeyError(
                f"shard key {shard_key!r} is not a column of table {name!r}"
            )
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        ids = shard_ids(columns[shard_key], num_shards)
        base_rows = np.argsort(ids, kind="stable").astype(np.int64)
        super().__init__(
            name, {col: np.asarray(arr)[base_rows] for col, arr in columns.items()}
        )
        self.shard_key = shard_key
        self.num_shards = num_shards
        self._base_rows = base_rows
        #: provenance (set by :meth:`from_table`): lets catalog
        #: invalidation re-cluster us when the source data mutates
        self._source = None

    @classmethod
    def from_table(cls, table, shard_key, num_shards):
        """Partition an existing :class:`Table` (same name, same rows)."""
        partitioned = cls(table.name, table.columns, shard_key, num_shards)
        partitioned._source = table
        return partitioned

    @staticmethod
    def can_shard(column):
        """True when a key column is hash-shardable: non-empty, integer
        dtype, and inside float64's exact integer range (so float
        probes stay unambiguous)."""
        column = np.asarray(column)
        return (len(column) > 0
                and np.issubdtype(column.dtype, np.integer)
                and _float_exact(column))

    def shares_data_with(self, other):
        """Also stale when our *source* shares data with ``other``:
        our columns are copies, but copies of the mutated arrays."""
        if super().shares_data_with(other):
            return True
        return self._source is not None and self._source.shares_data_with(other)

    def refreshed(self, mutated=None):
        """Re-cluster after an acknowledged in-place mutation.

        When our *own* physical arrays are the mutated ones (``mutated``
        is ``None``, ourselves, or shares arrays with us), re-cluster
        the current columns and compose the base-row mapping so
        ``original_rows`` keeps reporting the original frame.
        Otherwise the mutation hit our *source*, whose data we hold as
        stale copies — re-cluster from it, keeping our name (we may be
        a renamed alias of it).
        """
        if mutated is None or Table.shares_data_with(self, mutated):
            fresh = PartitionedTable(
                self.name, self.columns, self.shard_key, self.num_shards
            )
            # fresh's mapping goes fresh-physical -> our-physical;
            # compose with ours to keep the base frame
            fresh._base_rows = self._base_rows[fresh._base_rows]
            fresh._source = self._source
            return fresh
        if self._source is None:
            return self
        fresh = PartitionedTable(
            self.name, self._source.columns, self.shard_key, self.num_shards
        )
        fresh._source = self._source
        return fresh

    def original_rows(self, rows):
        """Map physical row ids back to the base table's row ids."""
        return self._base_rows[np.asarray(rows, dtype=np.int64)]

    def base_row_ids(self):
        """The physical-to-base permutation (see
        :meth:`~repro.storage.table.Table.base_row_ids`)."""
        return self._base_rows

    def physical_rows(self, rows):
        """Map base-table row ids to this layout's physical positions."""
        def invert(table):
            inverse = np.empty(len(table._base_rows), dtype=np.int64)
            inverse[table._base_rows] = np.arange(
                len(table._base_rows), dtype=np.int64
            )
            return inverse

        inverse = self.structure(("physical_rows",), invert)
        return inverse[np.asarray(rows, dtype=np.int64)]

    def gather(self, rows, columns=None):
        """Return ``{column: values[rows]}`` for **base-table** row ids.

        Engine results (``ExecutionResult.output_rows``) report base
        ids so they are layout-independent; ``gather`` is the value-
        fetch API for those ids and translates to physical positions
        internally.  ``column()`` by contrast exposes the raw physical
        (re-clustered) order the engine operates on.
        """
        return super().gather(self.physical_rows(rows), columns=columns)

    def _layout_descriptor(self):
        # distinguishes two partitionings of identical content (and any
        # partitioning from the base table) in fingerprints, so stats
        # and plan caches key on the physical layout as well as data
        return f"sharded:{self.shard_key}:{self.num_shards}".encode()

    def __repr__(self):
        return (
            f"PartitionedTable({self.name!r}, rows={self.num_rows}, "
            f"shard_key={self.shard_key!r}, shards={self.num_shards})"
        )


def partitioned_relation(table, shard_key, num_shards, min_rows=0):
    """``table`` re-clustered into ``num_shards`` hash-shards on
    ``shard_key``, or ``None`` when it keeps its layout.

    A table keeps its layout when it cannot be hash-sharded on that
    column — empty, non-integer key, keys at or beyond float64's exact
    integer range (2**53, where float probes become ambiguous), or
    already partitioned — and when it holds fewer than ``min_rows``
    rows: the planner's ``"auto"`` mode sizes shards from *base* tables
    (so cache keys are computable before push-down) and uses this floor
    to avoid re-clustering a selection that kept only a handful of
    rows.  The result depends only on ``table``'s content, so the
    planner caches it per relation token and shares it across queries.
    """
    if num_shards <= 1 or len(table) < max(min_rows, 1) \
            or isinstance(table, PartitionedTable):
        return None
    if not PartitionedTable.can_shard(table.column(shard_key)):
        return None
    return PartitionedTable.from_table(table, shard_key, num_shards)
