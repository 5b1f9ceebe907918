"""Hash-partitioned tables and sharded hash indexes.

A :class:`PartitionedTable` physically re-clusters a table into ``N``
hash-shards on a chosen key column: rows whose key hashes to shard
``s`` occupy one contiguous row range, so every shard is a cache-local
slice and per-shard work (index builds, probes, semi-join reductions)
can fan out over a thread pool.  Row identity inside the engine is the
*physical* (re-clustered) position; :meth:`PartitionedTable.original_rows`
maps results back to the base table's row ids, which is how partitioned
execution returns result sets identical to the unpartitioned engine.

A :class:`ShardedHashIndex` is the matching build side: one
:class:`~repro.storage.hashindex.HashIndex` per shard.  Because rows
are hash-partitioned on the indexed key, a probe key can only match
inside its own shard, so a batch lookup routes keys by the same hash,
probes each shard independently (in parallel for large batches) and
scatters the per-shard answers back into probe order — probe counts and
match sets are exactly those of the monolithic index.

An index requested on any *other* column falls back to a plain merged
:class:`~repro.storage.hashindex.HashIndex` over the whole table (see
:meth:`PartitionedTable.build_hash_index`), so partitioning is never a
correctness constraint, only a parallelism opportunity.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .hashindex import HashIndex, _row_mask, _strictly_ascending, concat_ranges
from .table import Table

__all__ = [
    "FLOAT_EXACT_MAX",
    "PartitionedTable",
    "ShardSketch",
    "ShardedHashIndex",
    "ShardedLookupResult",
    "partition_replacements",
    "partitioned_catalog",
    "shard_ids",
]

#: below this many keys a batch is routed/probed serially — thread
#: hand-off costs more than the work it would spread
PARALLEL_MIN_KEYS = 16_384

#: largest magnitude for which int64 <-> float64 comparison is exact;
#: build keys at or beyond this are excluded from hash partitioning
#: (a float probe could float-compare equal to an int it doesn't route
#: to, so sharded and merged lookups would diverge)
FLOAT_EXACT_MAX = 2**53

_MAX_WORKERS = min(os.cpu_count() or 1, 16)
_pool = None
_pool_lock = threading.Lock()


def _shared_pool():
    """The process-wide shard worker pool (lazily created)."""
    global _pool
    if _pool is None:
        with _pool_lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(
                    max_workers=_MAX_WORKERS,
                    thread_name_prefix="repro-shard",
                )
    return _pool


def _reset_pool_after_fork():
    """A forked child inherits ``_pool`` but none of its threads (and a
    lock possibly held by a thread that no longer exists), so the first
    ``_parallel_map`` there would wait forever: start over."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_pool_after_fork)


def _parallel_map(fn, items, parallel):
    """``[fn(x) for x in items]``, fanned out when worth it."""
    items = list(items)
    if not parallel or _MAX_WORKERS == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    return list(_shared_pool().map(fn, items))


def shard_ids(values, num_shards):
    """Shard id per value: a mixed 64-bit hash of the key, mod ``N``.

    The same routing function is used to lay out a
    :class:`PartitionedTable` and to direct probe keys at lookup time,
    which is what guarantees a key only ever meets its own shard.  The
    mixer is the splitmix64 finalizer, so consecutive key ranges spread
    evenly instead of landing in one shard.
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
    probe columns may be floats — an unpartitioned lookup handles that
    via searchsorted upcasting, so the sharded path must too.  A float
    probe can only match an integer build key if it is exactly
    integral; those route by their integer value, everything else
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
    # Build keys are guaranteed < 2**53 in magnitude (see
    # ShardedHashIndex), so any probe at or beyond that range cannot
    # match and routes to shard 0 where it misses like any absent key.
    representable = np.isfinite(keys) & (np.abs(keys) < float(FLOAT_EXACT_MAX))
    as_int = np.zeros(len(keys), dtype=np.int64)
    as_int[representable] = keys[representable].astype(np.int64)
    integral = representable & (as_int == keys)
    ids = shard_ids(as_int, num_shards)
    ids[~integral] = 0
    return ids


def _route(keys, num_shards):
    """Group a probe batch by destination shard.

    Returns ``(order, bounds)``: a stable permutation sorting the keys
    by shard id, and ``bounds`` of length ``num_shards + 1`` such that
    ``order[bounds[s]:bounds[s + 1]]`` are the probe positions routed
    to shard ``s``.  Stable integer argsort is radix-based, so routing
    is O(n).
    """
    ids = _probe_shard_ids(keys, num_shards)
    order = np.argsort(ids, kind="stable")
    bounds = np.searchsorted(ids[order], np.arange(num_shards + 1))
    return order, bounds


class ShardSketch:
    """Per-shard summary statistics.

    The shard-balance diagnostic unit: the partition benchmark records
    these to expose key skew (a hot shard bounds the parallel speedup),
    and they summarize what statistics derivation aggregates shard by
    shard via ``probe_stats``.
    """

    __slots__ = ("num_rows", "num_distinct")

    def __init__(self, num_rows, num_distinct):
        self.num_rows = num_rows
        self.num_distinct = num_distinct

    def __repr__(self):
        return (
            f"ShardSketch(rows={self.num_rows}, "
            f"distinct={self.num_distinct})"
        )


class ShardedLookupResult:
    """Probe outcome over a :class:`ShardedHashIndex`.

    Same public surface as
    :class:`~repro.storage.hashindex.LookupResult`: ``counts`` aligned
    with the probe batch, ``matched_mask``, ``total_matches`` and
    ``matching_rows`` (flattened matches grouped per probe key, in
    probe order).
    """

    __slots__ = ("_sub_results", "_positions_by_shard", "counts")

    def __init__(self, sub_results, positions_by_shard, counts):
        self._sub_results = sub_results
        self._positions_by_shard = positions_by_shard
        self.counts = counts

    def __len__(self):
        return len(self.counts)

    @property
    def matched_mask(self):
        return self.counts > 0

    def total_matches(self):
        return int(self.counts.sum())

    def matching_rows(self):
        total = int(self.counts.sum())
        out = np.empty(total, dtype=np.int64)
        ends = np.cumsum(self.counts)
        out_starts = ends - self.counts
        for sub, positions in zip(self._sub_results, self._positions_by_shard):
            if sub is None or not len(positions):
                continue
            hit = sub.counts > 0
            if not hit.any():
                continue
            slots = concat_ranges(out_starts[positions[hit]], sub.counts[hit])
            out[slots] = sub.matching_rows()
        return out


class ShardedHashIndex:
    """One :class:`HashIndex` per hash-shard of a key column.

    Parameters
    ----------
    keys:
        The full key column, in the table's (physical) row order.
    num_shards:
        Shard count; must match the routing used at probe time.
    rows:
        Optional row restriction (semi-join-reduced relations); rows
        are re-routed by key hash, so any subset works.
    bounds:
        Optional precomputed contiguous shard offsets (length
        ``num_shards + 1``) from a :class:`PartitionedTable` layout;
        mutually exclusive with ``rows`` and skips re-hashing the keys.
    """

    def __init__(self, keys, num_shards, rows=None, bounds=None):
        keys = np.asarray(keys)
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if len(keys) and not _float_exact(keys):
            # beyond float64's exact integer range a float probe can
            # float-compare equal to a key it does not route to; such
            # relations must use the merged index instead
            raise ValueError(
                "cannot hash-shard keys with magnitude >= 2**53; float "
                "probes would be ambiguous — use an unpartitioned index"
            )
        self.num_shards = num_shards
        if bounds is not None:
            if rows is not None:
                raise ValueError("pass either rows or bounds, not both")
            # contiguous layout: each shard indexes a slice view and
            # offsets its reported row ids — no gather, no row arrays
            spans = [
                (int(bounds[s]), int(bounds[s + 1]))
                for s in range(num_shards)
            ]
            parallel = max(
                (stop - start for start, stop in spans), default=0
            ) >= PARALLEL_MIN_KEYS
            self._shards = _parallel_map(
                lambda span: HashIndex(keys[span[0]:span[1]],
                                       row_offset=span[0]),
                spans, parallel,
            )
        else:
            if rows is None:
                rows = np.arange(len(keys), dtype=np.int64)
            else:
                rows = np.asarray(rows, dtype=np.int64)
            order, route_bounds = _route(keys[rows], num_shards)
            routed = rows[order]
            shard_rows = [
                routed[route_bounds[s]:route_bounds[s + 1]]
                for s in range(num_shards)
            ]
            parallel = max(
                (len(r) for r in shard_rows), default=0
            ) >= PARALLEL_MIN_KEYS
            self._shards = _parallel_map(
                lambda shard: HashIndex(keys, rows=shard), shard_rows, parallel
            )

    # -- structure ------------------------------------------------------

    def __len__(self):
        return sum(len(shard) for shard in self._shards)

    @property
    def shards(self):
        """The per-shard :class:`HashIndex` objects."""
        return list(self._shards)

    @property
    def num_distinct(self):
        # hash routing puts every occurrence of a key in one shard, so
        # shard key sets are disjoint and the counts simply add
        return sum(shard.num_distinct for shard in self._shards)

    @property
    def max_group_size(self):
        """Largest number of rows sharing one key value, over all shards.

        Hash routing puts every occurrence of a key in exactly one
        shard, so the global heaviest key group is the heaviest
        per-shard group — the shard-wise maximum is *exact*, not a
        bound, and bit-identical to the monolithic
        :attr:`HashIndex.max_group_size`.
        """
        return max(
            (shard.max_group_size for shard in self._shards), default=0
        )

    @property
    def key_dtype(self):
        """Dtype of the indexed key column (same in every shard)."""
        return self._shards[0].key_dtype

    def iter_groups(self):
        """Yield ``(key, [row ids])`` per distinct key, shard by shard.

        Shard key sets are disjoint (hash routing sends every
        occurrence of a key to one shard), so chaining the per-shard
        groups enumerates each distinct key exactly once; row ids
        within a group keep index order, exactly as
        :meth:`ShardedLookupResult.matching_rows` reports them.
        """
        for shard in self._shards:
            yield from shard.iter_groups()

    def distinct_keys(self):
        keys = [shard.distinct_keys() for shard in self._shards]
        merged = np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)
        merged.sort()
        return merged

    @property
    def nbytes(self):
        """Bytes held by the per-shard index arrays."""
        return sum(shard.nbytes for shard in self._shards)

    def restricted(self, rows):
        """The sharded index over a subset of the indexed rows, derived
        shard by shard (see :meth:`HashIndex.restricted`): one shared
        membership mask, no re-routing and no sort for strictly
        ascending ``rows``; anything else is rebuilt from scratch."""
        rows = np.asarray(rows, dtype=np.int64)
        if not _strictly_ascending(rows):
            keys = np.zeros(self._row_limit(), dtype=self.key_dtype)
            for shard in self._shards:
                shard._write_keys(keys)
            return ShardedHashIndex(keys, self.num_shards, rows=rows)
        if len(rows) == len(self):
            return self
        member = _row_mask(rows, self._row_limit())
        derived = object.__new__(ShardedHashIndex)
        derived.num_shards = self.num_shards
        derived._shards = [shard._masked(member) for shard in self._shards]
        return derived

    def _row_limit(self):
        return max(shard._row_limit() for shard in self._shards)

    def sketches(self):
        """One :class:`ShardSketch` per shard."""
        return [
            ShardSketch(len(shard), shard.num_distinct)
            for shard in self._shards
        ]

    # -- probing --------------------------------------------------------

    def _routed(self, keys):
        keys = np.asarray(keys)
        order, bounds = _route(keys, self.num_shards)
        per_shard = []
        for s in range(self.num_shards):
            positions = order[bounds[s]:bounds[s + 1]]
            per_shard.append((s, positions, keys[positions]))
        parallel = len(keys) >= PARALLEL_MIN_KEYS
        return keys, per_shard, parallel

    def lookup(self, keys):
        """Probe a batch of keys; one probe per entry, as in
        :meth:`HashIndex.lookup`."""
        keys, per_shard, parallel = self._routed(keys)
        counts = np.zeros(len(keys), dtype=np.int64)

        def probe(entry):
            s, positions, shard_keys = entry
            if not len(positions):
                return None
            return self._shards[s].lookup(shard_keys)

        sub_results = _parallel_map(probe, per_shard, parallel)
        positions_by_shard = []
        for sub, (s, positions, _) in zip(sub_results, per_shard):
            positions_by_shard.append(positions)
            if sub is not None:
                counts[positions] = sub.counts
        return ShardedLookupResult(sub_results, positions_by_shard, counts)

    def contains(self, keys):
        """Membership test per key (a semi-join probe)."""
        keys, per_shard, parallel = self._routed(keys)
        out = np.zeros(len(keys), dtype=bool)

        def probe(entry):
            s, positions, shard_keys = entry
            if not len(positions):
                return None
            return self._shards[s].contains(shard_keys)

        for mask, (s, positions, _) in zip(
            _parallel_map(probe, per_shard, parallel), per_shard
        ):
            if mask is not None:
                out[positions] = mask
        return out

    def probe_stats(self, keys):
        """``(matched, total_matches)`` for a probe batch.

        Aggregated shard by shard without materializing positions — the
        per-shard sketch path used by statistics derivation
        (:func:`repro.core.stats.stats_from_data`).
        """
        keys, per_shard, parallel = self._routed(keys)

        def probe(entry):
            s, positions, shard_keys = entry
            if not len(positions):
                return (0, 0)
            return self._shards[s].probe_stats(shard_keys)

        matched = 0
        total = 0
        for shard_matched, shard_total in _parallel_map(
            probe, per_shard, parallel
        ):
            matched += shard_matched
            total += shard_total
        return matched, total

    def rows_for_key(self, key):
        """All build-side row indices matching a single key."""
        return self.lookup(np.asarray([key])).matching_rows()

    def __repr__(self):
        return (
            f"ShardedHashIndex(shards={self.num_shards}, "
            f"rows={len(self)}, distinct={self.num_distinct})"
        )


class PartitionedTable(Table):
    """A table re-clustered into contiguous hash-shards on one column.

    The constructor takes columns in *base* row order, routes every row
    to ``shard_ids(key) % num_shards`` and stores the columns permuted
    so each shard is one contiguous range (``shard_bounds``).  The
    permutation is stable, so base row order is preserved inside each
    shard, and :meth:`original_rows` maps physical row ids back to base
    ids for result reporting.
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
        self._physical_rows = None  # inverse permutation, built lazily
        #: provenance (set by :meth:`from_table`): lets catalog
        #: invalidation re-cluster us when the source data mutates
        self._source = None
        self._shard_bounds = np.searchsorted(
            ids[base_rows], np.arange(num_shards + 1)
        ).astype(np.int64)

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

    def renamed(self, name):
        """A zero-copy alias of this table under another name.

        Shares the column arrays, shard layout and provenance; used by
        selection push-down so planning SQL over an already partitioned
        catalog keeps the caller's layout instead of flattening it.
        """
        clone = PartitionedTable.__new__(PartitionedTable)
        Table.__init__(clone, name, self.columns)
        clone.shard_key = self.shard_key
        clone.num_shards = self.num_shards
        clone._base_rows = self._base_rows
        clone._physical_rows = self._physical_rows
        clone._source = self._source
        clone._shard_bounds = self._shard_bounds
        return clone

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

    @property
    def shard_bounds(self):
        """Contiguous shard offsets: shard ``s`` is rows
        ``[bounds[s], bounds[s + 1])``."""
        return self._shard_bounds

    def shard_slice(self, shard):
        """``(start, stop)`` physical row range of one shard."""
        return int(self._shard_bounds[shard]), int(self._shard_bounds[shard + 1])

    def original_rows(self, rows):
        """Map physical row ids back to the base table's row ids."""
        return self._base_rows[np.asarray(rows, dtype=np.int64)]

    def base_row_ids(self):
        """The physical-to-base permutation (see
        :meth:`~repro.storage.Table.base_row_ids`)."""
        return self._base_rows

    def physical_rows(self, rows):
        """Map base-table row ids to this layout's physical positions."""
        if self._physical_rows is None:
            inverse = np.empty(len(self._base_rows), dtype=np.int64)
            inverse[self._base_rows] = np.arange(
                len(self._base_rows), dtype=np.int64
            )
            self._physical_rows = inverse
        return self._physical_rows[np.asarray(rows, dtype=np.int64)]

    def gather(self, rows, columns=None):
        """Return ``{column: values[rows]}`` for **base-table** row ids.

        Engine results (``ExecutionResult.output_rows``) report base
        ids so they are layout-independent; ``gather`` is the value-
        fetch API for those ids and translates to physical positions
        internally.  ``column()`` by contrast exposes the raw physical
        (re-clustered) order the engine operates on.
        """
        return super().gather(self.physical_rows(rows), columns=columns)

    def build_hash_index(self, attribute, rows=None):
        """Sharded index on the shard key; merged view on anything else.

        The merged fallback is a plain :class:`HashIndex` over the full
        (re-clustered) column, so probes on non-shard-key attributes
        stay correct — they just don't fan out.
        """
        if attribute == self.shard_key and self.num_shards > 1:
            if rows is None:
                return ShardedHashIndex(
                    self.column(attribute),
                    self.num_shards,
                    bounds=self._shard_bounds,
                )
            return ShardedHashIndex(
                self.column(attribute), self.num_shards, rows=rows
            )
        return super().build_hash_index(attribute, rows=rows)

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


def partition_replacements(catalog, query, num_shards, min_rows=0):
    """``{relation: PartitionedTable}`` for the query's shardable
    probe targets.

    Every non-root relation of ``query`` whose probe attribute
    (``edge.child_attr``) can be hash-sharded gets a replacement;
    relations that cannot — empty, non-integer join key, keys at or
    beyond float64's exact integer range (2**53, where float probes
    become ambiguous), or already partitioned — are skipped and simply
    keep their merged-view indexes.  ``min_rows`` additionally skips
    tables below that size: the planner's ``"auto"`` mode sizes shards
    from *base* tables (so cache keys are computable before push-down)
    and uses this floor to avoid re-clustering a selection that kept
    only a handful of rows.  The driver is never partitioned (it is
    scanned, not probed).  Replacements depend only on the partitioned
    relations' content, so callers can reuse them across queries that
    differ elsewhere (e.g. driver-side selection constants).
    """
    replacements = {}
    if num_shards <= 1:
        return replacements
    for edge in query.edges:
        table = catalog.table(edge.child)
        if len(table) < max(min_rows, 1) or isinstance(table, PartitionedTable):
            continue
        if not PartitionedTable.can_shard(table.column(edge.child_attr)):
            continue
        replacements[edge.child] = PartitionedTable.from_table(
            table, edge.child_attr, num_shards
        )
    return replacements


def partitioned_catalog(catalog, query, num_shards):
    """A derived catalog with the query's probe targets hash-partitioned.

    See :func:`partition_replacements` for which relations shard;
    returns ``catalog`` itself when nothing does.
    """
    replacements = partition_replacements(catalog, query, num_shards)
    if not replacements:
        return catalog
    return catalog.derived_with(replacements)
