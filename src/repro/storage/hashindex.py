"""Vectorized hash index (the "build side" of a hash join).

The paper's engine (Section 4.2) builds, per join operator, a pointer
table plus a chained hash map that groups build-side tuples by join key
and answers a probe in O(1).  The NumPy equivalent here is a *group
index*: ``_order`` lists the indexed row ids grouped by key (ascending
row id within a key), and one of two physical layouts says where each
key's group sits in it:

* **dense** — a direct-address CSR table, the pointer table of the
  paper: ``_offsets[k - _lo]`` / ``_offsets[k - _lo + 1]`` bound the
  group of key ``k``.  A probe is one shift, one clamp and two gathers
  — O(1) per key, no comparison of key values at all.  Probe keys
  outside ``[lo, hi]`` are clamped onto a trailing sentinel slot that is
  always empty.
* **sorted** — ``_unique_keys`` / ``_starts`` / ``_counts``, probed by
  a vectorized binary search (``np.searchsorted``) in the common dtype
  of index and probe keys.

The layout is chosen per index by :meth:`HashIndex._dense_fits`, a pure
function of the indexed keys (dtype width, value span, row count,
distinct count): dense exactly when the offsets table occupies **no
more bytes** than the sorted arrays would for the same keys, so the
fast layout can never cost memory.  Floats, bools, sparse integers and
integers at or beyond ``2**62`` stay sorted.  A dense index
materializes the sorted arrays lazily, and only for the callers that
need key *values*: :meth:`~HashIndex.distinct_keys`,
:meth:`~HashIndex.iter_groups` and probe batches whose comparison dtype
is not an integer (float or bool probes, int64 against uint64) — those
keep the ``searchsorted`` common-dtype semantics byte for byte.

Builds are sort-free where NumPy allows it: the dense path counts slots
with ``bincount`` and groups rows by radix passes over 16-bit digits,
and :meth:`HashIndex.restricted` derives the index of a row subset from
an existing index by masking ``_order`` and re-counting — O(n), which
is what the semi-join reduction uses instead of re-sorting per query.

The semantics relevant to the paper — one *probe* per input key,
returning all matches — are identical in both layouts, and so are match
order and every counter derived from them.

This is the storage layer's only index class.  A
:class:`~repro.storage.partition.PartitionedTable` is indexed like any
other table, over its physical (re-clustered) column: hash routing
keeps every occurrence of a key in one shard, so a key's group is the
same rows in the same ascending order a per-shard index would report.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HashIndex", "LookupResult", "concat_ranges", "fan_out"]

#: integer keys must lie strictly inside ``(-2**62, 2**62)`` for the
#: direct-address shift ``key - lo`` to be exact in 64-bit arithmetic
_SHIFT_EXACT_LIMIT = 2**62


def fan_out(starts, counts):
    """``(lineage, positions)`` of the ranges ``arange(s, s + c)``.

    The one fan-out of a join step: ``positions`` concatenates the
    ranges (what :func:`concat_ranges` returns) and ``lineage[p]`` is
    the range output position ``p`` came from — the input row it
    repeats.  Every other column of the step then follows by a gather
    through ``lineage``, so the step pays a single ``np.repeat``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    lineage = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # output position p of range i holds starts[i] + (p - first
    # position of range i)
    shift = starts - (np.cumsum(counts) - counts)
    positions = shift.take(lineage)
    positions += np.arange(len(lineage), dtype=np.int64)
    return lineage, positions


def concat_ranges(starts, lengths):
    """Concatenate ``[arange(s, s + l) for s, l in zip(starts, lengths)]``.

    Fully vectorized; :meth:`LookupResult.matching_rows` uses it where
    only the matches are wanted, and :func:`fan_out` is the variant that
    also says which range each position came from.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(starts) == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    total = int(ends[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # output position p of range i holds starts[i] + (p - first
    # position of range i): one repeat of the per-range shift
    shift = starts - (ends - lengths)
    return np.repeat(shift, lengths) + np.arange(total, dtype=np.int64)


def _grouping_order(slots):
    """Stable argsort of unsigned slot ids, O(n) for up to 32 bits.

    NumPy radix-sorts integers of at most 16 bits; wider slot ids are
    grouped by two such passes (low digit, then high digit — an LSD
    radix sort), which stays stable and several times faster than the
    comparison sort ``kind="stable"`` falls back to.
    """
    if slots.dtype.itemsize != 4:
        return np.argsort(slots, kind="stable")
    by_low = np.argsort(slots.astype(np.uint16), kind="stable")
    high = (slots >> 16).astype(np.uint16)[by_low]
    return by_low[np.argsort(high, kind="stable")]


def _strictly_ascending(rows):
    return len(rows) < 2 or bool((rows[1:] > rows[:-1]).all())


class LookupResult:
    """Outcome of probing a batch of keys into a :class:`HashIndex`.

    Attributes
    ----------
    counts:
        int64 array, one entry per probed key: number of matches.
    """

    __slots__ = ("_order", "_starts", "counts")

    def __init__(self, order, starts, counts):
        self._order = order
        #: per probed key, where its group starts in ``order``
        #: (meaningless where ``counts`` is 0)
        self._starts = starts
        self.counts = counts

    def __len__(self):
        return len(self.counts)

    @property
    def matched_mask(self):
        """Boolean mask over probed keys: found at least one match."""
        return self.counts > 0

    def total_matches(self):
        return int(self.counts.sum())

    def matching_rows(self):
        """Flattened build-side row indices, grouped per probe key.

        For probe key ``i`` the matches occupy the slice
        ``[cumsum(counts)[i-1] : cumsum(counts)[i]]`` of the result.
        Keys with no match contribute nothing.
        """
        return self._order[concat_ranges(self._starts, self.counts)]

    def fan_out(self):
        """``(lineage, matches)``: :meth:`matching_rows` plus, per
        match, the position of the probe key it matched (see
        :func:`fan_out`)."""
        lineage, positions = fan_out(self._starts, self.counts)
        return lineage, self._order.take(positions)


class HashIndex:
    """Group index over a key column (optionally restricted to a subset).

    Parameters
    ----------
    keys:
        1-D array: the join-key column of the build relation.
    rows:
        Optional row-index array; if given, the index covers only those
        rows (used for semi-join-reduced relations).

    The physical layout (see the module docstring) is decided by the
    keys alone; there is deliberately no argument that selects it.
    """

    def __init__(self, keys, rows=None):
        keys = np.asarray(keys)
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            keys = keys[rows]
        self._key_dtype = keys.dtype
        order = self._group(keys)
        if rows is not None:
            order = rows[order]
        self._order = order.astype(np.int64, copy=False)

    # -- layout ----------------------------------------------------------

    @staticmethod
    def _dense_fits(key_itemsize, span, rows, distinct):
        """The layout rule: direct addressing only when it is free.

        ``span`` slots plus the closing offset and the sentinel, in the
        narrowest unsigned dtype that holds ``rows``, must occupy no
        more bytes than the sorted layout's ``_unique_keys`` +
        ``_starts`` + ``_counts`` for ``distinct`` keys.
        """
        dense_bytes = (span + 2) * np.min_scalar_type(rows).itemsize
        return dense_bytes <= distinct * (key_itemsize + 16)

    def _table_bounds(self, low, high, rows):
        """``(low, span)`` as ints when a slot table over ``[low, high]``
        is worth counting, else ``None``: integer keys inside the exact
        shift range whose table would fit even if every row had its own
        key (the rule's best case; the real distinct count decides)."""
        if self._key_dtype.kind not in "iu":
            return None
        low, high = int(low), int(high)
        if low <= -_SHIFT_EXACT_LIMIT or high >= _SHIFT_EXACT_LIMIT:
            return None
        span = high - low + 1
        if not self._dense_fits(self._key_dtype.itemsize, span, rows, rows):
            return None
        return low, span

    def _group(self, keys):
        """Store the groups of ``keys``; return the grouping permutation
        (stable: equal keys keep their original relative order)."""
        rows = len(keys)
        bounds = None
        if rows and keys.dtype.kind in "iu":
            bounds = self._table_bounds(keys.min(), keys.max(), rows)
        if bounds is not None:
            low, span = bounds
            slots = (keys.astype(np.int64, copy=False) - low).astype(
                np.min_scalar_type(span - 1), copy=False
            )
            self._store_table(low, np.bincount(slots, minlength=span), rows)
            return _grouping_order(slots)
        order = np.argsort(keys, kind="stable")
        if rows:
            unique_keys, counts = np.unique(keys[order], return_counts=True)
        else:
            unique_keys, counts = keys, np.empty(0, dtype=np.int64)
        self._store_sorted(unique_keys, counts.astype(np.int64, copy=False))
        return order

    def _store_table(self, low, table, rows):
        """Adopt groups given as rows-per-slot over ``[low, low +
        len(table))`` in the layout the byte rule picks."""
        filled = table > 0
        distinct = int(np.count_nonzero(filled))
        if not distinct:
            self._store_sorted(np.empty(0, dtype=self._key_dtype),
                               np.empty(0, dtype=np.int64))
            return
        first = int(filled.argmax())
        last = len(table) - 1 - int(filled[::-1].argmax())
        span = last - first + 1
        if not self._dense_fits(self._key_dtype.itemsize, span, rows,
                                distinct):
            occupied = np.flatnonzero(filled)
            self._store_sorted(
                (occupied + low).astype(self._key_dtype), table[occupied]
            )
            return
        offsets = np.zeros(span + 2, dtype=np.min_scalar_type(rows))
        np.cumsum(table[first:last + 1], out=offsets[1:span + 1])
        offsets[span + 1] = rows  # sentinel slot: always empty
        self._low = low + first
        self._offsets = offsets
        self._unique_keys = self._starts = self._counts = None
        self._num_distinct = distinct

    def _store_groups(self, unique_keys, counts):
        """Adopt groups given as ascending distinct keys + row counts."""
        rows = int(counts.sum())
        bounds = None
        if rows:
            bounds = self._table_bounds(unique_keys[0], unique_keys[-1], rows)
        if bounds is None:
            self._store_sorted(unique_keys, counts)
            return
        low, span = bounds
        table = np.zeros(span, dtype=np.int64)
        table[unique_keys.astype(np.int64, copy=False) - low] = counts
        self._store_table(low, table, rows)

    def _store_sorted(self, unique_keys, counts):
        self._low = 0
        self._offsets = None
        self._unique_keys = unique_keys
        self._starts = np.cumsum(counts) - counts
        self._counts = counts
        self._num_distinct = len(unique_keys)

    def _sorted_groups(self):
        """``(distinct keys, group starts, group counts)``, keys
        ascending — the sorted layout's arrays, which a dense index
        derives from its offsets on first use and then keeps."""
        unique_keys = self._unique_keys
        if unique_keys is None:
            offsets = self._offsets[:-1].astype(np.int64)
            counts = np.diff(offsets)
            occupied = np.flatnonzero(counts)
            unique_keys = (occupied + self._low).astype(self._key_dtype)
            # ``_unique_keys`` last: a concurrent prober that sees it
            # set must find the other two in place
            self._starts = offsets[occupied]
            self._counts = counts[occupied]
            self._unique_keys = unique_keys
        return unique_keys, self._starts, self._counts

    def _slots(self, keys):
        """Offsets-table slot per probe key, or ``None`` when the batch
        has to take the sorted path (sorted layout, or a probe dtype
        whose comparison with the index keys is not an integer one).

        The shift ``key - low`` runs after widening to 64 bits and is
        read as unsigned, so keys below ``low`` wrap to huge values and
        one ``minimum`` clamps every out-of-range key onto the sentinel.
        """
        if self._offsets is None or keys.dtype.kind not in "iu":
            return None
        common = np.result_type(self._key_dtype, keys.dtype)
        if common.kind not in "iu":
            return None
        wide = np.int64 if common.kind == "i" else np.uint64
        shifted = keys.astype(wide, copy=False) - wide(self._low)
        sentinel = len(self._offsets) - 2
        return np.minimum(shifted.view(np.uint64), sentinel).view(np.int64)

    # -- structure -------------------------------------------------------

    def __len__(self):
        """Number of indexed rows."""
        return len(self._order)

    @property
    def key_dtype(self):
        """Dtype of the indexed key column (probe batches are compared
        in ``np.result_type(key_dtype, probe dtype)``)."""
        return self._key_dtype

    @property
    def nbytes(self):
        """Bytes held by the index arrays (lazily materialized sorted
        views of a dense index included once they exist)."""
        arrays = (self._order, self._offsets, self._unique_keys,
                  self._starts, self._counts)
        return sum(array.nbytes for array in arrays if array is not None)

    def iter_groups(self):
        """Yield ``(key, [row ids])`` per distinct key, keys ascending.

        Row ids appear in the same order :meth:`LookupResult.matching_rows`
        reports them (the stable sort keeps equal keys in original row
        order).  This is the hook the interpreted execution kernels use
        to build their dict views of the index — plain Python scalars
        and lists, derived once from the vectorized structure.
        """
        unique_keys, starts, counts = self._sorted_groups()
        order = self._order.tolist()
        for key, start, count in zip(unique_keys.tolist(), starts.tolist(),
                                     counts.tolist()):
            yield key, order[start:start + count]

    @property
    def num_distinct(self):
        return self._num_distinct

    def distinct_keys(self):
        """The distinct key values, ascending."""
        return self._sorted_groups()[0]

    def restricted(self, rows):
        """The index over a subset of the indexed rows, derived from
        this one: equal to ``HashIndex(keys, rows=rows)`` observably.

        Every row of ``rows`` must be indexed here.  For strictly
        ascending ``rows`` (what the semi-join reduction produces)
        nothing is sorted — ``_order`` is masked, which keeps "ascending
        row id within a key", and groups are re-counted from a running
        sum of the mask: O(rows + slots).  The result picks its own
        layout by the same byte rule.  Any other row array (unordered,
        repeated) is rebuilt from scratch over the key column recovered
        from the groups.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if not _strictly_ascending(rows):
            keys = np.zeros(self._row_limit(), dtype=self._key_dtype)
            self._write_keys(keys)
            return type(self)(keys, rows=rows)
        if len(rows) == len(self._order):
            return self
        return self._masked(_row_mask(rows, self._row_limit()))

    def _row_limit(self):
        return int(self._order.max()) + 1 if len(self._order) else 0

    def _write_keys(self, column):
        """``column[r] = key of row r`` for every indexed row ``r``
        (the key column, recovered from the groups)."""
        unique_keys, _, counts = self._sorted_groups()
        column[self._order] = np.repeat(unique_keys, counts)

    def _masked(self, member):
        """The index over the indexed rows ``r`` with ``member[r]``."""
        keep = member.take(self._order)
        if keep.all():
            return self
        kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        derived = object.__new__(type(self))
        derived._key_dtype = self._key_dtype
        derived._order = np.compress(keep, self._order)
        if self._offsets is not None:
            table = np.diff(kept_before.take(self._offsets[:-1]))
            derived._store_table(self._low, table, len(derived._order))
        else:
            counts = (kept_before[self._starts + self._counts]
                      - kept_before[self._starts])
            alive = counts > 0
            derived._store_groups(self._unique_keys[alive], counts[alive])
        return derived

    # -- probing ---------------------------------------------------------

    def lookup(self, keys):
        """Probe a batch of keys; one probe per entry of ``keys``."""
        keys = np.asarray(keys)
        slots = self._slots(keys)
        if slots is not None:
            starts = self._offsets.take(slots)
            counts = (self._offsets[1:].take(slots) - starts).astype(np.int64)
            return LookupResult(self._order, starts, counts)
        unique_keys, group_starts, group_counts = self._sorted_groups()
        if len(unique_keys) == 0:
            counts = np.zeros(len(keys), dtype=np.int64)
            return LookupResult(self._order, counts, counts)
        pos = np.searchsorted(unique_keys, keys)
        pos = np.minimum(pos, len(unique_keys) - 1)
        hit = unique_keys[pos] == keys
        counts = np.where(hit, group_counts[pos], 0)
        return LookupResult(self._order, group_starts[pos], counts)

    def contains(self, keys):
        """Membership test per key (a semi-join probe)."""
        keys = np.asarray(keys)
        slots = self._slots(keys)
        if slots is not None:
            return self._offsets[1:].take(slots) > self._offsets.take(slots)
        unique_keys = self._sorted_groups()[0]
        if len(unique_keys) == 0:
            return np.zeros(len(keys), dtype=bool)
        pos = np.searchsorted(unique_keys, keys)
        pos = np.minimum(pos, len(unique_keys) - 1)
        return unique_keys[pos] == keys

    def probe_stats(self, keys):
        """``(matched, total_matches)`` for a probe batch.

        The scalar summary statistics derivation needs — how many probe
        keys found a match, and how many matches in total — without
        materializing the matching rows.
        """
        keys = np.asarray(keys)
        slots = self._slots(keys)
        if slots is not None:
            counts = self._offsets[1:].take(slots) - self._offsets.take(slots)
        else:
            counts = self.lookup(keys).counts
        return int(np.count_nonzero(counts)), int(counts.sum(dtype=np.int64))

    def rows_for_key(self, key):
        """All build-side row indices matching a single key."""
        result = self.lookup(np.asarray([key]))
        return result.matching_rows()


def _row_mask(rows, limit):
    """Boolean membership array of ``rows`` over row ids ``[0, limit)``."""
    member = np.zeros(limit, dtype=bool)
    member[rows] = True
    return member
