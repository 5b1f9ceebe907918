"""Unit tests for the vectorized hash index."""

import numpy as np

from repro.storage.hashindex import HashIndex, concat_ranges


def test_concat_ranges_basic():
    out = concat_ranges([0, 10, 5], [2, 3, 0])
    assert out.tolist() == [0, 1, 10, 11, 12]


def test_concat_ranges_empty():
    assert concat_ranges([], []).tolist() == []
    assert concat_ranges([3, 7], [0, 0]).tolist() == []


def test_lookup_counts_and_rows():
    index = HashIndex([5, 3, 5, 9, 5])
    result = index.lookup(np.asarray([5, 9, 1]))
    assert result.counts.tolist() == [3, 1, 0]
    assert result.matched_mask.tolist() == [True, True, False]
    assert result.total_matches() == 4
    rows = result.matching_rows()
    # First three rows match key 5 (positions 0, 2, 4), then key 9 (3).
    assert sorted(rows[:3].tolist()) == [0, 2, 4]
    assert rows[3] == 3


def test_lookup_preserves_probe_order_grouping():
    index = HashIndex([1, 2, 2])
    result = index.lookup(np.asarray([2, 1, 2]))
    rows = result.matching_rows()
    assert sorted(rows[:2].tolist()) == [1, 2]  # first probe: key 2
    assert rows[2] == 0  # second probe: key 1
    assert sorted(rows[3:].tolist()) == [1, 2]  # third probe: key 2


def test_empty_index_lookup():
    index = HashIndex(np.empty(0, dtype=np.int64))
    result = index.lookup(np.asarray([1, 2]))
    assert result.counts.tolist() == [0, 0]
    assert result.matching_rows().tolist() == []
    assert index.contains(np.asarray([7])).tolist() == [False]


def test_lookup_empty_probe_batch():
    index = HashIndex([1, 2, 3])
    result = index.lookup(np.empty(0, dtype=np.int64))
    assert len(result) == 0
    assert result.matching_rows().tolist() == []


def test_contains_membership():
    index = HashIndex([4, 4, 6])
    mask = index.contains(np.asarray([4, 5, 6, 7]))
    assert mask.tolist() == [True, False, True, False]


def test_restricted_index_covers_subset_only():
    keys = np.asarray([1, 1, 2, 2, 3])
    index = HashIndex(keys, rows=np.asarray([0, 3, 4]))
    assert len(index) == 3
    result = index.lookup(np.asarray([1, 2, 3]))
    assert result.counts.tolist() == [1, 1, 1]
    assert sorted(result.matching_rows().tolist()) == [0, 3, 4]


def test_rows_for_key():
    index = HashIndex([7, 8, 7])
    assert sorted(index.rows_for_key(7).tolist()) == [0, 2]
    assert index.rows_for_key(99).tolist() == []


def test_num_distinct_and_keys():
    index = HashIndex([3, 1, 3, 2])
    assert index.num_distinct == 3
    assert index.distinct_keys().tolist() == [1, 2, 3]


def test_lookup_against_dict_reference():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 20, 200)
    probes = rng.integers(-5, 25, 100)
    index = HashIndex(keys)
    reference = {}
    for i, k in enumerate(keys.tolist()):
        reference.setdefault(k, []).append(i)
    result = index.lookup(probes)
    offset = 0
    rows = result.matching_rows()
    for probe, count in zip(probes.tolist(), result.counts.tolist()):
        expected = reference.get(probe, [])
        assert count == len(expected)
        got = rows[offset:offset + count].tolist()
        assert sorted(got) == sorted(expected)
        offset += count


# ----------------------------------------------------------------------
# Edge cases: empty probe batches, all-miss lookups, empty indexes —
# every path must return a well-formed (typed, zero-length) result
# ----------------------------------------------------------------------


def test_lookup_empty_key_array_is_well_formed():
    index = HashIndex([3, 1, 3])
    for empty in (np.empty(0, dtype=np.int64), np.asarray([]), []):
        result = index.lookup(empty)
        assert len(result) == 0
        assert result.counts.dtype == np.int64
        assert result.counts.tolist() == []
        assert result.matched_mask.tolist() == []
        assert result.total_matches() == 0
        rows = result.matching_rows()
        assert rows.dtype == np.int64 and rows.tolist() == []


def test_lookup_all_misses_is_well_formed():
    index = HashIndex([3, 1, 3])
    result = index.lookup([100, -7, 2])
    assert result.counts.tolist() == [0, 0, 0]
    assert result.matched_mask.tolist() == [False, False, False]
    rows = result.matching_rows()
    assert rows.dtype == np.int64 and rows.tolist() == []


def test_empty_index_lookup_and_contains():
    index = HashIndex(np.empty(0, dtype=np.int64))
    assert len(index) == 0 and index.num_distinct == 0
    result = index.lookup([1, 2])
    assert result.counts.dtype == np.int64
    assert result.counts.tolist() == [0, 0]
    assert result.matching_rows().tolist() == []
    assert index.contains([1, 2]).tolist() == [False, False]
    assert index.rows_for_key(1).tolist() == []
    # empty index probed with an empty batch
    empty_probe = index.lookup(np.empty(0, dtype=np.int64))
    assert len(empty_probe) == 0
    assert empty_probe.matching_rows().tolist() == []


def test_row_restricted_index_with_empty_rows():
    index = HashIndex([5, 6, 7], rows=np.empty(0, dtype=np.int64))
    assert len(index) == 0
    assert index.lookup([5]).counts.tolist() == [0]
    assert index.contains([6]).tolist() == [False]


def test_concat_ranges_zero_length_runs_between_real_ones():
    out = concat_ranges([0, 100, 10], [2, 0, 3])
    assert out.dtype == np.int64
    assert out.tolist() == [0, 1, 10, 11, 12]


def test_concat_ranges_empty_inputs_return_int64():
    for starts, lengths in (([], []), (np.asarray([]), np.asarray([]))):
        out = concat_ranges(starts, lengths)
        assert out.dtype == np.int64 and out.tolist() == []


def test_probe_stats_matches_lookup():
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 12, 80)
    probes = rng.integers(-3, 15, 60)
    index = HashIndex(keys)
    result = index.lookup(probes)
    assert index.probe_stats(probes) == (
        int(result.matched_mask.sum()), int(result.counts.sum())
    )
    assert index.probe_stats([]) == (0, 0)


# ----------------------------------------------------------------------
# Physical layouts: chosen by the keys alone, invisible in the answers
# ----------------------------------------------------------------------


def is_dense(index):
    return index._offsets is not None


def sorted_layout_bytes(index):
    """What ``_unique_keys`` + ``_starts`` + ``_counts`` would cost."""
    return index.num_distinct * (index.key_dtype.itemsize + 16)


def test_dense_keys_use_the_direct_address_table():
    rng = np.random.default_rng(0)
    index = HashIndex(rng.integers(100, 1100, size=1000))
    assert is_dense(index)
    assert index._unique_keys is None  # replaced, not kept beside
    assert index._offsets.nbytes <= sorted_layout_bytes(index)
    assert index._offsets.dtype == np.uint16  # narrowest for 1000 rows


def test_sparse_float_and_huge_keys_stay_sorted():
    rng = np.random.default_rng(1)
    assert not is_dense(HashIndex(rng.integers(0, 10**9, size=1000)))
    assert not is_dense(HashIndex(rng.integers(0, 50, size=100) / 2.0))
    assert not is_dense(HashIndex(np.asarray([True, False, True])))
    assert not is_dense(HashIndex(2**62 + rng.integers(0, 50, size=100)))
    assert not is_dense(HashIndex(np.empty(0, dtype=np.int64)))


def test_layout_rule_is_the_byte_budget():
    # 1000 rows -> 2-byte offsets; int64 keys cost 24 bytes per
    # distinct key sorted: dense up to span + 2 <= 12 * distinct
    keys = np.arange(1000, dtype=np.int64)
    assert is_dense(HashIndex(keys * 11))
    assert not is_dense(HashIndex(keys * 13))
    # 100_000 rows -> 4-byte offsets: the budget halves
    keys = np.arange(100_000, dtype=np.int64)
    assert is_dense(HashIndex(keys * 5))
    assert not is_dense(HashIndex(keys * 7))


def test_out_of_range_probes_hit_the_empty_sentinel():
    index = HashIndex(np.asarray([10, 11, 11, 13], dtype=np.int64))
    assert is_dense(index)
    probes = np.asarray([9, 10, 11, 12, 13, 14, -2**63, 2**63 - 1])
    assert index.lookup(probes).counts.tolist() == [0, 1, 2, 0, 1, 0, 0, 0]
    assert index.lookup(probes).matching_rows().tolist() == [0, 1, 2, 3]
    assert index.contains(probes).tolist() == [
        False, True, True, False, True, False, False, False]
    assert index.probe_stats(probes) == (3, 4)
    # narrow and unsigned probe dtypes widen before the shift
    assert index.lookup(np.asarray([-128, 11, 127], dtype=np.int8)
                        ).counts.tolist() == [0, 2, 0]
    assert index.lookup(np.asarray([2**64 - 1, 13], dtype=np.uint64)
                        ).counts.tolist() == [0, 1]


def test_sorted_views_of_a_dense_index_are_lazy():
    index = HashIndex(np.asarray([3, 1, 3, 2], dtype=np.int64))
    assert is_dense(index)
    before = index.nbytes
    index.lookup(np.asarray([1, 2, 3]))
    assert index._unique_keys is None and index.nbytes == before
    # a float probe batch compares in float64: the sorted path
    assert index.lookup(np.asarray([3.0, 2.5, np.nan])
                        ).counts.tolist() == [2, 0, 0]
    assert index.distinct_keys().tolist() == [1, 2, 3]
    assert index.nbytes > before
    assert list(index.iter_groups()) == [(1, [1]), (2, [3]), (3, [0, 2])]


def test_restricted_derives_without_rebuilding():
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 400, size=1000)
    base = HashIndex(keys)
    rows = np.flatnonzero(rng.random(1000) < 0.3)
    derived = base.restricted(rows)
    scratch = HashIndex(keys, rows=rows)
    probes = np.arange(-5, 405)
    assert derived.lookup(probes).matching_rows().tolist() == \
        scratch.lookup(probes).matching_rows().tolist()
    assert list(derived.iter_groups()) == list(scratch.iter_groups())
    assert is_dense(derived) == is_dense(scratch)
    # every row kept: the base index itself, no copy
    assert base.restricted(np.arange(1000)) is base
    # a sliver of the rows is too sparse for the table: falls back
    few = base.restricted(rows[:5])
    assert not is_dense(few) and len(few) == 5


def test_nbytes_counts_the_index_arrays():
    index = HashIndex(np.asarray([0, 1, 1, 2], dtype=np.int64))
    assert index.nbytes == index._order.nbytes + index._offsets.nbytes
    sparse = HashIndex(np.asarray([0, 10**6], dtype=np.int64))
    assert sparse.nbytes == 2 * 8 + 2 * 24
