"""Property test: the two ``HashIndex`` layouts are indistinguishable.

For random key columns and probe batches over every numeric dtype the
engine can meet — narrow and wide integers, unsigned keys at and beyond
``2**63``, values around ``2**53``, bools, floats with NaN — and for
key densities from "every slot taken" to sparse, the index as built
(dense wherever the byte rule allows), the same index forced into the
sorted layout, and a plain dict reference must agree on every public
observable.  The same holds for row-restricted indexes, whether built
from scratch or derived with ``restricted()``, and for the index of a
hash-partitioned table once its rows are mapped back to base ids.

The forced-sorted variant is a test-only subclass: the layout has no
outside selector by design (``tools/check_invariants.py`` enforces it).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import PartitionedTable
from repro.storage.hashindex import HashIndex

KEY_DTYPES = ("int8", "int16", "int32", "int64", "uint8", "uint32",
              "uint64", "bool", "float64")
SHARD_COUNTS = (1, 2, 8)


class SortedLayoutIndex(HashIndex):
    """``HashIndex`` whose byte rule never admits the dense layout."""

    @staticmethod
    def _dense_fits(key_itemsize, span, rows, distinct):
        return False


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


def _anchors(dtype):
    """Interesting places for a key range to start."""
    if dtype.kind == "f":
        return [0, -40, 2**53 - 8, -(2**53) - 8]
    info = np.iinfo(dtype)
    anchors = [0, info.min, info.max - 40, info.max]
    for power in (53, 62, 63):
        for sign in (1, -1):
            anchors += [sign * 2**power - 3, sign * 2**power]
    return [a for a in anchors if info.min <= a <= info.max]


def _column(rng, dtype, size, anchor, spread):
    """``size`` values of ``dtype`` drawn from ``spread * size`` slots
    upward of ``anchor`` (clipped into the dtype's range)."""
    dtype = np.dtype(dtype)
    if dtype.kind == "b":
        return rng.random(size) < 0.5
    width = max(1, size) * spread
    values = [anchor + int(step) for step in
              rng.integers(0, width, size=size)]
    if dtype.kind == "f":
        column = np.asarray(values, dtype=np.float64)
        column[rng.random(size) < 0.15] += 0.5
        column[rng.random(size) < 0.1] = np.nan
        return column
    info = np.iinfo(dtype)
    return np.asarray(
        [min(max(v, info.min), info.max) for v in values], dtype=dtype
    )


def _probes(rng, dtype, keys, size):
    """Probe batch of ``dtype``: build keys, their neighbours, misses."""
    dtype = np.dtype(dtype)
    if dtype.kind == "b":
        return rng.random(size) < 0.5
    pool = [0, 1, -1, 2**53, 2**53 + 1, 2**62, 2**63, 2**64 - 1,
            -(2**62), -(2**63)]
    for key in keys.tolist():
        if key != key:
            continue
        key = int(key)
        pool += [key, key + 1, key - 1]
    picks = [pool[int(i)] for i in rng.integers(0, len(pool), size=size)]
    if dtype.kind == "f":
        column = np.asarray([float(p) for p in picks], dtype=np.float64)
        column[rng.random(size) < 0.1] += 0.5
        column[rng.random(size) < 0.1] = np.nan
        return column
    info = np.iinfo(dtype)
    return np.asarray(
        [p if info.min <= p <= info.max else 0 for p in picks], dtype=dtype
    )


@st.composite
def index_cases(draw, key_dtypes=KEY_DTYPES):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    key_dtype = np.dtype(draw(st.sampled_from(key_dtypes)))
    size = draw(st.integers(0, 48))
    anchor = 0
    if key_dtype.kind != "b":
        anchor = draw(st.sampled_from(_anchors(key_dtype)))
    spread = draw(st.sampled_from((1, 2, 6, 1000, 2**40)))
    keys = _column(rng, key_dtype, size, anchor, spread)
    probe_dtype = draw(st.sampled_from(KEY_DTYPES))
    probes = _probes(rng, probe_dtype, keys, draw(st.integers(0, 40)))
    return rng, keys, probes


# ----------------------------------------------------------------------
# The dict reference
# ----------------------------------------------------------------------


def _tag(key):
    return "nan" if key != key else key


class DictIndex:
    """What an index over ``keys[rows]`` (reporting ``rows``) answers,
    from plain Python containers.

    Probe semantics are the sorted layout's: the group is *found* in
    ``np.result_type(key dtype, probe dtype)`` — where that cast folds
    several build keys together the smallest one answers — and NaN
    never matches.  One corner is NumPy's own: int64 against uint64
    folds through float64 to find the group but then compares the two
    integers exactly.
    """

    def __init__(self, keys, rows):
        self.dtype = keys.dtype
        pairs = sorted(
            zip(keys[rows].tolist(), np.asarray(rows).tolist()),
            key=lambda pair: (pair[0] != pair[0], pair[0]),  # NaN last
        )
        self.groups = {}
        for key, row in pairs:
            self.groups.setdefault(_tag(key), (key, []))[1].append(row)

    def iter_groups(self):
        return [(_tag(key), rows) for key, rows in self.groups.values()]

    def answers(self, probes):
        common = np.result_type(self.dtype, probes.dtype)
        exact = self.dtype.kind in "iu" and probes.dtype.kind in "iu"
        view = {}
        for key, rows in self.groups.values():
            cast = np.asarray([key], dtype=self.dtype).astype(common)[0]
            cast = cast.item()
            if cast == cast:
                view.setdefault(cast, (key, rows))
        answers = []
        for probe, cast in zip(probes.tolist(),
                               probes.astype(common).tolist()):
            key, rows = view.get(cast, (None, [])) if cast == cast \
                else (None, [])
            answers.append(rows if not exact or key == probe else [])
        return answers


def assert_index_matches(index, reference, probes, context):
    groups = reference.iter_groups()
    assert [(_tag(k), rows) for k, rows in index.iter_groups()] == groups, \
        context
    assert [_tag(k) for k in index.distinct_keys().tolist()] == \
        [key for key, _ in groups], context
    assert index.distinct_keys().dtype == reference.dtype, context
    assert index.key_dtype == reference.dtype, context
    assert index.num_distinct == len(groups), context
    assert len(index) == sum(len(rows) for _, rows in groups), context

    answers = reference.answers(probes)
    counts = [len(rows) for rows in answers]
    result = index.lookup(probes)
    assert result.counts.dtype == np.int64, context
    assert result.counts.tolist() == counts, context
    assert result.matched_mask.tolist() == [c > 0 for c in counts], context
    matching = result.matching_rows()
    assert matching.dtype == np.int64, context
    assert matching.tolist() == [r for rows in answers for r in rows], context
    assert index.contains(probes).tolist() == [c > 0 for c in counts], context
    assert index.probe_stats(probes) == (
        sum(c > 0 for c in counts), sum(counts)
    ), context


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@given(case=index_cases())
@settings(max_examples=300, deadline=None)
def test_layouts_agree_with_dict_reference(case):
    _, keys, probes = case
    reference = DictIndex(keys, np.arange(len(keys)))
    for cls in (HashIndex, SortedLayoutIndex):
        context = (cls.__name__, keys.dtype, probes.dtype)
        assert_index_matches(cls(keys), reference, probes, context)


@given(case=index_cases(), how=st.sampled_from(
    ("ascending", "shuffled", "repeated", "empty", "all")))
@settings(max_examples=300, deadline=None)
def test_row_restrictions_agree(case, how):
    rng, keys, probes = case
    rows = np.flatnonzero(rng.random(len(keys)) < 0.6)
    if how == "shuffled":
        rows = rng.permutation(rows)
    elif how == "repeated":
        rows = np.concatenate([rows, rows[:3]])
    elif how == "empty":
        rows = rows[:0]
    elif how == "all":
        rows = np.arange(len(keys))
    reference = DictIndex(keys, rows)
    for cls in (HashIndex, SortedLayoutIndex):
        context = (cls.__name__, how, keys.dtype, probes.dtype)
        assert_index_matches(cls(keys, rows=rows), reference, probes, context)
        derived = cls(keys).restricted(rows)
        assert isinstance(derived, cls), context
        assert_index_matches(derived, reference, probes, context)
        if how != "repeated":
            # a derived index is a full citizen: restrict it again
            again = rows[::2]
            assert_index_matches(derived.restricted(again),
                                 DictIndex(keys, again), probes, context)


def _shardable(keys):
    return len(keys) and PartitionedTable.can_shard(keys)


@given(case=index_cases(key_dtypes=("int8", "int32", "int64", "uint8",
                                    "uint32", "uint64")))
@settings(max_examples=150, deadline=None)
def test_sharded_indexes_agree(case):
    """A partitioned table is indexed by a plain ``HashIndex`` over its
    re-clustered column; mapped through ``original_rows`` it answers
    exactly like the base column's index, restricted or not."""
    rng, keys, probes = case
    if not _shardable(keys):
        return
    rows = np.flatnonzero(rng.random(len(keys)) < 0.6)
    for num_shards in SHARD_COUNTS:
        table = PartitionedTable("t", {"k": keys}, "k", num_shards)
        full = table.build_hash_index("k")
        for subset in (np.arange(len(keys)), rows, rows[:0]):
            context = (num_shards, len(subset), keys.dtype, probes.dtype)
            physical = np.sort(table.physical_rows(subset))
            for index in (full.restricted(physical),
                          table.build_hash_index("k", rows=physical)):
                assert type(index) is HashIndex, context
                assert_partitioned_matches(index, table,
                                           DictIndex(keys, subset), probes,
                                           context)


def assert_partitioned_matches(index, table, reference, probes, context):
    """Every observable of ``index``, its row ids mapped to base ids:
    a key's rows share one shard, in base order, so even group and
    match order are the base index's."""
    groups = reference.iter_groups()
    assert [(_tag(k), table.original_rows(rows).tolist())
            for k, rows in index.iter_groups()] == groups, context
    assert index.distinct_keys().tolist() == [k for k, _ in groups], context
    assert index.num_distinct == len(groups), context
    answers = reference.answers(probes)
    counts = [len(rows) for rows in answers]
    result = index.lookup(probes)
    assert result.counts.tolist() == counts, context
    assert table.original_rows(result.matching_rows()).tolist() == \
        [r for rows in answers for r in rows], context
    assert index.contains(probes).tolist() == [c > 0 for c in counts], context
    assert index.probe_stats(probes) == (
        sum(c > 0 for c in counts), sum(counts)
    ), context


@given(case=index_cases(key_dtypes=("int8", "int16", "int32", "int64",
                                    "uint8", "uint32", "uint64")))
@settings(max_examples=200, deadline=None)
def test_dense_layout_never_costs_bytes(case):
    """Wherever the dense layout is chosen it is no larger than the
    sorted layout of the same keys — and dense columns do choose it."""
    _, keys, _ = case
    index = HashIndex(keys)
    if index._offsets is not None:
        assert index.nbytes <= SortedLayoutIndex(keys).nbytes
    low_high = (int(keys.min()), int(keys.max())) if len(keys) else (0, 0)
    if len(keys) and abs(low_high[0]) < 2**62 and abs(low_high[1]) < 2**62:
        if low_high[1] - low_high[0] < index.num_distinct:
            assert index._offsets is not None  # every slot taken
