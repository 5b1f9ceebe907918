"""Property tests: the hash index agrees with a dict-based reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.hashindex import HashIndex, concat_ranges

keys_strategy = st.lists(st.integers(-50, 50), max_size=120)
probes_strategy = st.lists(st.integers(-60, 60), max_size=60)


@given(keys=keys_strategy, probes=probes_strategy)
@settings(max_examples=80, deadline=None)
def test_lookup_matches_reference(keys, probes):
    index = HashIndex(np.asarray(keys, dtype=np.int64))
    reference = {}
    for i, key in enumerate(keys):
        reference.setdefault(key, []).append(i)
    result = index.lookup(np.asarray(probes, dtype=np.int64))
    assert result.counts.tolist() == [
        len(reference.get(p, [])) for p in probes
    ]
    rows = result.matching_rows()
    offset = 0
    for probe in probes:
        expected = reference.get(probe, [])
        got = rows[offset:offset + len(expected)].tolist()
        assert sorted(got) == sorted(expected)
        offset += len(expected)
    assert offset == len(rows)


@given(keys=keys_strategy, probes=probes_strategy)
@settings(max_examples=60, deadline=None)
def test_contains_matches_membership(keys, probes):
    index = HashIndex(np.asarray(keys, dtype=np.int64))
    key_set = set(keys)
    mask = index.contains(np.asarray(probes, dtype=np.int64))
    assert mask.tolist() == [p in key_set for p in probes]


@given(
    data=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 5)), max_size=40
    )
)
@settings(max_examples=60, deadline=None)
def test_concat_ranges_matches_python(data):
    starts = [s for s, _ in data]
    lengths = [length for _, length in data]
    expected = [
        value
        for start, length in data
        for value in range(start, start + length)
    ]
    got = concat_ranges(starts, lengths)
    assert got.tolist() == expected


@given(keys=keys_strategy, subset_seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_restricted_index_is_a_filter(keys, subset_seed):
    keys_arr = np.asarray(keys, dtype=np.int64)
    rng = np.random.default_rng(subset_seed)
    mask = rng.random(len(keys_arr)) < 0.5
    rows = np.nonzero(mask)[0]
    index = HashIndex(keys_arr, rows=rows)
    probes = np.unique(keys_arr) if len(keys_arr) else np.empty(0, np.int64)
    result = index.lookup(probes)
    matched = result.matching_rows()
    assert set(matched.tolist()) <= set(rows.tolist())
    total = sum(
        int((keys_arr[rows] == p).sum()) for p in probes.tolist()
    )
    assert result.total_matches() == total
