"""Unit tests for the execution-kernel layer.

The interpreted kernels are the vectorized path's correctness oracle,
so every primitive is checked for bit-identical agreement — including
the dtype edge cases the exact-key semantics exist for (NaN keys,
float/int mixes, huge ints at and beyond 2**53).
"""

import numpy as np
import pytest

from repro.core.cyclic import exact_equal
from repro.engine.bitvector import BitvectorFilter
from repro.engine.kernels import (
    EXECUTION_CHOICES,
    INTERPRETED,
    REPRO_EXECUTION,
    VECTORIZED,
    InterpretedKernels,
    _find_positions,
    get_kernels,
    resolve_execution,
)
from repro.engine.wcoj import _positions
from repro.storage.hashindex import HashIndex, concat_ranges
from repro.storage.partition import PartitionedTable
from repro.storage.table import Table
from tests.properties.test_prop_index_layouts import SortedLayoutIndex


# ----------------------------------------------------------------------
# Knob resolution
# ----------------------------------------------------------------------


def test_resolve_execution_defaults(monkeypatch):
    monkeypatch.delenv(REPRO_EXECUTION, raising=False)
    assert resolve_execution() == "vectorized"
    assert resolve_execution("auto") == "vectorized"
    assert resolve_execution("vectorized") == "vectorized"
    assert resolve_execution("interpreted") == "interpreted"


def test_resolve_execution_env_overrides_only_auto(monkeypatch):
    monkeypatch.setenv(REPRO_EXECUTION, "interpreted")
    assert resolve_execution("auto") == "interpreted"
    assert resolve_execution(None) == "interpreted"
    # explicit choices are never overridden
    assert resolve_execution("vectorized") == "vectorized"


def test_resolve_execution_rejects_invalid(monkeypatch):
    with pytest.raises(ValueError, match="execution must be one of"):
        resolve_execution("simd")
    monkeypatch.setenv(REPRO_EXECUTION, "gpu")
    with pytest.raises(ValueError, match=REPRO_EXECUTION):
        resolve_execution("auto")


def test_get_kernels_singletons(monkeypatch):
    monkeypatch.delenv(REPRO_EXECUTION, raising=False)
    assert get_kernels("vectorized") is VECTORIZED
    assert get_kernels("interpreted") is INTERPRETED
    assert get_kernels() is VECTORIZED
    assert get_kernels("auto") is VECTORIZED
    assert set(EXECUTION_CHOICES) == {"vectorized", "interpreted", "auto"}


# ----------------------------------------------------------------------
# Probe agreement on hash indexes
# ----------------------------------------------------------------------


def _assert_lookup_agreement(index, probes):
    vect = VECTORIZED.lookup(index, probes)
    interp = INTERPRETED.lookup(index, probes)
    assert vect.counts.tolist() == interp.counts.tolist()
    assert vect.matched_mask.tolist() == interp.matched_mask.tolist()
    assert vect.total_matches() == interp.total_matches()
    assert vect.matching_rows().tolist() == interp.matching_rows().tolist()
    # fan_out(): the same matches, each with the probe position it matched
    lineage = np.repeat(np.arange(len(probes)), vect.counts).tolist()
    for result in (vect, interp):
        assert result.fan_out()[0].tolist() == lineage
        assert result.fan_out()[1].tolist() == vect.matching_rows().tolist()
    assert VECTORIZED.contains(index, probes).tolist() == \
        INTERPRETED.contains(index, probes).tolist()


def test_lookup_agreement_int_keys():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 25, 300)
    probes = rng.integers(-5, 30, 200)
    partitioned = PartitionedTable("t", {"k": keys}, "k", 4)
    for index in (HashIndex(keys), partitioned.build_hash_index("k")):
        _assert_lookup_agreement(index, probes)


def test_lookup_agreement_float_keys_with_nan():
    keys = np.asarray([1.5, 2.0, np.nan, 2.0, -0.0, np.nan, 7.25])
    probes = np.asarray([2.0, np.nan, 1.5, 0.0, 3.0, 7.25, np.nan])
    index = HashIndex(keys)
    _assert_lookup_agreement(index, probes)
    # NaN probes miss on both paths
    assert not VECTORIZED.contains(index, np.asarray([np.nan]))[0]
    assert not INTERPRETED.contains(index, np.asarray([np.nan]))[0]


def test_lookup_agreement_int_build_float_probes_beyond_2_53():
    # 2**53 and 2**53 + 1 collide after a float64 upcast; both paths
    # must agree on which build group the collided probe resolves to
    # (searchsorted's side="left" first position).
    keys = np.asarray([2 ** 53, 2 ** 53 + 1, 10, 11], dtype=np.int64)
    probes = np.asarray([float(2 ** 53), 10.0, 10.5, float(2 ** 53 + 2)])
    _assert_lookup_agreement(HashIndex(keys), probes)


def test_lookup_agreement_float_build_int_probes():
    keys = np.asarray([1.0, 2.5, 3.0, np.nan])
    probes = np.asarray([1, 2, 3, 4], dtype=np.int64)
    _assert_lookup_agreement(HashIndex(keys), probes)


def test_lookup_agreement_bool_keys():
    keys = np.asarray([True, False, True, True])
    probes = np.asarray([True, False])
    _assert_lookup_agreement(HashIndex(keys), probes)


def test_lookup_agreement_empty_index_and_empty_probes():
    empty = HashIndex(np.asarray([], dtype=np.int64))
    _assert_lookup_agreement(empty, np.asarray([1, 2], dtype=np.int64))
    full = HashIndex(np.asarray([1, 2], dtype=np.int64))
    _assert_lookup_agreement(full, np.asarray([], dtype=np.int64))


_U53 = 2 ** 53

#: (sorted-unique build array, probe batch) per dtype pairing
_POSITION_CASES = {
    "int64_int64": (np.arange(-3, 40, 2, dtype=np.int64),
                    np.arange(-6, 45, dtype=np.int64)),
    "int64_float64_2_53": (
        np.asarray([10, 11, _U53, _U53 + 1, _U53 + 3], dtype=np.int64),
        np.asarray([10.0, 10.5, float(_U53), float(_U53 + 2),
                    float(2 ** 54), -1.0])),
    "dense_int64_float64": (np.arange(8, dtype=np.int64),
                            np.asarray([0.0, 7.0, 3.5, 8.0, -1.0])),
    "uint64_int64": (np.arange(0, 40, 3, dtype=np.uint64),
                     np.asarray([3, -3, 39, 40, 0], dtype=np.int64)),
    "int64_uint64": (np.asarray([-4, 0, 5, 2 ** 40], dtype=np.int64),
                     np.asarray([5, 0, 2 ** 40, 2 ** 63 + 1],
                                dtype=np.uint64)),
    "bool_bool": (np.asarray([False, True]),
                  np.asarray([True, False, True])),
    "bool_int64": (np.asarray([False, True]),
                   np.asarray([1, 0, 2, -1], dtype=np.int64)),
    "nan_build": (np.unique(np.asarray([1.5, np.nan, -0.0, 2.0, np.nan])),
                  np.asarray([0.0, 2.0, 1.5, 3.0])),
    "nan_probe": (np.asarray([-1.0, 0.5, 2.0]),
                  np.asarray([np.nan, 2.0, np.nan, -1.0])),
    "nan_both": (np.asarray([0.5, np.nan]),
                 np.asarray([np.nan, 0.5])),
    "empty_build": (np.asarray([], dtype=np.int64),
                    np.asarray([1, 2], dtype=np.int64)),
    "empty_probe": (np.asarray([1, 2], dtype=np.int64),
                    np.asarray([], dtype=np.int64)),
}


@pytest.mark.parametrize("case", sorted(_POSITION_CASES))
@pytest.mark.parametrize("kernels", [VECTORIZED, INTERPRETED],
                         ids=["vectorized", "interpreted"])
@pytest.mark.parametrize("layout", [HashIndex, SortedLayoutIndex],
                         ids=["byte_rule", "sorted"])
def test_index_lookup_positions_equal_find_positions(case, kernels, layout):
    """The lemma behind wcoj's probes: over a sorted-unique array, a
    ``HashIndex`` lookup's single matching row per hit is exactly the
    searchsorted position ``_find_positions`` answers, on both planes
    and in both layouts."""
    build, probes = _POSITION_CASES[case]
    index = layout(build)
    assert _positions(kernels, index, probes).tolist() == \
        _find_positions(build, probes).tolist()


def test_positions_lemma_exercises_the_dense_layout():
    for case in ("int64_int64", "dense_int64_float64", "uint64_int64"):
        assert HashIndex(_POSITION_CASES[case][0])._offsets is not None


def test_index_lookup_positions_uint64_int64_beyond_2_53():
    # The float64 comparison dtype collides 2**53 and 2**53 + 1; NumPy 2
    # then rejects the hit with an exact uint64/int64 ``==`` where the
    # interpreted float64 dict view accepts it — a divergence of the
    # probe semantics themselves (the same before wcoj used them), so
    # only the vectorized plane is pinned to the searchsorted answer.
    build = np.asarray([1, _U53, _U53 + 1], dtype=np.uint64)
    probes = np.asarray([_U53 + 1, _U53, 1], dtype=np.int64)
    for layout in (HashIndex, SortedLayoutIndex):
        assert _positions(VECTORIZED, layout(build), probes).tolist() == \
            _find_positions(build, probes).tolist()


def test_interpreted_view_cached_per_dtype():
    kernels = InterpretedKernels()
    keys = np.asarray([1, 2, 2, 3], dtype=np.int64)
    index = HashIndex(keys)
    kernels.lookup(index, np.asarray([1, 2], dtype=np.int64))
    kernels.lookup(index, np.asarray([1.0, 2.0]))
    views = kernels._group_views[index]
    assert set(views) == {np.dtype(np.int64).str, np.dtype(np.float64).str}


# ----------------------------------------------------------------------
# Bitvector probes
# ----------------------------------------------------------------------


def test_bitvector_agreement():
    rng = np.random.default_rng(1)
    filt = BitvectorFilter(rng.integers(0, 1000, 200))
    probes = rng.integers(0, 2000, 500)
    assert VECTORIZED.bitvector_contains(filt, probes).tolist() == \
        INTERPRETED.bitvector_contains(filt, probes).tolist()


# ----------------------------------------------------------------------
# Expansion primitives
# ----------------------------------------------------------------------


def test_repeat_rows_agreement():
    values = np.asarray([5, 7, 9, 11], dtype=np.int64)
    counts = np.asarray([0, 3, 1, 2], dtype=np.int64)
    expected = np.repeat(values, counts)
    assert VECTORIZED.repeat_rows(values, counts).tolist() == \
        expected.tolist()
    got = INTERPRETED.repeat_rows(values, counts)
    assert got.tolist() == expected.tolist()
    assert got.dtype == expected.dtype


@pytest.mark.parametrize("starts, counts, lineage, positions", [
    # zero-length runs between real ones
    ([4, 0, 10, 7, 2], [2, 0, 3, 0, 1], [0, 0, 2, 2, 2, 4],
     [4, 5, 10, 11, 12, 2]),
    ([3, 9], [0, 0], [], []),  # all-zero counts
    ([], [], [], []),  # empty input
], ids=["zero_runs_between", "all_zero", "empty"])
@pytest.mark.parametrize("dtype", [np.int64, np.uint16],
                         ids=["int64", "narrow_offsets"])
def test_fan_out_agreement(starts, counts, lineage, positions, dtype):
    """Both planes return the same ``(lineage, positions)``: positions
    are the concatenated ranges ``concat_ranges`` answers, lineage the
    range each position came from (narrow unsigned starts are how the
    wcoj CSR offsets arrive)."""
    starts = np.asarray(starts, dtype=dtype)
    counts = np.asarray(counts, dtype=np.int64)
    assert concat_ranges(starts, counts).tolist() == positions
    for kernels in (VECTORIZED, INTERPRETED):
        got_lineage, got_positions = kernels.fan_out(starts, counts)
        assert got_lineage.tolist() == lineage
        assert got_positions.tolist() == positions
        assert got_lineage.dtype == got_positions.dtype == np.int64


# ----------------------------------------------------------------------
# Base-row-id remapping and gather
# ----------------------------------------------------------------------


def test_original_rows_and_gather_agreement():
    rng = np.random.default_rng(2)
    values = rng.integers(0, 50, 64)
    payload = np.arange(64, dtype=np.int64)
    plain = Table("t", {"k": values, "p": payload})
    sharded = PartitionedTable.from_table(plain, "k", 4)
    rows = rng.integers(0, 64, 40).astype(np.int64)
    for table in (plain, sharded):
        assert VECTORIZED.original_rows(table, rows).tolist() == \
            INTERPRETED.original_rows(table, rows).tolist()
        for attr in ("k", "p"):
            vect = VECTORIZED.gather(table, attr, rows)
            interp = INTERPRETED.gather(table, attr, rows)
            assert vect.tolist() == interp.tolist()
            assert vect.dtype == interp.dtype
    # gather on a partitioned table takes *base* ids: values must match
    # the plain table's column ordering regardless of re-clustering
    assert VECTORIZED.gather(sharded, "p", rows).tolist() == \
        payload[rows].tolist()


def test_base_row_ids_identity_marker():
    plain = Table("t", {"k": np.asarray([3, 1, 2], dtype=np.int64)})
    assert plain.base_row_ids() is None
    sharded = PartitionedTable.from_table(plain, "k", 2)
    base = sharded.base_row_ids()
    assert sorted(base.tolist()) == [0, 1, 2]


# ----------------------------------------------------------------------
# Residual equality
# ----------------------------------------------------------------------


@pytest.mark.parametrize("a, b", [
    (np.asarray([1, 2, 3], dtype=np.int64),
     np.asarray([1, 4, 3], dtype=np.int64)),
    (np.asarray([1.0, np.nan, 2.5]), np.asarray([1.0, np.nan, 2.5])),
    (np.asarray([2 ** 53, 2 ** 53 + 1], dtype=np.int64),
     np.asarray([float(2 ** 53), float(2 ** 53)])),
    (np.asarray([True, False]), np.asarray([1, 0], dtype=np.int64)),
    (np.asarray([1, 2], dtype=np.int64), np.asarray([1.5, 2.0])),
])
def test_equal_mask_agreement(a, b):
    expected = exact_equal(a, b)
    assert VECTORIZED.equal_mask(a, b).tolist() == expected.tolist()
    assert INTERPRETED.equal_mask(a, b).tolist() == expected.tolist()
