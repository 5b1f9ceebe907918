"""Tests for the bitvector filter."""

import numpy as np
import pytest

from repro.engine.bitvector import BitvectorFilter, default_num_bits


def test_no_false_negatives():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 10_000, 500)
    bv = BitvectorFilter(keys)
    assert bv.might_contain(keys).all()


def test_false_positive_rate_bounded():
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 50_000, 2_000)
    bv = BitvectorFilter(keys)
    absent = np.arange(100_000, 120_000)
    fpr = bv.measured_false_positive_rate(absent)
    # With 16 bits/key the fill fraction stays under ~6%.
    assert fpr < 0.15
    assert abs(fpr - bv.fill_fraction) < 0.05


def test_default_num_bits_power_of_two():
    for n in (0, 1, 7, 100, 5000):
        bits = default_num_bits(n)
        assert bits & (bits - 1) == 0
        assert bits >= 64


def test_explicit_num_bits_validated():
    with pytest.raises(ValueError, match="power of two"):
        BitvectorFilter([1, 2, 3], num_bits=100)


def test_small_filter_has_false_positives():
    """An undersized table saturates — correctness is unaffected, cost
    model's eps just grows (Section 3.5)."""
    keys = np.arange(1000)
    bv = BitvectorFilter(keys, num_bits=64)
    assert bv.fill_fraction > 0.9


def test_empty_build_side():
    bv = BitvectorFilter(np.empty(0, dtype=np.int64))
    assert not bv.might_contain(np.asarray([1, 2, 3])).any()
    assert bv.fill_fraction == 0.0
    assert bv.measured_false_positive_rate(np.asarray([5])) == 0.0
    assert bv.measured_false_positive_rate(np.empty(0, dtype=np.int64)) == 0.0


def test_empty_probe_batch():
    bv = BitvectorFilter([1, 2])
    assert bv.might_contain(np.empty(0, dtype=np.int64)).tolist() == []


def test_negative_keys_supported():
    keys = np.asarray([-5, -1, 3])
    bv = BitvectorFilter(keys)
    assert bv.might_contain(keys).all()
