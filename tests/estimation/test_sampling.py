"""Tests for the correlated sampling estimator."""

import numpy as np
import pytest

from repro.estimation import CorrelatedSample, true_join_stats
from repro.storage.table import Table


def make_tables(seed=0, n_probe=2000, n_build=3000, domain=100):
    rng = np.random.default_rng(seed)
    probe = Table("r", {
        "k": rng.integers(0, domain, n_probe),
        "a": rng.integers(0, 4, n_probe),
    })
    build = Table("s", {
        "k": rng.integers(0, 2 * domain, n_build),  # half the keys dangle
        "c": rng.integers(0, 4, n_build),
    })
    return probe, build


def test_full_sample_is_exact():
    probe, build = make_tables()
    sample = CorrelatedSample(probe, build, "k", "k", sample_fraction=1.0,
                              max_matches_per_tuple=10**9)
    truth = true_join_stats(probe, build, "k", "k")
    est = sample.estimate()
    assert est.m == pytest.approx(truth.m)
    assert est.fo == pytest.approx(truth.fo)


def test_small_sample_close_to_truth():
    probe, build = make_tables(seed=3)
    sample = CorrelatedSample(probe, build, "k", "k", sample_fraction=0.2,
                              seed=1)
    truth = true_join_stats(probe, build, "k", "k")
    est = sample.estimate()
    assert est.m == pytest.approx(truth.m, abs=0.1)
    assert est.fo == pytest.approx(truth.fo, rel=0.3)


def test_predicates_supported():
    probe, build = make_tables(seed=5)
    sample = CorrelatedSample(probe, build, "k", "k", sample_fraction=1.0,
                              max_matches_per_tuple=10**9)
    truth = true_join_stats(probe, build, "k", "k",
                            probe_predicate={"a": 2},
                            build_predicate={"c": 1})
    est = sample.estimate(probe_predicate={"a": 2},
                          build_predicate={"c": 1})
    assert est.m == pytest.approx(truth.m, abs=0.02)
    assert est.fo == pytest.approx(truth.fo, rel=0.1)


def test_match_cap_scales_counts():
    probe = Table("r", {"k": np.zeros(10, dtype=np.int64)})
    build = Table("s", {"k": np.zeros(50, dtype=np.int64)})
    sample = CorrelatedSample(probe, build, "k", "k", sample_fraction=1.0,
                              max_matches_per_tuple=5)
    est = sample.estimate()
    assert est.m == 1.0
    assert est.fo == pytest.approx(50.0)  # scaled back up from the cap


def test_empty_probe_predicate_selection():
    probe, build = make_tables(seed=7)
    sample = CorrelatedSample(probe, build, "k", "k", sample_fraction=0.1,
                              seed=2)
    est = sample.estimate(probe_predicate={"a": 99})
    assert est.m == 0.0
    assert est.fo == 1.0


def test_invalid_fraction_rejected():
    probe, build = make_tables()
    with pytest.raises(ValueError, match="sample_fraction"):
        CorrelatedSample(probe, build, "k", "k", sample_fraction=0.0)


def test_sample_size_property():
    probe, build = make_tables()
    sample = CorrelatedSample(probe, build, "k", "k", sample_fraction=0.05)
    assert sample.sample_size == round(0.05 * len(probe))


def test_true_join_stats_no_survivors():
    probe = Table("r", {"k": [1, 2]})
    build = Table("s", {"k": [1, 2], "c": [5, 5]})
    stats = true_join_stats(probe, build, "k", "k",
                            build_predicate={"c": 99})
    assert stats.m == 0.0
    assert stats.fo == 1.0


def test_true_join_stats_empty_probe():
    probe = Table("r", {"k": [1], "a": [0]})
    build = Table("s", {"k": [1]})
    stats = true_join_stats(probe, build, "k", "k",
                            probe_predicate={"a": 9})
    assert stats.m == 0.0
