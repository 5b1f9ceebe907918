"""Tests for the controlled synthetic data generator."""

import numpy as np
import pytest

from repro.core import stats_from_data
from repro.workloads import generate_dataset, specs_from_ranges
from repro.workloads.shapes import snowflake, star
from repro.workloads.synthetic import EdgeSpec


def test_edge_spec_validation():
    with pytest.raises(ValueError):
        EdgeSpec(m=1.2, fo=2.0)
    with pytest.raises(ValueError):
        EdgeSpec(m=0.5, fo=0.5)
    with pytest.raises(ValueError):
        EdgeSpec(m=0.5, fo=2.0, fanout_dist="bogus")


def test_designed_stats_realized():
    query = snowflake(2, 1)
    specs = {
        rel: EdgeSpec(m=0.4, fo=3.0, dangling_fraction=0.1)
        for rel in query.non_root_relations
    }
    dataset = generate_dataset(query, 4000, specs, seed=1)
    stats = stats_from_data(dataset.catalog, query)
    for rel in query.non_root_relations:
        assert stats.m(rel) == pytest.approx(0.4, abs=0.04)
        assert stats.fo(rel) == pytest.approx(3.0, abs=0.25)


def test_fractional_fanout_realized():
    query = star(1)
    specs = {"R1": EdgeSpec(m=0.5, fo=2.5, dangling_fraction=0.0)}
    dataset = generate_dataset(query, 10_000, specs, seed=2)
    stats = stats_from_data(dataset.catalog, query)
    assert stats.fo("R1") == pytest.approx(2.5, abs=0.1)


def test_dangling_tuples_present():
    query = star(1)
    specs = {"R1": EdgeSpec(m=0.5, fo=2.0, dangling_fraction=0.5)}
    dataset = generate_dataset(query, 2000, specs, seed=3)
    child = dataset.catalog.table("R1")
    parent_keys = set(
        dataset.catalog.table("R0").column("k_R1").tolist()
    )
    child_keys = set(child.column("k").tolist())
    assert child_keys - parent_keys, "expected dangling child keys"


def test_max_relation_size_caps_growth():
    query = star(1)
    specs = {"R1": EdgeSpec(m=1.0, fo=10.0, dangling_fraction=0.0)}
    dataset = generate_dataset(query, 100_000, specs, seed=4,
                               max_relation_size=50_000)
    assert len(dataset.catalog.table("R1")) <= 55_000
    # Per-tuple statistics survive the key-domain reduction.
    stats = stats_from_data(dataset.catalog, query)
    assert stats.m("R1") == pytest.approx(1.0, abs=0.01)
    assert stats.fo("R1") == pytest.approx(10.0, rel=0.05)


def test_normal_fanout_distribution():
    query = star(1)
    specs = {"R1": EdgeSpec(m=1.0, fo=10.0, fanout_dist="normal",
                            fanout_sigma=4.0, dangling_fraction=0.0)}
    dataset = generate_dataset(query, 5000, specs, seed=5)
    keys = dataset.catalog.table("R1").column("k")
    counts = np.unique(keys, return_counts=True)[1]
    assert counts.mean() == pytest.approx(10.0, abs=1.0)
    assert counts.var() > 4.0
    # Truncation bounds: [1, 2*fo - 1].
    assert counts.min() >= 1
    assert counts.max() <= 19


def test_exponential_fanout_distribution():
    query = star(1)
    specs = {"R1": EdgeSpec(m=1.0, fo=10.0, fanout_dist="exponential",
                            dangling_fraction=0.0)}
    dataset = generate_dataset(query, 5000, specs, seed=6)
    keys = dataset.catalog.table("R1").column("k")
    counts = np.unique(keys, return_counts=True)[1]
    assert counts.mean() == pytest.approx(10.0, rel=0.15)
    # Exponential is much more skewed than the truncated normal.
    assert counts.var() > 30.0


def test_deterministic_given_seed():
    query = snowflake(2, 1)
    specs = specs_from_ranges(query, (0.2, 0.6), (1, 5), seed=9)
    a = generate_dataset(query, 1000, specs, seed=9)
    b = generate_dataset(query, 1000, specs, seed=9)
    for rel in query.relations:
        ta, tb = a.catalog.table(rel), b.catalog.table(rel)
        for col in ta.column_names:
            assert np.array_equal(ta.column(col), tb.column(col))


def test_specs_from_ranges_within_bounds():
    query = star(6)
    specs = specs_from_ranges(query, (0.1, 0.3), (2, 4), seed=11)
    assert len(specs) == 6
    for spec in specs.values():
        assert 0.1 <= spec.m <= 0.3
        assert 2.0 <= spec.fo <= 4.0


def test_relation_sizes_recorded():
    query = snowflake(2, 1)
    specs = specs_from_ranges(query, (0.3, 0.5), (2, 3), seed=13)
    dataset = generate_dataset(query, 1000, specs, seed=13)
    for rel in query.relations:
        assert dataset.relation_sizes[rel] == len(dataset.catalog.table(rel))
