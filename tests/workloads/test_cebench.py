"""Tests for the simulated CE-benchmark datasets."""

import numpy as np
import pytest

from repro.workloads import build_dataset
from repro.workloads.cebench import DATASET_FLAVORS


def test_all_five_flavors_present():
    assert set(DATASET_FLAVORS) == {
        "epinions", "imdb", "watdiv", "dblp", "yago"
    }


def test_unknown_flavor_rejected():
    with pytest.raises(KeyError, match="unknown dataset"):
        build_dataset("nope")


@pytest.mark.parametrize("name", sorted(DATASET_FLAVORS))
def test_build_small_scale(name):
    dataset = build_dataset(name, scale=0.1, seed=0)
    flavor = DATASET_FLAVORS[name]
    assert dataset.catalog.table_names == [
        rel_name for rel_name, _, _ in flavor.relations
    ]
    for rel_name, rows, columns in flavor.relations:
        table = dataset.catalog.table(rel_name)
        assert len(table) == max(2, int(round(rows * 0.1)))
        for column, _ in columns:
            assert column in table.column_names


def test_zipf_skew_present():
    dataset = build_dataset("yago", scale=0.3, seed=1)
    keys = dataset.catalog.table("linked_to").column("src")
    counts = np.unique(keys, return_counts=True)[1]
    # Heavy skew: the hottest key is much hotter than the median.
    assert counts.max() > 5 * np.median(counts)


def test_random_query_structure():
    dataset = build_dataset("epinions", scale=0.2, seed=2)
    query = dataset.random_query(num_relations=4, seed=3)
    assert query.num_relations == 4
    # Every edge joins columns over the same entity domain.
    for edge in query.edges:
        dom_parent = dataset.column_domains[(edge.parent, edge.parent_attr)]
        dom_child = dataset.column_domains[(edge.child, edge.child_attr)]
        assert dom_parent == dom_child


def test_random_query_output_cap():
    from repro.core import stats_from_data

    dataset = build_dataset("dblp", scale=0.2, seed=4)
    query = dataset.random_query(num_relations=4, seed=5,
                                 max_expected_output=50_000.0)
    stats = stats_from_data(dataset.catalog, query)
    expected = stats.driver_size
    for rel in query.non_root_relations:
        expected *= stats.selectivity(rel)
    assert expected <= 50_000.0


def test_random_queries_batch():
    dataset = build_dataset("watdiv", scale=0.2, seed=6)
    queries = dataset.random_queries(5, size_range=(3, 4), seed=7,
                                     max_expected_output=100_000.0)
    assert len(queries) == 5
    for query in queries:
        assert 3 <= query.num_relations <= 4


def test_deterministic_generation():
    a = build_dataset("imdb", scale=0.15, seed=9)
    b = build_dataset("imdb", scale=0.15, seed=9)
    for rel in a.catalog.table_names:
        ta, tb = a.catalog.table(rel), b.catalog.table(rel)
        for col in ta.column_names:
            assert np.array_equal(ta.column(col), tb.column(col))
