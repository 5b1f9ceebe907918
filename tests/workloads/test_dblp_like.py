"""Tests for the DBLP-like estimation dataset (Figure 4 substrate)."""

import numpy as np

from repro.estimation import true_join_stats
from repro.workloads.dblp_like import build_estimation_dataset


def test_schema_and_columns():
    dataset = build_estimation_dataset(scale=0.3, seed=0)
    for name in ("writes", "cites", "published_in", "coauthor",
                 "venue_series", "author_topics", "awards"):
        table = dataset.catalog.table(name)
        assert "cat" in table.column_names
        assert "year" in table.column_names


def test_join_compatibility_metadata():
    dataset = build_estimation_dataset(scale=0.3, seed=0)
    assert dataset.join_columns[("writes", "author")] == "author"
    assert dataset.join_columns[("cites", "src")] == "paper"


def test_tasks_join_compatible_columns():
    dataset = build_estimation_dataset(scale=0.3, seed=1)
    tasks = dataset.random_tasks(20, seed=2)
    assert len(tasks) == 20
    for task in tasks:
        dom_a = dataset.join_columns[(task.probe_relation, task.probe_attr)]
        dom_b = dataset.join_columns[(task.build_relation, task.build_attr)]
        assert dom_a == dom_b
        assert task.probe_relation != task.build_relation


def test_predicates_optional():
    dataset = build_estimation_dataset(scale=0.3, seed=1)
    tasks = dataset.random_tasks(5, seed=3, with_predicates=False)
    for task in tasks:
        assert task.probe_predicate == {}
        assert task.build_predicate == {}


def test_predicate_correlation_exists():
    """The 'cat' column must correlate with the join key: the same key
    should mostly map to the same category (up to noise)."""
    dataset = build_estimation_dataset(scale=0.5, seed=4)
    table = dataset.catalog.table("writes")
    keys = table.column("author")
    cats = table.column("cat")
    agreement = []
    for key in np.unique(keys)[:200]:
        values = cats[keys == key]
        if len(values) >= 3:
            mode_share = np.bincount(values).max() / len(values)
            agreement.append(mode_share)
    assert np.mean(agreement) > 0.5


def test_low_match_probability_tasks_exist():
    dataset = build_estimation_dataset(scale=1.0, seed=5)
    tasks = dataset.random_tasks(60, seed=6)
    low = 0
    for task in tasks:
        probe = dataset.catalog.table(task.probe_relation)
        build = dataset.catalog.table(task.build_relation)
        truth = true_join_stats(probe, build, task.probe_attr,
                                task.build_attr, task.probe_predicate,
                                task.build_predicate)
        if truth.m < 0.05:
            low += 1
    assert low > 0


def test_deterministic():
    a = build_estimation_dataset(scale=0.3, seed=7)
    b = build_estimation_dataset(scale=0.3, seed=7)
    for rel in a.catalog.table_names:
        ta, tb = a.catalog.table(rel), b.catalog.table(rel)
        for col in ta.column_names:
            assert np.array_equal(ta.column(col), tb.column(col))
