"""The large-join workload generators (chain / star / random tree)."""

import pytest

from tests.large_joins import (
    LARGE_SHAPES,
    chain_query,
    large_query_stats,
    random_tree_query,
    scaling_suite,
    star_query,
)


def test_chain_shape():
    query = chain_query(16)
    assert query.num_relations == 16
    assert query.root == "R0"
    # every node has at most one child: a path
    assert all(len(query.children(rel)) <= 1 for rel in query.relations)
    assert query.depth("R15") == 15


def test_star_shape():
    query = star_query(32)
    assert query.num_relations == 32
    assert len(query.children("R0")) == 31
    assert all(query.is_leaf(rel) for rel in query.non_root_relations)


@pytest.mark.parametrize("n", [2, 7, 33, 64])
def test_random_tree_is_a_valid_tree_of_requested_size(n):
    query = random_tree_query(n, seed=n)
    assert query.num_relations == n  # JoinQuery validates the tree shape


def test_random_tree_respects_max_children_and_is_seeded():
    query = random_tree_query(40, seed=9, max_children=2)
    assert all(len(query.children(rel)) <= 2 for rel in query.relations)
    again = random_tree_query(40, seed=9, max_children=2)
    assert [e for e in again.edges] == [e for e in query.edges]
    different = random_tree_query(40, seed=10, max_children=2)
    assert [e for e in different.edges] != [e for e in query.edges]


def test_degenerate_sizes_rejected():
    for build in (chain_query, star_query):
        with pytest.raises(ValueError):
            build(1)
    with pytest.raises(ValueError):
        random_tree_query(1)
    with pytest.raises(ValueError):
        random_tree_query(4, max_children=0)


def test_large_query_stats_ranges_and_determinism():
    query = star_query(20)
    stats = large_query_stats(
        query, m_range=(0.2, 0.4), fo_range=(1.0, 2.0), driver_size=500,
        seed=3,
    )
    assert stats.driver_size == 500.0
    for relation in query.non_root_relations:
        assert 0.2 <= stats.m(relation) <= 0.4
        assert 1.0 <= stats.fo(relation) <= 2.0
    same = large_query_stats(
        query, m_range=(0.2, 0.4), fo_range=(1.0, 2.0), driver_size=500,
        seed=3,
    )
    assert same.edge_stats == stats.edge_stats


def test_scaling_suite_covers_every_shape_and_size():
    cases = scaling_suite([8, 16], seed=1)
    assert len(cases) == len(LARGE_SHAPES) * 2
    seen = set()
    for shape, n, query, stats in cases:
        assert shape in LARGE_SHAPES
        assert query.num_relations == n
        assert set(stats.edge_stats) == set(query.non_root_relations)
        seen.add((shape, n))
    assert len(seen) == len(cases)  # no duplicated (shape, size) draws


def test_large_join_catalog_backs_every_relation():
    from tests.large_joins import large_join_catalog

    query = random_tree_query(10, seed=4)
    catalog = large_join_catalog(query, rows_per_relation=64, seed=4)
    assert set(catalog.table_names) == set(query.relations)
    for edge in query.edges:
        parent = catalog.table(edge.parent)
        child = catalog.table(edge.child)
        assert edge.parent_attr in parent.column_names
        assert edge.child_attr in child.column_names
        assert len(parent) == 64 and len(child) == 64
    # deterministic: same seed, same content
    again = large_join_catalog(query, rows_per_relation=64, seed=4)
    assert again.fingerprint() == catalog.fingerprint()


def test_large_join_catalog_is_plannable_end_to_end():
    from repro.planner import Planner
    from tests.large_joins import large_join_catalog

    query = chain_query(6)
    catalog = large_join_catalog(query, rows_per_relation=64, seed=5)
    plan = Planner(catalog).plan(query, mode="COM")
    result = plan.execute(collect_output=True)
    assert result.output_size >= 0
