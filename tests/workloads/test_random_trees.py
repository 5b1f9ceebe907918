"""Tests for the random join-tree generator (Figure 10 setup)."""


from repro.workloads.random_trees import (
    MATCH_PROBABILITY_RANGES,
    random_join_tree,
    random_stats,
)


def test_respects_node_cap():
    for seed in range(20):
        query = random_join_tree(max_nodes=12, seed=seed)
        assert 2 <= query.num_relations <= 12


def test_degree_constraints():
    for seed in range(20):
        query = random_join_tree(max_nodes=20, seed=seed)
        root_degree = len(query.children(query.root))
        assert root_degree <= 5
        for rel in query.non_root_relations:
            assert len(query.children(rel)) <= 3


def test_deterministic():
    a = random_join_tree(max_nodes=15, seed=7)
    b = random_join_tree(max_nodes=15, seed=7)
    assert a.relations == b.relations
    assert [(e.parent, e.child) for e in a.edges] == [
        (e.parent, e.child) for e in b.edges
    ]


def test_always_has_an_edge():
    query = random_join_tree(max_nodes=2, seed=0)
    assert query.num_relations >= 2


def test_random_stats_in_range():
    query = random_join_tree(max_nodes=10, seed=1)
    stats = random_stats(query, (0.2, 0.4), (3.0, 5.0), seed=2)
    for rel in query.non_root_relations:
        assert 0.2 <= stats.m(rel) <= 0.4
        assert 3.0 <= stats.fo(rel) <= 5.0


def test_random_stats_deterministic():
    query = random_join_tree(max_nodes=10, seed=1)
    a = random_stats(query, (0.1, 0.9), seed=5)
    b = random_stats(query, (0.1, 0.9), seed=5)
    for rel in query.non_root_relations:
        assert a.m(rel) == b.m(rel)
        assert a.fo(rel) == b.fo(rel)


def test_paper_ranges_constant():
    assert (0.05, 0.2) in MATCH_PROBABILITY_RANGES
    assert (0.5, 0.9) in MATCH_PROBABILITY_RANGES
    assert len(MATCH_PROBABILITY_RANGES) == 4


def test_trees_vary_across_seeds():
    shapes = {
        tuple((e.parent, e.child) for e in
              random_join_tree(max_nodes=15, seed=s).edges)
        for s in range(10)
    }
    assert len(shapes) > 1
