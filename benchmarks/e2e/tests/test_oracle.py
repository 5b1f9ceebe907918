"""The NumPy oracle against brute force on data small enough for it."""

import itertools

import gen
import numpy as np
import oracle
import pytest


def brute_force(tables, query):
    sizes = [len(next(iter(tables[r].values()))) for r in query.relations]
    position = {r: i for i, r in enumerate(query.relations)}
    count = 0
    for rows in itertools.product(*(range(n) for n in sizes)):
        if all(tables[a][ca][rows[position[a]]]
               == tables[b][cb][rows[position[b]]]
               for a, ca, b, cb in query.joins) and all(
                   tables[r][c][rows[position[r]]] == v
                   for r, c, v in query.selections):
            count += 1
    return count


def small_tables(seed, relations, columns, rows=6, domain=3):
    rng = np.random.default_rng(seed)
    return {r: {c: rng.integers(0, domain, rows) for c in columns}
            for r in relations}


@pytest.mark.parametrize("seed", range(5))
def test_join_size_matches_brute_force_on_a_tree(seed):
    tables = small_tables(seed, ("A", "B", "C", "D"), ("x", "y", "z"))
    query = gen.Query(
        ("A", "B", "C", "D"),
        (("A", "x", "B", "x"), ("B", "y", "C", "y"), ("A", "z", "D", "z")),
        (("C", "x", 1),),
    )
    assert oracle.join_size(tables, query) == brute_force(tables, query)


def test_join_size_rejects_a_cycle():
    tables = small_tables(0, ("A", "B", "C"), ("x",))
    cycle = gen.Query(("A", "B", "C"), (("A", "x", "B", "x"),
                                        ("B", "x", "C", "x"),
                                        ("C", "x", "A", "x")))
    with pytest.raises(ValueError):
        oracle.join_size(tables, cycle)


@pytest.mark.parametrize("seed", range(5))
def test_cyclic_join_size_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    tables, query = gen._cyclic_tables(rng, "t", 4, gen._clique(4), 6, 3, 1.0)
    assert oracle.cyclic_join_size(tables, query) == brute_force(tables, query)
    tables, query = gen._cyclic_tables(rng, "c", 4, gen._cycle(4), 6, 3, None)
    assert oracle.cyclic_join_size(tables, query) == brute_force(tables, query)


def test_both_oracles_agree_on_an_acyclic_workload_query():
    workload = gen.generate("distributed_scatter", 2, 1.0, scale=0.05)
    for query in workload.pool:
        assert oracle.join_size(workload.tables, query) \
            == oracle.cyclic_join_size(workload.tables, query)


def test_apply_write_updates_in_place_and_appends():
    tables = {"T": {"a": np.arange(5), "b": np.arange(5) * 10}}
    oracle.apply_write(tables, ("update", "T", "a", np.array([0, 4]),
                                np.array([9, 8])))
    assert tables["T"]["a"].tolist() == [9, 1, 2, 3, 8]
    oracle.apply_write(tables, ("append", "T", {"a": np.array([7]),
                                                "b": np.array([70])}))
    assert tables["T"]["a"].tolist() == [9, 1, 2, 3, 8, 7]
    assert tables["T"]["b"].tolist() == [0, 10, 20, 30, 40, 70]


def test_rows_checksum_ignores_tuple_order_only():
    rows = {"A": np.array([0, 1, 2, 2]), "B": np.array([5, 6, 7, 8])}
    shuffled = {"A": np.array([2, 0, 2, 1]), "B": np.array([8, 5, 7, 6])}
    swapped = {"A": np.array([0, 1, 2, 2]), "B": np.array([6, 5, 7, 8])}
    assert oracle.rows_checksum(rows) == oracle.rows_checksum(shuffled)
    assert oracle.rows_checksum(rows) != oracle.rows_checksum(swapped)
    assert oracle.rows_checksum({}) == 0
