"""Tests for cyclic-query handling via spanning trees."""

import numpy as np
import pytest

from repro.core import (
    execute_cyclic,
    parse_query,
    spanning_tree_decomposition,
)
from repro.core.cyclic import (
    decompose,
    enumerate_spanning_trees,
    exact_equal,
    residual_filter_cost,
    tree_query_from_residuals,
)
from repro.core.costmodel import CostWeights
from repro.modes import ExecutionMode
from repro.storage import Catalog
from repro.storage.partition import PartitionedTable

TRIANGLE = (
    "select * from A, B, C "
    "where A.x = B.x and B.y = C.y and C.z = A.z"
)


@pytest.fixture
def triangle_catalog():
    rng = np.random.default_rng(5)
    catalog = Catalog()
    catalog.add_table("A", {"x": rng.integers(0, 6, 30),
                            "z": rng.integers(0, 6, 30)})
    catalog.add_table("B", {"x": rng.integers(0, 6, 25),
                            "y": rng.integers(0, 6, 25)})
    catalog.add_table("C", {"y": rng.integers(0, 6, 20),
                            "z": rng.integers(0, 6, 20)})
    return catalog


def brute_force_triangle(catalog):
    a = catalog.table("A")
    b = catalog.table("B")
    c = catalog.table("C")
    results = []
    for i in range(len(a)):
        for j in range(len(b)):
            if a.column("x")[i] != b.column("x")[j]:
                continue
            for k in range(len(c)):
                if (b.column("y")[j] == c.column("y")[k]
                        and c.column("z")[k] == a.column("z")[i]):
                    results.append((i, j, k))
    return sorted(results)


def test_decomposition_extracts_one_residual():
    parsed = parse_query(TRIANGLE)
    plan = spanning_tree_decomposition(parsed, driver="A")
    assert plan.is_cyclic
    assert len(plan.residuals) == 1
    assert plan.query.num_relations == 3
    assert plan.query.root == "A"


def test_acyclic_input_has_no_residuals():
    parsed = parse_query("select * from A, B where A.x = B.x")
    plan = spanning_tree_decomposition(parsed)
    assert not plan.is_cyclic
    assert plan.query.num_relations == 2


def test_stats_hint_keeps_selective_edges():
    parsed = parse_query(TRIANGLE)
    # Make the A-B edge the least selective: it should become residual.
    hint = {
        ("A", "x", "B", "x"): 10.0,
        ("B", "y", "C", "y"): 0.1,
        ("C", "z", "A", "z"): 0.2,
    }
    plan = spanning_tree_decomposition(parsed, driver="A", stats_hint=hint)
    residual = plan.residuals[0]
    assert {residual.relation_a, residual.relation_b} == {"A", "B"}


@pytest.mark.parametrize("mode", ExecutionMode.all_modes())
def test_cyclic_execution_matches_brute_force(triangle_catalog, mode):
    parsed = parse_query(TRIANGLE)
    plan = spanning_tree_decomposition(parsed, driver="A")
    expected = brute_force_triangle(triangle_catalog)
    size, result, rows = execute_cyclic(
        triangle_catalog, plan, mode=mode, collect_output=True
    )
    assert size == len(expected)
    got = sorted(zip(rows["A"].tolist(), rows["B"].tolist(),
                     rows["C"].tolist()))
    assert got == expected


def test_cyclic_execution_counts_without_collection(triangle_catalog):
    parsed = parse_query(TRIANGLE)
    plan = spanning_tree_decomposition(parsed, driver="A")
    expected = brute_force_triangle(triangle_catalog)
    size, result, rows = execute_cyclic(
        triangle_catalog, plan, mode=ExecutionMode.COM, collect_output=False
    )
    assert size == len(expected)
    assert rows is None


def test_acyclic_through_execute_cyclic(triangle_catalog):
    parsed = parse_query("select * from A, B where A.x = B.x")
    plan = spanning_tree_decomposition(parsed, driver="A")
    size, result, rows = execute_cyclic(
        triangle_catalog, plan, mode=ExecutionMode.STD, collect_output=True
    )
    a = triangle_catalog.table("A").column("x")
    b = triangle_catalog.table("B").column("x")
    expected = sum(int((b == value).sum()) for value in a.tolist())
    assert size == expected


def test_disconnected_rejected():
    parsed = parse_query("select * from A, B, C where A.x = B.x")
    with pytest.raises(ValueError, match="disconnected"):
        spanning_tree_decomposition(parsed)


def test_larger_cycle_two_residuals():
    parsed = parse_query(
        "select * from A, B, C, D "
        "where A.x = B.x and B.y = C.y and C.z = D.z and D.w = A.w "
        "and B.v = D.v"
    )
    plan = spanning_tree_decomposition(parsed, driver="A")
    assert len(plan.residuals) == 2
    assert plan.query.num_relations == 4


# ----------------------------------------------------------------------
# Spanning-tree enumeration
# ----------------------------------------------------------------------


def _enumerate(parsed, weights=None, **kwargs):
    predicates = list(parsed.join_predicates)
    if weights is None:
        weights = [1.0] * len(predicates)
    return list(enumerate_spanning_trees(
        list(parsed.relations), predicates, weights, **kwargs
    ))


def test_triangle_has_three_spanning_trees():
    parsed = parse_query(TRIANGLE)
    trees = _enumerate(parsed)
    assert len(trees) == 3
    assert len(set(trees)) == 3
    assert all(len(tree) == 2 for tree in trees)


def test_k4_has_sixteen_spanning_trees():
    # Cayley: n^(n-2) spanning trees of the complete graph.
    parsed = parse_query(
        "select * from A, B, C, D "
        "where A.x = B.x and A.y = C.y and A.z = D.z "
        "and B.u = C.u and B.v = D.v and C.w = D.w"
    )
    trees = _enumerate(parsed)
    assert len(trees) == 16
    assert len(set(trees)) == 16


def test_enumeration_starts_at_kruskal_minimum_and_ascends():
    parsed = parse_query(TRIANGLE)
    weights = [0.1, 5.0, 1.0]  # A-B cheap, B-C expensive, C-A middle
    trees = _enumerate(parsed, weights)
    totals = [sum(weights[i] for i in tree) for tree in trees]
    assert totals == sorted(totals)
    assert set(trees[0]) == {0, 2}  # the two cheapest edges


def test_enumeration_max_trees_cap():
    parsed = parse_query(TRIANGLE)
    assert len(_enumerate(parsed, max_trees=1)) == 1


def test_enumeration_handles_parallel_predicates():
    # Two predicates between one relation pair: 2 relations, 2 trees.
    parsed = parse_query("select * from A, B where A.x = B.x and A.y = B.y")
    assert not parsed.is_acyclic()
    trees = _enumerate(parsed)
    assert sorted(trees) == [(0,), (1,)]


def test_decompose_and_residual_round_trip():
    parsed = parse_query(TRIANGLE)
    predicates = list(parsed.join_predicates)
    plan = decompose(parsed, predicates[:2], driver="B")
    assert plan.query.root == "B"
    assert [r.key for r in plan.residuals] == [predicates[2]]
    rebuilt = tree_query_from_residuals(parsed, plan.residuals, "B")
    assert {(e.parent, e.child) for e in rebuilt.edges} == \
        {(e.parent, e.child) for e in plan.query.edges}


def test_tree_signature_is_stable():
    parsed = parse_query(TRIANGLE)
    predicates = list(parsed.join_predicates)
    first = decompose(parsed, predicates[:2], driver="A")
    second = decompose(parsed, predicates[:2], driver="A")
    other = decompose(parsed, predicates[1:], driver="A")
    assert first.tree_signature() == second.tree_signature()
    assert first.tree_signature() != other.tree_signature()


# ----------------------------------------------------------------------
# Exact residual comparison (PR 3 float-key semantics)
# ----------------------------------------------------------------------


def test_exact_equal_plain_integers():
    got = exact_equal(np.array([1, 2, 3]), np.array([1, 5, 3]))
    assert got.tolist() == [True, False, True]


def test_exact_equal_integral_floats_match_ints():
    got = exact_equal(np.array([1, 2, 3]), np.array([1.0, 2.5, 3.0]))
    assert got.tolist() == [True, False, True]


def test_exact_equal_huge_int_float_collision():
    # 2**53 and 2**53 + 1 collide after a float64 upcast; the exact
    # comparison keeps them apart (same semantics as sharded probes).
    huge = 2 ** 53
    ints = np.array([huge + 1, huge], dtype=np.int64)
    floats = np.array([float(huge), float(huge)])
    naive = ints == floats
    assert naive.tolist() == [True, True]  # the bug being fixed
    assert exact_equal(ints, floats).tolist() == [False, True]


def test_exact_equal_nan_and_inf_match_nothing():
    ints = np.array([0, 1, 2], dtype=np.int64)
    floats = np.array([np.nan, np.inf, -np.inf])
    assert not exact_equal(ints, floats).any()
    # NaN != NaN in float-float comparisons too (join semantics)
    nans = np.array([np.nan, 1.0])
    assert exact_equal(nans, nans).tolist() == [False, True]


def test_exact_equal_out_of_range_floats():
    ints = np.array([2 ** 63 - 1, -(2 ** 63)], dtype=np.int64)
    floats = np.array([float(2 ** 63), float(-(2 ** 63))])
    got = exact_equal(ints, floats)
    assert got.tolist() == [False, True]  # -2**63 is exactly representable


def test_exact_equal_bool_routes_as_int():
    got = exact_equal(np.array([True, False]), np.array([1, 1]))
    assert got.tolist() == [True, False]


# ----------------------------------------------------------------------
# Residual-cost model and execution counters
# ----------------------------------------------------------------------


def test_residual_filter_cost_is_progressive():
    weights = CostWeights()
    cost = residual_filter_cost(1000.0, (0.1, 0.5), weights)
    # filter 1 sees 1000 tuples, filter 2 only the 100 survivors
    assert cost == pytest.approx((1000 + 100) * weights.semijoin_probe)
    assert residual_filter_cost(1000.0, (), weights) == 0.0


@pytest.mark.parametrize("collect_output", [False, True])
def test_residual_counters_match_across_pipelines(triangle_catalog,
                                                  collect_output):
    """Both pipelines count every residual comparison; the factorized
    path pushes root-to-leaf residuals into the entries before
    expansion, so its residual *input* (tuples still needing expanded
    filtering) can only shrink relative to the flat pipeline."""
    parsed = parse_query(TRIANGLE)
    plan = spanning_tree_decomposition(parsed, driver="A")
    size_com, com, _ = execute_cyclic(
        triangle_catalog, plan, mode=ExecutionMode.COM,
        collect_output=collect_output,
    )
    size_std, std, _ = execute_cyclic(
        triangle_catalog, plan, mode=ExecutionMode.STD,
        collect_output=collect_output,
    )
    assert size_com == size_std
    assert std.counters.residual_input_tuples > 0
    assert 0 < com.counters.residual_input_tuples <= \
        std.counters.residual_input_tuples
    assert com.counters.residual_checks > 0
    assert std.counters.residual_checks > 0
    # the pushdown also shrinks the factorized path's expansion peak
    assert com.counters.peak_intermediate_tuples <= \
        std.counters.peak_intermediate_tuples


@pytest.mark.parametrize("execution", ["vectorized", "interpreted"])
def test_pushed_down_residual_checks_are_pinned(execution):
    """Three residuals push down on the tree A -u- B -y- C: A.x = B.x
    onto B, then C.z = A.z and C.w = A.w onto C.  Each counts the
    entries of its node the residuals before it kept — the second C
    residual only C's survivors of the first — and the deaths are
    walked only after all three ran, so no count sees another node's
    deaths.  Pinned so the count cannot drift."""
    rng = np.random.default_rng(7)
    catalog = Catalog()
    catalog.add_table("A", {"x": rng.integers(0, 4, 40),
                            "u": rng.integers(0, 3, 40),
                            "z": rng.integers(0, 3, 40),
                            "w": rng.integers(0, 3, 40)})
    catalog.add_table("B", {"x": rng.integers(0, 4, 30),
                            "u": rng.integers(0, 3, 30),
                            "y": rng.integers(0, 4, 30)})
    catalog.add_table("C", {"y": rng.integers(0, 4, 25),
                            "z": rng.integers(0, 3, 25),
                            "w": rng.integers(0, 3, 25)})
    plan = spanning_tree_decomposition(parse_query(
        "select * from A, B, C where A.x = B.x and B.y = C.y "
        "and C.z = A.z and C.w = A.w and A.u = B.u"), driver="A")
    assert [(e.parent, e.child) for e in plan.query.edges] == \
        [("A", "B"), ("B", "C")]
    assert [r.key for r in plan.residuals] == [
        ("A", "x", "B", "x"), ("C", "z", "A", "z"), ("C", "w", "A", "w")]
    size, result, rows = execute_cyclic(
        catalog, plan, mode=ExecutionMode.COM, collect_output=True,
        execution=execution,
    )
    assert result.counters.residual_checks == 3519
    assert result.counters.residual_input_tuples == 55
    a, b, c = (catalog.table(rel) for rel in "ABC")
    expected = sorted(
        (i, j, k)
        for i in range(len(a)) for j in range(len(b))
        if a.column("x")[i] == b.column("x")[j]
        and a.column("u")[i] == b.column("u")[j]
        for k in range(len(c))
        if b.column("y")[j] == c.column("y")[k]
        and c.column("z")[k] == a.column("z")[i]
        and c.column("w")[k] == a.column("w")[i]
    )
    got = list(zip(*(rows[rel].tolist() for rel in "ABC")))
    assert size == 55
    assert sorted(got) == expected
    assert got[:4] == [(6, 2, 4), (6, 2, 11), (6, 3, 4), (6, 3, 11)]


def test_counting_matches_collecting(triangle_catalog):
    parsed = parse_query(TRIANGLE)
    plan = spanning_tree_decomposition(parsed, driver="A")
    for mode in (ExecutionMode.COM, ExecutionMode.STD):
        counted, counted_result, rows = execute_cyclic(
            triangle_catalog, plan, mode=mode, collect_output=False,
        )
        collected, collected_result, collected_rows = execute_cyclic(
            triangle_catalog, plan, mode=mode, collect_output=True,
        )
        assert rows is None and counted_result.output_rows is None
        assert counted == collected == len(collected_rows["A"])
        assert counted_result.counters.residual_checks == \
            collected_result.counters.residual_checks


def test_execute_cyclic_on_partitioned_catalog(triangle_catalog):
    """The unpartitioned-catalog restriction is lifted: residual values
    are fetched in base-row-id space, so results are bit-identical."""
    parsed = parse_query(TRIANGLE)
    plan = spanning_tree_decomposition(parsed, driver="A")
    expected = brute_force_triangle(triangle_catalog)
    partitioned = triangle_catalog.derived_with({
        "B": PartitionedTable.from_table(
            triangle_catalog.table("B"), "x", 2),
        "C": PartitionedTable.from_table(
            triangle_catalog.table("C"), "z", 2),
    })
    for mode in ExecutionMode.all_modes():
        size, result, rows = execute_cyclic(
            partitioned, plan, mode=mode, collect_output=True
        )
        assert size == len(expected)
        got = sorted(zip(rows["A"].tolist(), rows["B"].tolist(),
                         rows["C"].tolist()))
        assert got == expected
    assert result.shards_used == 2
