"""Property test: cyclic execution matches brute force on random data."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    execute_cyclic,
    parse_query,
    spanning_tree_decomposition,
)
from repro.core.cyclic import (
    ResidualPredicate,
    _filter_batch,
    decompose,
    enumerate_spanning_trees,
)
from repro.core.parser import ParsedQuery
from repro.engine.kernels import get_kernels
from repro.modes import ExecutionMode
from repro.planner import Planner
from repro.storage import Catalog
from tests.cyclic_joins import cyclic_catalog, spanning_tree_cap
from tests.partitioning import partitioned_catalog

TRIANGLE = (
    "select * from A, B, C "
    "where A.x = B.x and B.y = C.y and C.z = A.z"
)


def build_triangle_catalog(seed, max_rows=12, domain=4):
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    sizes = rng.integers(1, max_rows + 1, 3)
    catalog.add_table("A", {"x": rng.integers(0, domain, sizes[0]),
                            "z": rng.integers(0, domain, sizes[0])})
    catalog.add_table("B", {"x": rng.integers(0, domain, sizes[1]),
                            "y": rng.integers(0, domain, sizes[1])})
    catalog.add_table("C", {"y": rng.integers(0, domain, sizes[2]),
                            "z": rng.integers(0, domain, sizes[2])})
    return catalog


def brute_force(catalog):
    a, b, c = (catalog.table(n) for n in "ABC")
    out = []
    for i in range(len(a)):
        for j in range(len(b)):
            if a.column("x")[i] != b.column("x")[j]:
                continue
            for k in range(len(c)):
                if (b.column("y")[j] == c.column("y")[k]
                        and c.column("z")[k] == a.column("z")[i]):
                    out.append((i, j, k))
    return sorted(out)


@given(seed=st.integers(0, 5_000),
       mode=st.sampled_from(ExecutionMode.all_modes()),
       driver=st.sampled_from(["A", "B", "C"]))
@settings(max_examples=30, deadline=None)
def test_triangle_matches_brute_force(seed, mode, driver):
    catalog = build_triangle_catalog(seed)
    plan = spanning_tree_decomposition(parse_query(TRIANGLE), driver=driver)
    expected = brute_force(catalog)
    size, _, rows = execute_cyclic(catalog, plan, mode=mode,
                                   collect_output=True)
    assert size == len(expected)
    got = sorted(zip(rows["A"].tolist(), rows["B"].tolist(),
                     rows["C"].tolist()))
    assert got == expected


@given(seed=st.integers(0, 5_000))
@settings(max_examples=30, deadline=None)
def test_residual_filter_is_a_pure_filter(seed):
    catalog = build_triangle_catalog(seed, max_rows=10)
    rng = np.random.default_rng(seed + 1)
    n = int(rng.integers(0, 20))
    rows = {
        "A": rng.integers(0, len(catalog.table("A")), n),
        "C": rng.integers(0, len(catalog.table("C")), n),
    }
    predicate = ResidualPredicate("C", "z", "A", "z")
    kept, filtered = _filter_batch(catalog, [predicate], dict(rows),
                                   get_kernels("vectorized"))
    assert len(filtered["A"]) == len(filtered["C"]) == kept
    assert kept <= n
    # Every kept pair satisfies the predicate; every dropped one fails.
    a_vals = catalog.table("A").column("z")[rows["A"]]
    c_vals = catalog.table("C").column("z")[rows["C"]]
    assert kept == int((a_vals == c_vals).sum())
    if kept:
        fa = catalog.table("A").column("z")[filtered["A"]]
        fc = catalog.table("C").column("z")[filtered["C"]]
        assert (fa == fc).all()


# ----------------------------------------------------------------------
# Joint search invariants on random cyclic graphs
# ----------------------------------------------------------------------

#: candidate extra edges over the path R0-R1-R2-R3 (each closes a cycle)
_EXTRA_EDGES = [(0, 2), (0, 3), (1, 3)]


def random_cyclic_query(seed):
    """A 4-relation cyclic query: a path plus 1-3 extra edges."""
    rng = np.random.default_rng(seed)
    edges = [(0, 1), (1, 2), (2, 3)]
    extra = 1 + int(rng.integers(len(_EXTRA_EDGES)))
    chosen = rng.choice(len(_EXTRA_EDGES), size=extra, replace=False)
    edges.extend(_EXTRA_EDGES[i] for i in sorted(chosen))
    predicates = []
    for i, j in edges:
        attr = f"k_{i}_{j}"
        predicates.append((f"R{i}", attr, f"R{j}", attr))
    return ParsedQuery(
        relations={f"R{i}": f"R{i}" for i in range(4)},
        join_predicates=predicates,
    )


def brute_force_parsed(catalog, parsed):
    relations = list(parsed.relations)
    sizes = [range(len(catalog.table(rel))) for rel in relations]
    position = {rel: i for i, rel in enumerate(relations)}
    out = []
    for combo in itertools.product(*sizes):
        if all(
            catalog.table(rel_a).column(attr_a)[combo[position[rel_a]]]
            == catalog.table(rel_b).column(attr_b)[combo[position[rel_b]]]
            for rel_a, attr_a, rel_b, attr_b in parsed.join_predicates
        ):
            out.append(combo)
    return sorted(out)


@given(seed=st.integers(0, 2_000),
       mode=st.sampled_from(ExecutionMode.all_modes()))
@settings(max_examples=20, deadline=None)
def test_results_invariant_across_all_spanning_trees(seed, mode):
    """Every spanning tree of a cyclic query yields the same result."""
    parsed = random_cyclic_query(seed)
    catalog = cyclic_catalog(parsed, rows_per_relation=8, key_domain=3,
                             seed=seed + 1)
    expected = brute_force_parsed(catalog, parsed)
    predicates = list(parsed.join_predicates)
    relations = list(parsed.relations)
    trees = list(enumerate_spanning_trees(
        relations, predicates, [1.0] * len(predicates)
    ))
    assert trees
    for tree in trees:
        plan = decompose(parsed, [predicates[i] for i in tree])
        size, _, rows = execute_cyclic(catalog, plan, mode=mode,
                                       collect_output=True)
        got = sorted(zip(*(rows[rel].tolist() for rel in relations)))
        assert size == len(expected)
        assert got == expected


@given(seed=st.integers(0, 2_000),
       mode=st.sampled_from(ExecutionMode.all_modes()))
@settings(max_examples=20, deadline=None)
def test_cyclic_invariant_across_shard_counts(seed, mode):
    """Results *and* counters are layout-independent for a fixed tree."""
    parsed = random_cyclic_query(seed)
    catalog = cyclic_catalog(parsed, rows_per_relation=24, key_domain=5,
                             seed=seed + 1)
    plan = spanning_tree_decomposition(parsed)
    relations = list(parsed.relations)
    reference = None
    for shards in (1, 2, 8):
        layout = (
            catalog if shards == 1
            else partitioned_catalog(catalog, plan.query, shards)
        )
        size, result, rows = execute_cyclic(layout, plan, mode=mode,
                                            collect_output=True)
        snapshot = (
            size,
            sorted(zip(*(rows[rel].tolist() for rel in relations))),
            result.counters.hash_probes,
            result.counters.tuples_generated,
            result.counters.residual_checks,
            result.counters.residual_input_tuples,
        )
        if reference is None:
            reference = snapshot
        else:
            assert snapshot == reference


@given(seed=st.integers(0, 2_000))
@settings(max_examples=15, deadline=None)
def test_planner_joint_tree_never_costlier_than_greedy(seed):
    parsed = random_cyclic_query(seed)
    catalog = cyclic_catalog(parsed, rows_per_relation=16,
                             key_domain=(2, 12), seed=seed + 1)
    planner = Planner(catalog, stats_cache=True)
    joint = planner.plan(parsed, mode="auto", optimizer="auto")
    with spanning_tree_cap(1):
        greedy = planner.plan(parsed, mode="auto", optimizer="auto")
    assert joint.predicted_cost <= greedy.predicted_cost * (1 + 1e-9)
    expected = brute_force_parsed(catalog, parsed)
    relations = list(parsed.relations)
    for plan in (joint, greedy):
        result = plan.execute(collect_output=True)
        got = sorted(zip(
            *(result.output_rows[rel].tolist() for rel in relations)
        ))
        assert got == expected
