"""Property test: the interpreted kernels are a bit-exact oracle.

For random acyclic trees and random cyclic (triangle) queries — over
plain and hash-partitioned catalogs, across every execution strategy —
the ``execution="interpreted"`` path must produce the same flat
results, the same factorized expansions, and *bit-identical*
:class:`~repro.engine.executor.ExecutionCounters` as the vectorized
path.  Counter equality is the load-bearing property: the cost model is
calibrated on those counters, so the two data planes must count the
same probes, not merely reach the same answers.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import execute_cyclic, parse_query, spanning_tree_decomposition
from repro.engine import execute
from repro.modes import ExecutionMode
from repro.storage import Catalog
from repro.workloads.random_trees import random_join_tree

from tests.helpers import result_tuples
from tests.partitioning import partitioned_catalog

from .test_prop_cyclic import TRIANGLE, build_triangle_catalog
from .test_prop_engine import build_random_catalog

SHARD_COUNTS = (1, 2, 8)

COUNTER_FIELDS = [f.name for f in dataclasses.fields(
    __import__("repro.engine.executor", fromlist=["ExecutionCounters"])
    .ExecutionCounters
)]


def assert_counters_identical(vect, interp, context=None):
    """Every ExecutionCounters field, bit for bit."""
    for name in COUNTER_FIELDS:
        assert getattr(vect, name) == getattr(interp, name), (name, context)


def assert_rows_identical(vect_rows, interp_rows, context=None):
    assert set(vect_rows) == set(interp_rows), context
    for rel in vect_rows:
        assert np.array_equal(vect_rows[rel], interp_rows[rel]), \
            (rel, context)


@given(
    tree_seed=st.integers(0, 5_000),
    data_seed=st.integers(0, 5_000),
    order_seed=st.integers(0, 5_000),
)
@settings(max_examples=15, deadline=None)
def test_interpreted_matches_vectorized_all_modes(
    tree_seed, data_seed, order_seed
):
    query = random_join_tree(max_nodes=5, seed=tree_seed)
    catalog = build_random_catalog(query, data_seed)
    order = query.random_order(np.random.default_rng(order_seed))
    for mode in ExecutionMode.all_modes():
        vect = execute(catalog, query, order, mode,
                       flat_output=True, collect_output=True,
                       execution="vectorized")
        interp = execute(catalog, query, order, mode,
                         flat_output=True, collect_output=True,
                         execution="interpreted")
        context = (mode, order)
        assert vect.execution == "vectorized"
        assert interp.execution == "interpreted"
        assert interp.output_size == vect.output_size, context
        # identical row arrays, not merely identical tuple sets: the
        # two paths must expand matches in the same order
        assert_rows_identical(vect.output_rows, interp.output_rows, context)
        assert result_tuples(interp, query) == result_tuples(vect, query)
        assert_counters_identical(vect.counters, interp.counters, context)


@given(
    tree_seed=st.integers(0, 5_000),
    data_seed=st.integers(0, 5_000),
)
@settings(max_examples=8, deadline=None)
def test_interpreted_matches_vectorized_across_shard_counts(
    tree_seed, data_seed
):
    query = random_join_tree(max_nodes=4, seed=tree_seed)
    catalog = build_random_catalog(query, data_seed)
    for num_shards in SHARD_COUNTS:
        sharded = partitioned_catalog(catalog, query, num_shards)
        for mode in (ExecutionMode.COM, ExecutionMode.STD,
                     ExecutionMode.SJ_COM):
            vect = execute(sharded, query, mode=mode,
                           flat_output=True, collect_output=True,
                           execution="vectorized")
            interp = execute(sharded, query, mode=mode,
                             flat_output=True, collect_output=True,
                             execution="interpreted")
            context = (mode, num_shards)
            assert interp.output_size == vect.output_size, context
            assert_rows_identical(vect.output_rows, interp.output_rows,
                                  context)
            assert_counters_identical(vect.counters, interp.counters,
                                      context)


@given(
    tree_seed=st.integers(0, 5_000),
    data_seed=st.integers(0, 5_000),
)
@settings(max_examples=10, deadline=None)
def test_interpreted_factorized_expansion_is_identical(tree_seed, data_seed):
    """expand() batches — contents *and* batch boundaries — must agree."""
    query = random_join_tree(max_nodes=5, seed=tree_seed)
    catalog = build_random_catalog(query, data_seed)
    vect = execute(catalog, query, mode=ExecutionMode.COM,
                   flat_output=False, execution="vectorized")
    interp = execute(catalog, query, mode=ExecutionMode.COM,
                     flat_output=False, execution="interpreted")
    assert interp.output_size == vect.output_size
    from repro.engine.kernels import INTERPRETED, VECTORIZED

    vect_batches = list(vect.factorized.expand(batch_entries=3,
                                               kernels=VECTORIZED))
    interp_batches = list(interp.factorized.expand(batch_entries=3,
                                                   kernels=INTERPRETED))
    assert len(vect_batches) == len(interp_batches)
    for vb, ib in zip(vect_batches, interp_batches):
        assert_rows_identical(vb, ib)


@given(seed=st.integers(0, 5_000),
       mode=st.sampled_from(ExecutionMode.all_modes()))
@settings(max_examples=15, deadline=None)
def test_interpreted_matches_vectorized_cyclic(seed, mode):
    catalog = build_triangle_catalog(seed)
    plan = spanning_tree_decomposition(parse_query(TRIANGLE))
    size_v, vect, rows_v = execute_cyclic(
        catalog, plan, mode=mode, collect_output=True,
        execution="vectorized",
    )
    size_i, interp, rows_i = execute_cyclic(
        catalog, plan, mode=mode, collect_output=True,
        execution="interpreted",
    )
    assert size_i == size_v, mode
    assert_rows_identical(rows_v, rows_i, mode)
    assert_counters_identical(vect.counters, interp.counters, mode)
    assert vect.counters.residual_checks == interp.counters.residual_checks


def _edge_case_catalog(query, data_seed):
    """Random catalog with float/NaN, bool and huge-int key columns."""
    rng = np.random.default_rng(data_seed)
    catalog = Catalog()
    casts = [
        lambda v, rng=rng: v.astype(np.int64),
        # floats with NaN holes
        lambda v, rng=rng: np.where(
            rng.random(len(v)) < 0.2, np.nan, v.astype(np.float64)
        ),
        lambda v, rng=rng: (v % 2).astype(bool),
        # magnitudes around 2**53, where float64 upcasts go lossy
        lambda v, rng=rng: v.astype(np.int64) + 2 ** 53,
    ]
    for relation in query.preorder():
        rows = int(rng.integers(1, 13))
        columns = {"payload": np.arange(rows, dtype=np.int64)}
        attrs = set()
        if relation != query.root:
            attrs.add(query.edge_to(relation).child_attr)
        for child in query.children(relation):
            attrs.add(query.edge_to(child).parent_attr)
        for attr in sorted(attrs):
            raw = rng.integers(0, 5, rows)
            columns[attr] = casts[int(rng.integers(0, len(casts)))](raw)
        catalog.add_table(relation, columns)
    return catalog


@given(
    tree_seed=st.integers(0, 5_000),
    data_seed=st.integers(0, 5_000),
)
@settings(max_examples=15, deadline=None)
def test_interpreted_matches_vectorized_on_edge_case_dtypes(
    tree_seed, data_seed
):
    """NaN keys, bools and >=2**53 ints: exact-key semantics on both paths.

    Each attribute independently draws its dtype, so parent/child pairs
    mix int64 against float64/bool/huge-int columns — the upcast
    collisions the kernel layer's comparison-dtype rule exists for.
    """
    query = random_join_tree(max_nodes=4, seed=tree_seed)
    catalog = _edge_case_catalog(query, data_seed)
    for mode in (ExecutionMode.COM, ExecutionMode.STD, ExecutionMode.SJ_COM):
        vect = execute(catalog, query, mode=mode,
                       flat_output=True, collect_output=True,
                       execution="vectorized")
        interp = execute(catalog, query, mode=mode,
                         flat_output=True, collect_output=True,
                         execution="interpreted")
        assert interp.output_size == vect.output_size, mode
        assert_rows_identical(vect.output_rows, interp.output_rows, mode)
        assert_counters_identical(vect.counters, interp.counters, mode)
