"""Property test: partitioned execution is indistinguishable from
monolithic execution.

For random acyclic queries over random data, executing against a
hash-partitioned catalog (``num_shards`` in {1, 2, 8}) must produce the
same result set *and* the same reported probe counts as the
unpartitioned executor — partitioning is a physical layout, never a
semantic or cost-metric change.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import execute
from repro.modes import ExecutionMode
from repro.workloads.random_trees import random_join_tree

from tests.helpers import result_tuples
from tests.partitioning import partitioned_catalog

from .test_prop_engine import build_random_catalog

SHARD_COUNTS = (1, 2, 8)
MODES = (ExecutionMode.COM, ExecutionMode.STD, ExecutionMode.SJ_COM,
         ExecutionMode.BVP_COM)


@given(
    tree_seed=st.integers(0, 5_000),
    data_seed=st.integers(0, 5_000),
    order_seed=st.integers(0, 5_000),
)
@settings(max_examples=20, deadline=None)
def test_sharded_results_and_probes_match_unpartitioned(
    tree_seed, data_seed, order_seed
):
    query = random_join_tree(max_nodes=5, seed=tree_seed)
    catalog = build_random_catalog(query, data_seed)
    order = query.random_order(np.random.default_rng(order_seed))
    for mode in MODES:
        baseline = execute(catalog, query, order, mode,
                           flat_output=True, collect_output=True)
        expected = result_tuples(baseline, query)
        for num_shards in SHARD_COUNTS:
            sharded_catalog = partitioned_catalog(catalog, query, num_shards)
            result = execute(sharded_catalog, query, order, mode,
                             flat_output=True, collect_output=True)
            context = (mode, num_shards, order)
            assert result_tuples(result, query) == expected, context
            assert result.output_size == baseline.output_size, context
            # the paper's abstract cost metrics are layout-independent
            base = baseline.counters
            got = result.counters
            assert got.hash_probes == base.hash_probes, context
            assert got.hash_probes_by_relation == \
                base.hash_probes_by_relation, context
            assert got.bitvector_probes == base.bitvector_probes, context
            assert got.semijoin_probes == base.semijoin_probes, context
            assert got.tuples_generated == base.tuples_generated, context


@given(
    tree_seed=st.integers(0, 5_000),
    data_seed=st.integers(0, 5_000),
)
@settings(max_examples=10, deadline=None)
def test_sharded_execution_reports_its_fanout(tree_seed, data_seed):
    query = random_join_tree(max_nodes=5, seed=tree_seed)
    catalog = build_random_catalog(query, data_seed)
    sharded_catalog = partitioned_catalog(catalog, query, 2)
    result = execute(sharded_catalog, query, mode=ExecutionMode.COM,
                     flat_output=False)
    assert result.shards_used == 2
    assert result.index_build_seconds >= 0.0
    unpartitioned = execute(catalog, query, mode=ExecutionMode.COM,
                            flat_output=False)
    assert unpartitioned.shards_used == 1
