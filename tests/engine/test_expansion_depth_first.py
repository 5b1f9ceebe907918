"""Depth-first expansion must agree with the breadth-first fast path."""

import numpy as np

from repro.core import JoinEdge, JoinQuery
from repro.engine import FactorizedResult, execute
from repro.modes import ExecutionMode

from tests.helpers import (
    attach_node,
    make_running_example_query,
    make_small_catalog,
)


def test_depth_first_matches_breadth_first_small():
    query = JoinQuery("A", [
        JoinEdge("A", "B", "k", "k"),
        JoinEdge("B", "C", "j", "j"),
        JoinEdge("A", "D", "h", "h"),
    ])
    result = FactorizedResult(query, np.asarray([0, 1]))
    attach_node(result, "B", np.asarray([10, 11, 12]), np.asarray([0, 0, 1]))
    attach_node(result, "C", np.asarray([20, 21]), np.asarray([0, 2]))
    result.kill("B", [1])  # the C probe's miss
    attach_node(result, "D", np.asarray([30, 31]), np.asarray([0, 1]))
    bf = result.expand_all()
    bf_tuples = sorted(zip(*(bf[rel].tolist() for rel in result.joined)))
    df_tuples = sorted(
        tuple(row[rel] for rel in result.joined)
        for row in result.expand_depth_first()
    )
    assert df_tuples == bf_tuples
    assert len(df_tuples) == result.count_rows()


def test_depth_first_on_engine_output():
    catalog = make_small_catalog(seed=3, driver_rows=25)
    query = make_running_example_query()
    result = execute(catalog, query, mode=ExecutionMode.COM,
                     flat_output=False)
    bf = result.factorized.expand_all()
    bf_tuples = sorted(zip(*(bf[rel].tolist() for rel in query.relations)))
    df_tuples = sorted(
        tuple(row[rel] for rel in query.relations)
        for row in result.factorized.expand_depth_first()
    )
    assert df_tuples == bf_tuples


def test_depth_first_empty_result():
    query = JoinQuery("A", [JoinEdge("A", "B", "k", "k")])
    result = FactorizedResult(query, np.asarray([0, 1]))
    attach_node(result, "B", np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64))
    result.kill("A", [0, 1])
    assert list(result.expand_depth_first()) == []


def test_depth_first_is_lazy():
    """The generator yields without materializing everything."""
    catalog = make_small_catalog(seed=5, driver_rows=40)
    query = make_running_example_query()
    result = execute(catalog, query, mode=ExecutionMode.COM,
                     flat_output=False)
    generator = result.factorized.expand_depth_first()
    first = next(generator)
    assert set(first) == set(query.relations)
