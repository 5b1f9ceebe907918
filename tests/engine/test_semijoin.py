"""Tests for phase-1 semi-join full reduction."""

import numpy as np
import pytest

from repro.core import JoinEdge, JoinQuery
from repro.engine.semijoin import full_reduction
from repro.storage import Catalog

from tests.helpers import brute_force_join, make_running_example_query, make_small_catalog


@pytest.fixture
def chain_catalog():
    catalog = Catalog()
    catalog.add_table("A", {"k": [1, 2, 3, 4]})
    catalog.add_table("B", {"k": [1, 1, 3, 9], "j": [10, 11, 12, 13]})
    catalog.add_table("C", {"j": [10, 12, 99]})
    return catalog


@pytest.fixture
def chain_query():
    return JoinQuery("A", [
        JoinEdge("A", "B", "k", "k"),
        JoinEdge("B", "C", "j", "j"),
    ])


def test_leaves_never_reduced(chain_catalog, chain_query):
    result = full_reduction(chain_query, chain_catalog)
    assert len(result.rows("C")) == 3


def test_internal_nodes_partially_reduced(chain_catalog, chain_query):
    result = full_reduction(chain_query, chain_catalog)
    # B rows with j in C: rows 0 (j=10) and 2 (j=12).
    assert sorted(result.rows("B").tolist()) == [0, 2]


def test_driver_fully_reduced(chain_catalog, chain_query):
    result = full_reduction(chain_query, chain_catalog)
    # Surviving B keys: 1 (row 0) and 3 (row 2) -> A rows 0 and 2.
    assert sorted(result.rows("A").tolist()) == [0, 2]


def test_driver_reduction_matches_brute_force():
    """Every surviving driver row contributes to the output; every
    removed one does not (the Yannakakis guarantee)."""
    catalog = make_small_catalog(seed=11)
    query = make_running_example_query()
    result = full_reduction(query, catalog)
    expected = brute_force_join(catalog, query)
    contributing = sorted({t[0] for t in expected})
    assert sorted(result.rows("R1").tolist()) == contributing


def test_probe_counts(chain_catalog, chain_query):
    result = full_reduction(chain_query, chain_catalog)
    # B probes C with all 4 rows; A probes (reduced) B with all 4 rows.
    assert result.semijoin_probes == 8


def test_child_order_changes_probes_not_result():
    catalog = make_small_catalog(seed=13)
    query = make_running_example_query()
    a = full_reduction(query, catalog,
                       child_orders={"R1": ["R2", "R5"]})
    b = full_reduction(query, catalog,
                       child_orders={"R1": ["R5", "R2"]})
    assert sorted(a.rows("R1").tolist()) == sorted(b.rows("R1").tolist())
    for rel in ("R2", "R3", "R4", "R5", "R6"):
        assert sorted(a.rows(rel).tolist()) == sorted(b.rows(rel).tolist())


def test_invalid_child_order_rejected(chain_catalog, chain_query):
    with pytest.raises(ValueError, match="child order"):
        full_reduction(chain_query, chain_catalog,
                       child_orders={"B": ["X"]})


def test_reduced_index_covers_reduced_rows_only(chain_catalog, chain_query):
    result = full_reduction(chain_query, chain_catalog)
    index = result.reduced_index(chain_catalog, "B", "k")
    assert len(index) == len(result.rows("B"))
    # Key 9 (dangling B row) must be gone.
    assert not index.contains(np.asarray([9])).any()


def test_reduction_ratio(chain_catalog, chain_query):
    result = full_reduction(chain_query, chain_catalog)
    assert result.reduction_ratio("B", 4) == pytest.approx(0.5)
    assert result.reduction_ratio("C", 3) == pytest.approx(1.0)
    assert result.reduction_ratio("X", 0) == 1.0


def test_empty_survivor_set():
    catalog = Catalog()
    catalog.add_table("A", {"k": [1, 2]})
    catalog.add_table("B", {"k": [7, 8]})
    query = JoinQuery("A", [JoinEdge("A", "B", "k", "k")])
    result = full_reduction(query, catalog)
    assert len(result.rows("A")) == 0


def test_unreduced_relation_reuses_the_catalog_index(chain_catalog,
                                                     chain_query):
    # leaves are never reduced: their "reduced" index is the cached
    # full index itself, and reduced ones are derived from it
    result = full_reduction(chain_query, chain_catalog)
    assert len(result.rows("C")) == len(chain_catalog.table("C"))
    leaf_attr = chain_query.edge_to("C").child_attr
    assert result.reduced_index(chain_catalog, "C", leaf_attr) is \
        chain_catalog.hash_index("C", leaf_attr)
    reduced = result.reduced_index(chain_catalog, "B", "k")
    assert reduced is not chain_catalog.hash_index("B", "k")
    assert sorted(rows for _, group in reduced.iter_groups()
                  for rows in group) == sorted(result.rows("B").tolist())
