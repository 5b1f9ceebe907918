"""Unit tests for EdgeStats / QueryStats and stats-from-data."""

import numpy as np
import pytest

from repro.core import EdgeStats, JoinEdge, JoinQuery, QueryStats, stats_from_data
from repro.storage import Catalog


def test_edge_stats_selectivity():
    stats = EdgeStats(m=0.5, fo=4.0)
    assert stats.selectivity == 2.0


def test_edge_stats_validation():
    with pytest.raises(ValueError, match="match probability"):
        EdgeStats(m=1.5, fo=1.0)
    with pytest.raises(ValueError, match="fanout"):
        EdgeStats(m=0.5, fo=-1.0)


def test_edge_stats_scaled_clamps():
    stats = EdgeStats(m=0.8, fo=2.0)
    assert stats.scaled(2.0).m == 1.0
    assert stats.scaled(0.5).m == pytest.approx(0.4)
    assert stats.scaled(0.5).fo == 2.0


def test_query_stats_accessors(running_example_stats):
    st = running_example_stats
    assert st.m("R2") == 0.3
    assert st.fo("R5") == 5.0
    assert st.selectivity("R2") == pytest.approx(0.9)
    assert st.probe_cost("R2") == 1.0
    assert st.relation_size("R3") == 600
    with pytest.raises(KeyError, match="no statistics"):
        st.m("R9")


def test_relation_size_defaults_to_driver():
    st = QueryStats(500, {"X": EdgeStats(0.5, 2.0)})
    assert st.relation_size("X") == 500.0


def test_with_edge_replaces_single_relation(running_example_stats):
    st2 = running_example_stats.with_edge("R2", EdgeStats(0.9, 1.0))
    assert st2.m("R2") == 0.9
    assert running_example_stats.m("R2") == 0.3
    assert st2.relation_size("R3") == 600  # sizes carried over


def test_perturbed_stays_in_bounds(running_example_stats):
    rng = np.random.default_rng(0)
    perturbed = running_example_stats.perturbed(0.95, rng)
    for rel in ("R2", "R3", "R4", "R5", "R6"):
        assert 0.0 < perturbed.m(rel) <= 1.0
        assert perturbed.fo(rel) >= 1.0


def test_negative_driver_size_rejected():
    with pytest.raises(ValueError, match="driver_size"):
        QueryStats(-1, {})


def test_stats_from_data_exact():
    catalog = Catalog()
    # R: 4 tuples; keys 1,1,2,5. S has key 1 twice and key 2 once.
    catalog.add_table("R", {"k": [1, 1, 2, 5]})
    catalog.add_table("S", {"k": [1, 1, 2, 9], "p": [0, 1, 2, 3]})
    query = JoinQuery("R", [JoinEdge("R", "S", "k", "k")])
    stats = stats_from_data(catalog, query)
    # 3 of 4 R tuples match; matched tuples find (2 + 2 + 1)/3 matches.
    assert stats.m("S") == pytest.approx(0.75)
    assert stats.fo("S") == pytest.approx(5.0 / 3.0)
    assert stats.driver_size == 4
    assert stats.relation_size("S") == 4


def test_stats_from_data_no_matches():
    catalog = Catalog()
    catalog.add_table("R", {"k": [1, 2]})
    catalog.add_table("S", {"k": [7, 8]})
    query = JoinQuery("R", [JoinEdge("R", "S", "k", "k")])
    stats = stats_from_data(catalog, query)
    assert stats.m("S") == 0.0
    assert stats.fo("S") == 1.0


def test_query_signature_ignores_edge_declaration_order():
    from repro.core.stats import query_signature

    a = JoinQuery("R1", [
        JoinEdge("R1", "R2", "B", "B"), JoinEdge("R1", "R3", "E", "E"),
    ])
    b = JoinQuery("R1", [
        JoinEdge("R1", "R3", "E", "E"), JoinEdge("R1", "R2", "B", "B"),
    ])
    assert query_signature(a) == query_signature(b)
    # different rooting is a different signature
    assert query_signature(a) != query_signature(a.rerooted("R2"))
