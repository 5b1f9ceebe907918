"""Tests for the query-shape builders."""

import pytest

from repro.workloads import snowflake
from repro.workloads.shapes import (
    PAPER_SHAPES,
    paper_path11,
    paper_snowflake_3_2,
    paper_snowflake_5_1,
    paper_star7,
    path,
    star,
)


def test_star_shape():
    query = star(5)
    assert query.num_relations == 6
    assert all(query.parent(rel) == "R0" for rel in query.non_root_relations)
    with pytest.raises(ValueError):
        star(0)


def test_path_centre_driver():
    query = path(11)
    assert query.num_relations == 11
    # Centre driver: two arms.
    assert len(query.children("R0")) == 2
    depths = [query.depth(rel) for rel in query.relations]
    assert max(depths) == 5


def test_path_end_driver():
    query = path(5, driver_position=0)
    assert len(query.children("R0")) == 1
    assert max(query.depth(rel) for rel in query.relations) == 4


def test_path_validation():
    with pytest.raises(ValueError):
        path(1)
    with pytest.raises(ValueError):
        path(5, driver_position=9)


def test_snowflake_3_2():
    query = snowflake(3, 2)
    assert query.num_relations == 10
    assert len(query.children("R0")) == 3
    for child in query.children("R0"):
        assert len(query.children(child)) == 2


def test_snowflake_5_1():
    query = snowflake(5, 1)
    assert query.num_relations == 11
    assert len(query.children("R0")) == 5
    for child in query.children("R0"):
        assert len(query.children(child)) == 1


def test_snowflake_validation():
    with pytest.raises(ValueError):
        snowflake(0, 1)
    with pytest.raises(ValueError):
        snowflake(2, -1)


def test_paper_shapes_registry():
    assert set(PAPER_SHAPES) == {
        "star", "path", "snowflake_3_2", "snowflake_5_1"
    }
    assert paper_star7().num_relations == 7
    assert paper_path11().num_relations == 11
    assert paper_snowflake_3_2().num_relations == 10
    assert paper_snowflake_5_1().num_relations == 11


def test_edge_attribute_convention():
    query = snowflake(2, 1)
    for edge in query.edges:
        assert edge.parent_attr == f"k_{edge.child}"
        assert edge.child_attr == "k"
