"""Tests for the cyclic join-graph workload generators."""

import pytest

from repro.core import parse_query
from tests.cyclic_joins import (
    CYCLIC_SHAPES,
    clique_query,
    cycle_query,
    cyclic_catalog,
    cyclic_scaling_suite,
    grid_query,
    to_sql,
)


def test_cycle_shape():
    parsed = cycle_query(6)
    assert len(parsed.relations) == 6
    assert len(parsed.join_predicates) == 6
    assert parsed.is_connected() and not parsed.is_acyclic()


def test_clique_shape():
    parsed = clique_query(5)
    assert len(parsed.join_predicates) == 10
    assert not parsed.is_acyclic()


def test_grid_shape():
    parsed = grid_query(3, 4)
    assert len(parsed.relations) == 12
    # 3*(4-1) horizontal + 4*(3-1) vertical edges
    assert len(parsed.join_predicates) == 17
    assert not parsed.is_acyclic()


def test_grid_rejects_degenerate_dimensions():
    with pytest.raises(ValueError, match="2 x 2"):
        grid_query(1, 8)  # a 1-row grid is a path, not cyclic


def test_shape_registry_produces_requested_sizes():
    for shape, build in CYCLIC_SHAPES.items():
        parsed = build(12)
        assert len(parsed.relations) == 12, shape
        assert not parsed.is_acyclic(), shape


def test_shape_registry_grid_rejects_primes():
    with pytest.raises(ValueError, match="composite"):
        CYCLIC_SHAPES["grid"](13)


def test_catalog_backs_every_predicate_column():
    parsed = grid_query(2, 3)
    catalog = cyclic_catalog(parsed, rows_per_relation=32, seed=3)
    for rel_a, attr_a, rel_b, attr_b in parsed.join_predicates:
        assert attr_a in catalog.table(rel_a).column_names
        assert attr_b in catalog.table(rel_b).column_names
    for alias in parsed.relations:
        assert len(catalog.table(alias)) == 32


def test_catalog_fixed_domain_bounds_keys():
    parsed = cycle_query(4)
    catalog = cyclic_catalog(parsed, rows_per_relation=64, key_domain=7,
                             seed=1)
    for alias in parsed.relations:
        for column in catalog.table(alias).column_names:
            values = catalog.table(alias).column(column)
            assert values.min() >= 0 and values.max() < 7


def test_to_sql_round_trips_through_the_parser():
    parsed = clique_query(4)
    reparsed = parse_query(to_sql(parsed))
    assert reparsed.relations == parsed.relations
    assert reparsed.join_predicates == parsed.join_predicates


def test_scaling_suite_cases():
    cases = cyclic_scaling_suite([6, 8], shapes=("cycle", "grid"), seed=2)
    assert [(shape, n) for shape, n, _, _ in cases] == [
        ("cycle", 6), ("cycle", 8), ("grid", 6), ("grid", 8),
    ]
    seen = set()
    for shape, n, parsed, catalog in cases:
        assert len(parsed.relations) == n
        fingerprint = catalog.fingerprint()
        assert fingerprint not in seen  # per-case seeds differ
        seen.add(fingerprint)
