"""Property: every plan the planner produces passes every check.

Sweeps acyclic and cyclic queries x shard counts {1, 2, 8} x all six
execution modes (plus ``mode="auto"``): each plan was built through the
construction checks, covers every parsed predicate exactly once, holds
only rows its selections keep, warns about no key hazard, and its
shipped spec rehydrates to the same plan — the checks must reject
corruptions, never legitimate output.  Randomized catalogs come from
hypothesis; the mode/shard grid is exhaustive.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionMode, Planner
from repro.storage.table import Table
from repro.analysis import verify_plan
from repro.core.parser import parse_query
from repro.storage import Catalog

from tests.helpers import (
    predicate_coverage,
    stated_predicates,
    unpushed_selections,
)

ACYCLIC_SQL = (
    "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b AND r.x = 2"
)
CYCLIC_SQL = (
    "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b AND t.c = r.x"
)

SHARD_GRID = ("off", 2, 8)
MODE_GRID = ["auto"] + [str(mode) for mode in ExecutionMode.all_modes()]


def build_catalog(seed, rows):
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.add(Table("r", {
        "a": rng.integers(0, 30, rows),
        "x": rng.integers(0, 4, rows),
    }))
    catalog.add(Table("s", {
        "a": rng.integers(0, 30, 2 * rows),
        "b": rng.integers(0, 20, 2 * rows),
    }))
    catalog.add(Table("t", {
        "b": rng.integers(0, 20, rows),
        "c": rng.integers(0, 4, rows),
    }))
    return catalog


def assert_clean(plan, sql):
    parsed = parse_query(sql)
    assert verify_plan(plan, source=parsed, level="full") == ()
    assert predicate_coverage(plan) == stated_predicates(parsed)
    assert unpushed_selections(plan, parsed) == []


@pytest.mark.parametrize("partitioning", SHARD_GRID)
@pytest.mark.parametrize("sql", [ACYCLIC_SQL, CYCLIC_SQL],
                         ids=["acyclic", "cyclic"])
def test_planner_output_verifies_clean_across_modes(sql, partitioning):
    catalog = build_catalog(seed=11, rows=600)
    planner = Planner(catalog, partitioning=partitioning)
    for mode in MODE_GRID:
        plan = planner.plan(sql, mode=mode)
        assert_clean(plan, sql)
        spec = plan.to_spec(catalog.fingerprint())
        back = planner.rehydrate(spec, parse_query(sql))
        assert back.fingerprint() == plan.fingerprint(), (mode,
                                                          partitioning)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    rows=st.integers(min_value=8, max_value=800),
    partitioning=st.sampled_from(SHARD_GRID),
    cyclic=st.booleans(),
    driver=st.sampled_from(["fixed", "auto"]),
)
def test_random_catalogs_verify_clean(seed, rows, partitioning, cyclic,
                                      driver):
    catalog = build_catalog(seed=seed, rows=rows)
    planner = Planner(catalog, partitioning=partitioning)
    sql = CYCLIC_SQL if cyclic else ACYCLIC_SQL
    plan = planner.plan(sql, driver=driver)
    assert_clean(plan, sql)


def test_validated_planner_matches_unvalidated_grid():
    """The construction checks never change a plan: rebuilding each
    grid plan through them keeps its spec and fingerprint."""
    catalog = build_catalog(seed=3, rows=300)
    for partitioning in SHARD_GRID:
        planner = Planner(catalog, partitioning=partitioning)
        for sql in (ACYCLIC_SQL, CYCLIC_SQL):
            for mode in MODE_GRID:
                plan = planner.plan(sql, mode=mode)
                rebuilt = dataclasses.replace(plan)
                assert rebuilt.spec == plan.spec
                assert rebuilt.fingerprint() == plan.fingerprint()
