"""Seeded plan corruptions: each must be caught with a stable code.

The verifier's contract is the diagnostic-code registry — these tests
hand-corrupt real planner output one invariant at a time and assert
``validate="full"`` flags exactly the expected code, so a refactor that
silently weakens a pass fails here by name.
"""

import dataclasses

import numpy as np
import pytest

from repro import Planner, Table
from repro.analysis import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    PlanVerificationError,
    PlanVerifier,
    Severity,
    verify_plan,
    verify_spec,
)
from repro.core.cyclic import ResidualPredicate
from repro.core.parser import parse_query
from repro.core.query import JoinEdge, JoinQuery
from repro.planner import PlanSpec
from repro.storage import Catalog

ACYCLIC_SQL = (
    "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b AND r.x = 3"
)
CYCLIC_SQL = (
    "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b AND t.c = r.x"
)


def make_catalog(seed=0, rows=400):
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.add(Table("r", {
        "a": rng.integers(0, 40, rows),
        "x": rng.integers(0, 5, rows),
    }))
    catalog.add(Table("s", {
        "a": rng.integers(0, 40, 2 * rows),
        "b": rng.integers(0, 25, 2 * rows),
    }))
    catalog.add(Table("t", {
        "b": rng.integers(0, 25, rows),
        "c": rng.integers(0, 5, rows),
    }))
    return catalog


@pytest.fixture()
def catalog():
    return make_catalog()


@pytest.fixture()
def cyclic_plan(catalog):
    return Planner(catalog).plan(CYCLIC_SQL)


@pytest.fixture()
def acyclic_plan(catalog):
    return Planner(catalog).plan(ACYCLIC_SQL)


def failing_codes(plan, sql, level="full"):
    result = verify_plan(plan, source=sql, level=level)
    return set(d.code for d in result.errors)


def with_spec(plan, **changes):
    """``plan`` with some spec fields replaced (a new plan; knob
    legality is still checked, so only structure can be corrupted)."""
    return dataclasses.replace(
        plan, spec=dataclasses.replace(plan.spec, **changes))


# ----------------------------------------------------------------------
# The seeded corruption matrix (acceptance: >= 8 distinct codes)
# ----------------------------------------------------------------------


def test_clean_plans_verify_clean(acyclic_plan, cyclic_plan):
    assert verify_plan(acyclic_plan, source=ACYCLIC_SQL).ok
    assert verify_plan(cyclic_plan, source=CYCLIC_SQL).ok


def test_corrupt_tree_root_as_child(acyclic_plan):
    bad_query = JoinQuery.__new__(JoinQuery)  # bypass ctor validation
    bad_query.root = "r"
    bad_query.edges = [
        JoinEdge("r", "s", "a", "a"),
        JoinEdge("s", "r", "b", "b"),
    ]
    bad = dataclasses.replace(acyclic_plan, query=bad_query)
    assert "PLAN001" in failing_codes(bad, ACYCLIC_SQL)


def test_corrupt_tree_two_parents(acyclic_plan):
    bad_query = JoinQuery.__new__(JoinQuery)
    bad_query.root = "r"
    bad_query.edges = [
        JoinEdge("r", "s", "a", "a"),
        JoinEdge("r", "t", "x", "c"),
        JoinEdge("s", "t", "b", "b"),
    ]
    bad = dataclasses.replace(acyclic_plan, query=bad_query)
    assert "PLAN001" in failing_codes(bad, ACYCLIC_SQL)


def test_order_violating_precedence(acyclic_plan):
    bad = with_spec(acyclic_plan, order=list(reversed(acyclic_plan.order))
    )
    assert "PLAN002" in failing_codes(bad, ACYCLIC_SQL)


def test_order_not_a_permutation(acyclic_plan):
    bad = with_spec(acyclic_plan, order=["s", "s"])
    assert "PLAN002" in failing_codes(bad, ACYCLIC_SQL)


def test_mismatched_child_orders(acyclic_plan):
    bad = with_spec(acyclic_plan, child_orders={"r": ["t"], "nope": []}
    )
    assert "PLAN003" in failing_codes(bad, ACYCLIC_SQL)


def test_misaligned_residual_selectivities(cyclic_plan):
    bad = with_spec(cyclic_plan,
        residual_selectivities=cyclic_plan.residual_selectivities + (0.5,),
    )
    assert "PLAN004" in failing_codes(bad, CYCLIC_SQL)


def test_unresolved_execution_knob(acyclic_plan):
    with pytest.raises(ValueError, match="execution"):
        with_spec(acyclic_plan, execution="auto")


def test_dropped_residual(cyclic_plan):
    bad = with_spec(cyclic_plan, residuals=(), residual_selectivities=()
    )
    assert "PRED001" in failing_codes(bad, CYCLIC_SQL)


def test_duplicated_tree_edge_as_residual(cyclic_plan):
    edge = cyclic_plan.query.edges[0]
    duplicate = ResidualPredicate(
        edge.parent, edge.parent_attr, edge.child, edge.child_attr
    )
    bad = with_spec(cyclic_plan,
        residuals=cyclic_plan.residuals + (duplicate,),
        residual_selectivities=cyclic_plan.residual_selectivities + (1.0,),
    )
    assert "PRED002" in failing_codes(bad, CYCLIC_SQL)


def test_invented_predicate(acyclic_plan):
    bad = with_spec(acyclic_plan,
        residuals=(ResidualPredicate("r", "x", "t", "c"),),
        residual_selectivities=(1.0,),
    )
    assert "PRED003" in failing_codes(bad, ACYCLIC_SQL)


def test_unpushed_selection(catalog, acyclic_plan):
    # swap in a catalog whose "r" still holds rows violating r.x = 3
    unfiltered = Catalog()
    for name in ("r", "s", "t"):
        unfiltered.add(catalog.table(name))
    bad = dataclasses.replace(acyclic_plan, catalog=unfiltered)
    assert "PRED004" in failing_codes(bad, ACYCLIC_SQL)


def test_predicate_against_missing_column(catalog):
    plan = Planner(catalog).plan(ACYCLIC_SQL)
    broken = Catalog()
    for name in ("r", "t"):
        broken.add(plan.catalog.table(name))
    s = plan.catalog.table("s")
    broken.add(Table("s", {"a": s.column("a")}))  # drop join column b
    bad = dataclasses.replace(plan, catalog=broken)
    assert "SCHEMA002" in failing_codes(bad, ACYCLIC_SQL)


def test_missing_relation(acyclic_plan):
    sparse = Catalog()
    sparse.add(acyclic_plan.catalog.table("r"))
    sparse.add(acyclic_plan.catalog.table("s"))
    bad = dataclasses.replace(acyclic_plan, catalog=sparse)
    assert "SCHEMA001" in failing_codes(bad, ACYCLIC_SQL)


def test_shard_count_lie(acyclic_plan):
    bad = with_spec(acyclic_plan, num_shards=4)
    assert "SHARD001" in failing_codes(bad, ACYCLIC_SQL)


def test_shard_count_mismatch(catalog):
    plan = Planner(catalog, partitioning=2).plan(ACYCLIC_SQL)
    assert plan.num_shards == 2
    bad = with_spec(plan, num_shards=8)
    assert "SHARD001" in failing_codes(bad, ACYCLIC_SQL)


def test_corrupted_base_row_ids(catalog):
    plan = Planner(catalog, partitioning=2).plan(ACYCLIC_SQL)
    assert verify_plan(plan, source=ACYCLIC_SQL).ok
    sharded = next(
        plan.catalog.table(rel) for rel in plan.query.relations
        if getattr(plan.catalog.table(rel), "num_shards", 1) > 1
    )
    original = sharded._base_rows.copy()
    try:
        sharded._base_rows[0] = sharded._base_rows[1]  # no longer a bijection
        assert "ROWID001" in failing_codes(plan, ACYCLIC_SQL)
    finally:
        sharded._base_rows[:] = original


def test_stripped_fingerprint_component(acyclic_plan, monkeypatch):
    """FP004 reads the decision fields from the spec's metadata, so a
    fingerprint that stops hashing one of them is named."""
    from repro import planner

    monkeypatch.setattr(planner, "_DECISIONS", tuple(
        (name, canonical) for name, canonical in planner._DECISIONS
        if name != "execution"))
    result = verify_plan(acyclic_plan, source=ACYCLIC_SQL, level="full")
    assert [d.message for d in result.errors if d.code == "FP004"] == [
        "fingerprint() is insensitive to field 'execution': perturbing "
        "it left the digest unchanged"]


def test_unregistered_plan_field():
    """A plan field declared without a role cannot exist: the class
    definition itself fails."""
    with pytest.raises(TypeError, match="shiny_new_knob is declared "
                                        "without a role"):
        @dataclasses.dataclass(frozen=True, kw_only=True)
        class PlanSpecWithNewKnob(PlanSpec):
            shiny_new_knob: int = 0


def test_unregistered_planner_knob(acyclic_plan, monkeypatch):
    original = Planner.plan

    def plan_with_knob(self, query, shiny_new_knob=None, **kwargs):
        return original(self, query, **kwargs)

    monkeypatch.setattr(Planner, "plan", plan_with_knob)
    assert "FP003" in failing_codes(acyclic_plan, ACYCLIC_SQL)


@pytest.mark.parametrize("knob, keyed", [("robustness", False),
                                         ("validate", True)])
def test_cache_token_disagreeing_with_the_knob_table(acyclic_plan,
                                                     monkeypatch,
                                                     knob, keyed):
    """FP003 is behavioural: drop a keyed knob from ``cache_token()``
    (or leak an exempt one into it) and verification names it."""
    from repro import options

    names = tuple(n for n in options._KEYED[options.ResolvedOptions]
                  if n != knob)
    monkeypatch.setitem(options._KEYED, options.ResolvedOptions,
                        names + (knob,) if keyed else names)
    result = verify_plan(acyclic_plan, source=ACYCLIC_SQL, level="basic")
    assert [knob in d.message for d in result.errors
            if d.code == "FP003"] == [True]


# ----------------------------------------------------------------------
# Key-hazard warnings (never errors: the engine handles them exactly)
# ----------------------------------------------------------------------


def hazard_catalog():
    catalog = Catalog()
    catalog.add(Table("r", {
        "k": np.array([2.0**53, 1.0, np.nan]),
    }))
    catalog.add(Table("s", {
        "k": np.array([2**53, 1, 7], dtype=np.int64),
        "f": np.array([True, False, True]),
    }))
    catalog.add(Table("t", {"f": np.array([0, 1, 1], dtype=np.int64)}))
    return catalog


def test_exact_key_hazards_are_warned():
    catalog = hazard_catalog()
    sql = "SELECT * FROM r, s, t WHERE r.k = s.k AND s.f = t.f"
    plan = Planner(catalog).plan(sql)
    result = verify_plan(plan, source=sql, level="full")
    assert result.ok  # hazards warn, they don't reject
    warned = {d.code for d in result.warnings}
    assert {"KEY001", "KEY002", "KEY003"} <= warned


def test_string_numeric_join_is_warned():
    catalog = Catalog()
    catalog.add(Table("r", {"k": np.array(["a", "b"])}))
    catalog.add(Table("s", {"k": np.array([1, 2], dtype=np.int64)}))
    sql = "SELECT * FROM r, s WHERE r.k = s.k"
    plan = Planner(catalog).plan(sql)
    result = verify_plan(plan, source=sql, level="full")
    assert "SCHEMA003" in {d.code for d in result.warnings}


def test_basic_level_skips_data_scans():
    catalog = hazard_catalog()
    sql = "SELECT * FROM r, s WHERE r.k = s.k"
    plan = Planner(catalog).plan(sql)
    basic = verify_plan(plan, source=sql, level="basic")
    assert not {"KEY001", "KEY002"} & set(basic.codes())
    full = verify_plan(plan, source=sql, level="full")
    assert {"KEY001", "KEY002"} <= set(full.codes())


# ----------------------------------------------------------------------
# Spec-level verification
# ----------------------------------------------------------------------


def test_spec_verifies_clean(catalog, cyclic_plan):
    spec = cyclic_plan.to_spec(catalog.fingerprint())
    assert verify_spec(
        spec, query=parse_query(CYCLIC_SQL), catalog=catalog
    ).ok


def test_stale_spec(catalog, cyclic_plan):
    spec = cyclic_plan.to_spec("not-the-fingerprint")
    result = verify_spec(
        spec, query=parse_query(CYCLIC_SQL), catalog=catalog
    )
    assert "SPEC004" in set(result.codes())


def test_spec_with_foreign_residual(catalog, cyclic_plan):
    spec = cyclic_plan.to_spec(catalog.fingerprint())
    bad = dataclasses.replace(
        spec, residuals=(ResidualPredicate("r", "a", "t", "b"),)
    )
    result = verify_spec(bad, query=parse_query(CYCLIC_SQL),
                         catalog=catalog)
    assert "SPEC005" in set(result.codes())


ILLEGAL_KNOBS = (
    {"mode": "WAT"},
    {"execution": "auto"},
    {"num_shards": 0},
    {"num_shards": True},
    {"cyclic_strategy": "auto"},
    {"wcoj_variable_order": ((("r", "a"),),)},  # on a tree_filter plan
    {"robustness": "paranoid"},
    {"placement": "sharded"},
    {"num_workers": -1},
)


def test_spec_invalid_knobs(catalog, acyclic_plan):
    """Knob legality is a construction invariant, for specs and plans
    alike: the verifier has nothing left to re-check."""
    spec = acyclic_plan.to_spec(catalog.fingerprint())
    for knob in ILLEGAL_KNOBS:
        with pytest.raises(ValueError):
            dataclasses.replace(spec, **knob)
        with pytest.raises(ValueError):
            with_spec(acyclic_plan, **knob)


# ----------------------------------------------------------------------
# Diagnostics plumbing
# ----------------------------------------------------------------------


def test_every_emitted_code_is_registered():
    with pytest.raises(ValueError, match="unregistered diagnostic code"):
        Diagnostic(code="NOPE01", severity=Severity.ERROR, message="x")
    assert all(isinstance(v, str) and v for v in DIAGNOSTIC_CODES.values())


def test_verifier_raises_and_caches(acyclic_plan):
    verifier = PlanVerifier()
    result = verifier.verify_plan(acyclic_plan, source=ACYCLIC_SQL)
    assert result.ok
    # second call is a verdict-cache hit returning the same object
    again = verifier.verify_plan(acyclic_plan, source=ACYCLIC_SQL)
    assert again is result
    bad = with_spec(acyclic_plan, order=list(reversed(acyclic_plan.order))
    )
    with pytest.raises(PlanVerificationError) as excinfo:
        verifier.verify_plan(bad, source=ACYCLIC_SQL)
    assert "PLAN002" in excinfo.value.result.codes()
    # the failing verdict is cached too, and still raises
    with pytest.raises(PlanVerificationError):
        verifier.verify_plan(bad, source=ACYCLIC_SQL)


# ----------------------------------------------------------------------
# Pessimistic-bound annotations (BOUND001-003)
# ----------------------------------------------------------------------


@pytest.fixture()
def bounded_plan(catalog):
    return Planner(catalog, robustness="bounded").plan(ACYCLIC_SQL)


def test_clean_bounded_plan_verifies_clean(bounded_plan):
    assert bounded_plan.robustness == "bounded"
    assert verify_plan(bounded_plan, source=ACYCLIC_SQL).ok


def test_invalid_robustness_posture(acyclic_plan):
    with pytest.raises(ValueError, match="robustness"):
        with_spec(acyclic_plan, robustness="paranoid")


def test_off_plan_carrying_bounds(acyclic_plan):
    bad = with_spec(acyclic_plan, prefix_bounds=(10.0,), worst_case_bound=5.0
    )
    assert "BOUND002" in failing_codes(bad, ACYCLIC_SQL)


def test_robust_plan_missing_a_bound(bounded_plan):
    bad = with_spec(bounded_plan, prefix_bounds=bounded_plan.prefix_bounds[:-1]
    )
    assert "BOUND002" in failing_codes(bad, ACYCLIC_SQL)


def test_non_finite_bound(bounded_plan):
    bad = with_spec(bounded_plan, worst_case_bound=float("inf")
    )
    assert "BOUND003" in failing_codes(bad, ACYCLIC_SQL)
    negative = with_spec(bounded_plan,
        prefix_bounds=(-1.0,) + bounded_plan.prefix_bounds[1:],
    )
    assert "BOUND003" in failing_codes(negative, ACYCLIC_SQL)


def test_fingerprint_sensitive_to_robustness(bounded_plan):
    flipped = with_spec(bounded_plan, robustness="off")
    assert flipped.fingerprint() != bounded_plan.fingerprint()


def test_spec_bound_checks(catalog, bounded_plan):
    spec = bounded_plan.to_spec(catalog.fingerprint())
    assert verify_spec(spec, ACYCLIC_SQL, catalog).ok
    short = dataclasses.replace(
        spec, prefix_bounds=tuple(spec.prefix_bounds)[:-1]
    )
    assert "BOUND002" in {
        d.code for d in verify_spec(short, ACYCLIC_SQL, catalog).errors
    }


def test_distinct_corruption_codes_covered():
    """Acceptance guard: the corruption matrix spans >= 8 codes."""
    corrupted = {
        "PLAN001", "PLAN002", "PLAN003", "PLAN004",
        "PRED001", "PRED002", "PRED003", "PRED004",
        "SCHEMA001", "SCHEMA002", "SHARD001", "ROWID001",
        "FP003", "FP004", "SPEC004", "SPEC005",
        "BOUND002", "BOUND003",
    }
    assert len(corrupted) >= 8
    assert corrupted <= set(DIAGNOSTIC_CODES)
    # knob legality and field roles are construction invariants now
    retired = {"PLAN005", "FP001", "FP002", "SPEC001", "SPEC002",
               "SPEC003", "WCOJ001", "BOUND001", "PLACE002"}
    assert not retired & set(DIAGNOSTIC_CODES)
