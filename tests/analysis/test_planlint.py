"""Seeded plan corruptions: each is refused where the plan is built.

Every retired verifier code lives on as the prefix of the
``ValueError`` its construction check raises, so these tests hand-
corrupt real planner output one invariant at a time and match that
code.  The checks on the planner's *code* (fingerprint coverage,
predicate accounting, selection push-down, knob keying) are tier-1
helpers in ``tests/helpers.py``; here each is shown to name a seeded
violation.  What is left of :func:`verify_plan` — key-hazard warnings
over the data — closes the file.
"""

import dataclasses

import numpy as np
import pytest

from repro import Planner
from repro.storage.table import Table
from repro.analysis import verify_plan
from repro.analysis.planlint import DIAGNOSTIC_CODES, Diagnostic
from repro.core.cyclic import ResidualPredicate
from repro.core.parser import parse_query
from repro.core.query import JoinEdge, JoinQuery
from repro.planner import PlanSpec
from repro.storage import Catalog

from tests.helpers import (
    cache_token_disagreements,
    fingerprint_blind_fields,
    predicate_coverage,
    stated_predicates,
    unkeyed_planner_parameters,
    unpushed_selections,
)

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
    return Planner(catalog, cyclic_execution="tree_filter").plan(CYCLIC_SQL)


@pytest.fixture()
def acyclic_plan(catalog):
    return Planner(catalog).plan(ACYCLIC_SQL)


def with_spec(plan, **changes):
    """``plan`` with some spec fields replaced: a new spec and a new
    plan, so every construction check runs."""
    return dataclasses.replace(
        plan, spec=dataclasses.replace(plan.spec, **changes))


def shipped(catalog, plan, **changes):
    """``plan``'s shipped spec with some fields replaced."""
    return dataclasses.replace(plan.to_spec(catalog.fingerprint()),
                               **changes)


# ----------------------------------------------------------------------
# The seeded corruption matrix
# ----------------------------------------------------------------------


def test_clean_plans_verify_clean(acyclic_plan, cyclic_plan):
    assert verify_plan(acyclic_plan, source=ACYCLIC_SQL, level="full") == ()
    assert verify_plan(cyclic_plan, source=CYCLIC_SQL, level="full") == ()
    for plan, sql in ((acyclic_plan, ACYCLIC_SQL), (cyclic_plan, CYCLIC_SQL)):
        assert predicate_coverage(plan) == stated_predicates(parse_query(sql))


def test_corrupt_tree_root_as_child():
    with pytest.raises(ValueError, match="root 'r' cannot be a child"):
        JoinQuery("r", [JoinEdge("r", "s", "a", "a"),
                        JoinEdge("s", "r", "b", "b")])


def test_corrupt_tree_two_parents():
    with pytest.raises(ValueError, match="'t' has two parents"):
        JoinQuery("r", [JoinEdge("r", "s", "a", "a"),
                        JoinEdge("r", "t", "x", "c"),
                        JoinEdge("s", "t", "b", "b")])


def test_order_violating_precedence(acyclic_plan):
    with pytest.raises(ValueError, match="^PLAN002"):
        with_spec(acyclic_plan, order=list(reversed(acyclic_plan.order)))


def test_order_not_a_permutation(acyclic_plan):
    with pytest.raises(ValueError, match="^PLAN002"):
        with_spec(acyclic_plan, order=["s", "s"])


def test_mismatched_child_orders(acyclic_plan):
    with pytest.raises(ValueError, match="^PLAN003"):
        with_spec(acyclic_plan, child_orders={"r": ["t"], "nope": []})


def test_misaligned_residual_selectivities(cyclic_plan):
    with pytest.raises(ValueError, match="^PLAN004"):
        with_spec(cyclic_plan, residual_selectivities=(
            cyclic_plan.residual_selectivities + (0.5,)))


def test_kernel_plane_binds_resolved(catalog):
    """A plan's kernel plane is its request's, resolved: ``"auto"``
    never reaches a plan, and the plane is no part of the spec."""
    plan = Planner(catalog, execution="auto").plan(ACYCLIC_SQL)
    assert plan.execution == plan.options.execution
    assert plan.execution in ("vectorized", "interpreted")
    assert "execution" not in {f.name for f in dataclasses.fields(plan.spec)}


def test_dropped_residual(catalog, cyclic_plan):
    """A shipped spec missing its residual would leave four predicates
    for a three-relation tree: one of them would go unapplied."""
    spec = shipped(catalog, cyclic_plan, residuals=(),
                   residual_selectivities=())
    with pytest.raises(ValueError, match="^PRED001"):
        Planner(catalog).rehydrate(spec, CYCLIC_SQL)


def test_duplicated_tree_edge_as_residual(catalog, cyclic_plan):
    edge = cyclic_plan.query.edges[0]
    duplicate = ResidualPredicate(
        edge.parent, edge.parent_attr, edge.child, edge.child_attr
    )
    spec = shipped(
        catalog, cyclic_plan,
        residuals=cyclic_plan.residuals + (duplicate,),
        residual_selectivities=cyclic_plan.residual_selectivities + (1.0,),
    )
    with pytest.raises(ValueError, match="^SPEC005"):
        Planner(catalog).rehydrate(spec, CYCLIC_SQL)


def test_invented_predicate(catalog, acyclic_plan):
    spec = shipped(catalog, acyclic_plan,
                   residuals=(ResidualPredicate("r", "x", "t", "c"),),
                   residual_selectivities=(1.0,))
    with pytest.raises(ValueError, match="^PRED003"):
        Planner(catalog).rehydrate(spec, ACYCLIC_SQL)


def test_unpushed_selection(catalog, acyclic_plan):
    # swap in a catalog whose "r" still holds rows violating r.x = 3
    parsed = parse_query(ACYCLIC_SQL)
    assert unpushed_selections(acyclic_plan, parsed) == []
    unfiltered = Catalog()
    for name in ("r", "s", "t"):
        unfiltered.add(catalog.table(name))
    bad = dataclasses.replace(acyclic_plan, catalog=unfiltered)
    assert unpushed_selections(bad, parsed) == [("r", "x")]


def test_predicate_against_missing_column(catalog):
    plan = Planner(catalog).plan(ACYCLIC_SQL)
    broken = Catalog()
    for name in ("r", "t"):
        broken.add(plan.catalog.table(name))
    s = plan.catalog.table("s")
    broken.add(Table("s", {"a": s.column("a")}))  # drop join column b
    with pytest.raises(ValueError, match="^SCHEMA002"):
        dataclasses.replace(plan, catalog=broken)


def test_missing_relation(acyclic_plan):
    sparse = Catalog()
    sparse.add(acyclic_plan.catalog.table("r"))
    sparse.add(acyclic_plan.catalog.table("s"))
    with pytest.raises(ValueError, match="^SCHEMA001: relation 't'"):
        dataclasses.replace(acyclic_plan, catalog=sparse)


def test_shard_count_binds_on_rehydration(catalog):
    """A spec carries no shard count to lie about: the planner that
    rehydrates it binds its own, and the fingerprint tells them apart
    through the bound catalog."""
    planner = Planner(catalog, partitioning=2)
    plan = planner.plan(ACYCLIC_SQL)
    assert plan.num_shards == 2
    spec = shipped(catalog, plan)
    assert planner.rehydrate(spec, ACYCLIC_SQL).fingerprint() \
        == plan.fingerprint()
    other = planner.rehydrate(spec, ACYCLIC_SQL, partitioning=8)
    assert other.num_shards == 8
    assert other.fingerprint() != plan.fingerprint()


def test_stripped_fingerprint_component(acyclic_plan, monkeypatch):
    """The ``FP004`` check reads the decision fields from the spec's
    metadata, so a fingerprint that stops hashing one of them is
    named."""
    from repro import planner

    assert fingerprint_blind_fields(acyclic_plan) == []
    monkeypatch.setattr(planner, "_DECISIONS", tuple(
        (name, canonical) for name, canonical in planner._DECISIONS
        if name != "cyclic_strategy"))
    assert fingerprint_blind_fields(acyclic_plan) == ["cyclic_strategy"]


def test_unregistered_plan_field():
    """A plan field declared without a role cannot exist: the class
    definition itself fails."""
    with pytest.raises(TypeError, match="shiny_new_knob is declared "
                                        "without a role"):
        @dataclasses.dataclass(frozen=True, kw_only=True)
        class PlanSpecWithNewKnob(PlanSpec):
            shiny_new_knob: int = 0


def test_unregistered_planner_knob(monkeypatch):
    original = Planner.plan

    def plan_with_knob(self, query, shiny_new_knob=None, **kwargs):
        return original(self, query, **kwargs)

    assert unkeyed_planner_parameters() == []
    monkeypatch.setattr(Planner, "plan", plan_with_knob)
    assert unkeyed_planner_parameters() == ["shiny_new_knob"]


@pytest.mark.parametrize("knob, keyed", [("cyclic_execution", False),
                                         ("deadline", True)])
def test_cache_token_disagreeing_with_the_knob_table(monkeypatch, knob,
                                                     keyed):
    """The ``FP003`` check is behavioural: drop a keyed field from
    ``cache_token()`` (or leak an exempt one into it) and it is
    named."""
    from repro import options

    names = tuple(n for n in options._KEYED[options.ResolvedOptions]
                  if n != knob)
    monkeypatch.setitem(options._KEYED, options.ResolvedOptions,
                        names + (knob,) if keyed else names)
    assert cache_token_disagreements() == [knob]


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
    warned = {d.code for d in verify_plan(plan, source=sql, level="full")}
    assert warned == {"KEY001", "KEY002", "KEY003"}
    # without a source, the plan's own tree edges are the predicates
    assert {d.code for d in verify_plan(plan, level="full")} == warned


def test_string_numeric_join_is_warned():
    catalog = Catalog()
    catalog.add(Table("r", {"k": np.array(["a", "b"])}))
    catalog.add(Table("s", {"k": np.array([1, 2], dtype=np.int64)}))
    sql = "SELECT * FROM r, s WHERE r.k = s.k"
    plan = Planner(catalog).plan(sql)
    assert [d.code for d in verify_plan(plan, source=sql)] == ["SCHEMA003"]


def test_basic_level_skips_data_scans():
    catalog = hazard_catalog()
    sql = "SELECT * FROM r, s WHERE r.k = s.k"
    plan = Planner(catalog).plan(sql)
    basic = verify_plan(plan, source=sql, level="basic")
    assert not {"KEY001", "KEY002"} & {d.code for d in basic}
    full = verify_plan(plan, source=sql, level="full")
    assert {"KEY001", "KEY002"} <= {d.code for d in full}
    with pytest.raises(ValueError, match="level must be"):
        verify_plan(plan, level="paranoid")


# ----------------------------------------------------------------------
# Shipped specs
# ----------------------------------------------------------------------


def test_spec_verifies_clean(catalog, cyclic_plan):
    spec = cyclic_plan.to_spec(catalog.fingerprint())
    back = Planner(catalog).rehydrate(spec, parse_query(CYCLIC_SQL))
    assert back.fingerprint() == cyclic_plan.fingerprint()


def test_stale_spec(catalog, cyclic_plan):
    spec = cyclic_plan.to_spec("not-the-fingerprint")
    with pytest.raises(ValueError, match="stale PlanSpec"):
        Planner(catalog).rehydrate(spec, CYCLIC_SQL)


def test_spec_with_foreign_residual(catalog, cyclic_plan):
    spec = shipped(catalog, cyclic_plan,
                   residuals=(ResidualPredicate("r", "a", "t", "b"),))
    with pytest.raises(ValueError, match=r"^PRED003: residual r\.a = t\.b"):
        Planner(catalog).rehydrate(spec, CYCLIC_SQL)


ILLEGAL_KNOBS = (
    {"mode": "WAT"},
    {"cyclic_strategy": "auto"},
    {"wcoj_variable_order": ((("r", "a"),),)},  # on a tree_filter plan
)


def test_spec_invalid_knobs(catalog, acyclic_plan):
    """Knob legality is a construction invariant, for specs and plans
    alike."""
    spec = acyclic_plan.to_spec(catalog.fingerprint())
    for knob in ILLEGAL_KNOBS:
        with pytest.raises(ValueError):
            dataclasses.replace(spec, **knob)
        with pytest.raises(ValueError):
            with_spec(acyclic_plan, **knob)


def test_wcoj_plan_needs_residuals_and_variables(cyclic_plan):
    with pytest.raises(ValueError, match="^WCOJ003"):
        with_spec(cyclic_plan, cyclic_strategy="wcoj", wcoj_variable_order=())
    # the tree edges' attributes alone: the residual's would go unjoined
    variables = (tuple(sorted({
        (rel, attr) for edge in cyclic_plan.query.undirected_edges()
        for rel, attr in (edge[:2], edge[2:])})),)
    with pytest.raises(ValueError, match="^WCOJ002"):
        with_spec(cyclic_plan, cyclic_strategy="wcoj",
                  wcoj_variable_order=variables)


# ----------------------------------------------------------------------
# Diagnostics plumbing
# ----------------------------------------------------------------------


def test_every_emitted_code_is_registered():
    with pytest.raises(ValueError, match="unregistered diagnostic code"):
        Diagnostic(code="NOPE01", message="x")
    assert all(isinstance(v, str) and v for v in DIAGNOSTIC_CODES.values())


def test_verifier_raises_and_caches(acyclic_plan, catalog, monkeypatch):
    """What the verdict cache was for, now by construction: a corrupt
    plan raises when built, and a plan-cache hit builds nothing."""
    from repro import QuerySession
    from repro.planner import PhysicalPlan

    with pytest.raises(ValueError, match="^PLAN002"):
        with_spec(acyclic_plan, order=list(reversed(acyclic_plan.order)))
    session = QuerySession(catalog)
    cold = session.plan(ACYCLIC_SQL)
    built, checks = [], PhysicalPlan.__post_init__

    def counting(plan):
        built.append(plan)
        checks(plan)

    monkeypatch.setattr(PhysicalPlan, "__post_init__", counting)
    assert session.plan(ACYCLIC_SQL) is cold
    assert built == []
    session.plan(CYCLIC_SQL)  # a cold plan is built, and checked, once
    assert len(built) == 1


def test_distinct_corruption_codes_covered():
    """Only the data hazards are still codes; every other code retired
    into a construction check (or a tier-1 check on the code)."""
    assert set(DIAGNOSTIC_CODES) == {"SCHEMA003", "KEY001", "KEY002",
                                     "KEY003"}
    retired = {
        "PLAN001", "PLAN002", "PLAN003", "PLAN004", "PLAN005",
        "PRED001", "PRED002", "PRED003", "PRED004",
        "SCHEMA001", "SCHEMA002", "ROWID001", "SHARD001", "SHARD002",
        "FP001", "FP002", "FP003", "FP004",
        "SPEC001", "SPEC002", "SPEC003", "SPEC004", "SPEC005",
        "WCOJ001", "WCOJ002", "WCOJ003",
        "BOUND001", "BOUND002", "BOUND003", "PLACE001", "PLACE002",
    }
    assert not retired & set(DIAGNOSTIC_CODES)
