"""One plan record: a :class:`PhysicalPlan` is its :class:`PlanSpec`
bound to a catalog and a rooted tree.

Shipping a plan is therefore lossless by construction: every pool query
of the six benchmark workloads comes back from ``to_spec`` -> pickle ->
``rehydrate`` with the same fingerprint, the same ``repr`` of its
predicted cost and an equal spec.  And a plan's decisions are frozen,
so a cached plan can be served to any number of callers.

What construction cannot see is checked here, over the same pool plans,
as checks on the planner's code rather than on every request: the
fingerprint reacts to every decision, the plan covers each parsed join
predicate exactly once, and the derived catalog holds only rows that
pass the query's constant selections.
"""

import dataclasses
import pickle
import sys
from pathlib import Path

import pytest

from repro import Catalog, QuerySession
from repro.core.parser import parse_query

from tests.helpers import (
    fingerprint_blind_fields,
    make_small_catalog,
    predicate_coverage,
    stated_predicates,
    unpushed_selections,
)

REPO = Path(__file__).resolve().parents[1]
SEED, OPS = 11, 400


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's own generator, imported read-only."""
    sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))
    try:
        import gen
    finally:
        sys.path.remove(str(REPO / "benchmarks" / "e2e"))
    return {name: generator(SEED, OPS)
            for name, generator in gen.GENERATORS.items()}


def shipped_fields(spec):
    """Every spec field by name (``QueryStats`` by content)."""
    return {spec_field.name: getattr(spec, spec_field.name)
            if spec_field.name != "stats" else vars(spec.stats)
            for spec_field in dataclasses.fields(spec)}


WORKLOADS = ("warm_serving", "cold_planning", "cyclic_skew",
             "distributed_scatter", "live_mutation", "open_arrivals")


def pool_plans(workload):
    """``(session, [(parsed, plan), ...])`` over a workload's pool."""
    catalog = Catalog()
    for table, columns in workload.tables.items():
        catalog.add_table(table, dict(columns))
    session = QuerySession(catalog, **workload.session)
    knobs = {knob: value for knob, value in workload.execute.items()
             if knob != "collect_output"}
    planned = []
    for query in workload.pool:
        parsed = parse_query(query.sql())
        planned.append((parsed, session.plan(parsed, **knobs)))
    return session, knobs, planned


@pytest.mark.parametrize("name", WORKLOADS)
def test_pool_plans_survive_the_spec_round_trip(workloads, name):
    session, knobs, planned = pool_plans(workloads[name])
    fingerprint = session.catalog.fingerprint()
    try:
        for parsed, plan in planned:
            spec = pickle.loads(pickle.dumps(plan.to_spec(fingerprint)))
            back = session.planner.rehydrate(spec, parsed, **knobs)
            assert back.fingerprint() == plan.fingerprint(), parsed
            assert repr(back.predicted_cost) == repr(plan.predicted_cost)
            assert shipped_fields(back.spec) \
                == shipped_fields(plan.to_spec(fingerprint))
            assert back.query.edges == plan.query.edges
    finally:
        session.close()


@pytest.mark.parametrize("name", WORKLOADS)
def test_pool_plans_keep_the_invariants_construction_cannot_see(workloads,
                                                                name):
    """``FP004``, ``PRED001–003`` and ``PRED004`` as checks on the
    planner's code, over every pool plan."""
    session, _, planned = pool_plans(workloads[name])
    try:
        for parsed, plan in planned:
            assert fingerprint_blind_fields(plan) == [], parsed
            assert predicate_coverage(plan) == stated_predicates(parsed)
            assert unpushed_selections(plan, parsed) == [], parsed
    finally:
        session.close()


def test_cached_plan_decisions_are_immutable(workloads):
    workload = workloads["warm_serving"]
    catalog = Catalog()
    for table, columns in workload.tables.items():
        catalog.add_table(table, dict(columns))
    session = QuerySession(catalog)
    sql = workload.pool[0].sql()
    plan = session.plan(sql)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.spec.order = tuple(reversed(plan.spec.order))
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.catalog = None
    with pytest.raises(AttributeError):
        plan.order = list(reversed(plan.order))
    # the read views are copies: editing one changes nothing cached
    plan.order.reverse()
    plan.child_orders.clear()
    assert session.plan(sql) is plan
    assert session.plan(sql).order == list(plan.spec.order)


def test_plan_fields_read_through_from_the_spec(workloads):
    workload = workloads["cyclic_skew"]
    catalog = Catalog()
    for table, columns in workload.tables.items():
        catalog.add_table(table, dict(columns))
    plan = QuerySession(catalog, **workload.session).plan(
        workload.pool[0].sql())
    for spec_field in dataclasses.fields(plan.spec):
        if spec_field.metadata["role"] == "anchor":
            continue
        value = getattr(plan, spec_field.name)
        if spec_field.name == "order":
            assert value == list(plan.spec.order)
        elif spec_field.name == "child_orders":
            assert tuple(sorted((r, tuple(c)) for r, c in value.items())) \
                == plan.spec.child_orders
        else:
            assert value is getattr(plan.spec, spec_field.name)


FOUR_RELATION_SQL = ("select * from R1, R2, R3, R5 "
                     "where R1.B = R2.B and R2.C = R3.C and R1.E = R5.E")
TRIANGLE_SQL = ("select * from R1, R2, R5 "
                "where R1.B = R2.B and R1.E = R5.E and R2.C = R5.F")


@pytest.mark.parametrize("sql, knobs, strategy", [
    (FOUR_RELATION_SQL, {}, "tree_filter"),
    # a cyclic catalog is partitioned at binding, for the tree decided
    (TRIANGLE_SQL, {"cyclic_execution": "tree_filter"}, "tree_filter"),
    # the wcoj arbitration runs on the search winner, before its spec
    (TRIANGLE_SQL, {"cyclic_execution": "auto"}, "wcoj"),
])
def test_a_fresh_sharded_plan_builds_its_spec_once(sql, knobs, strategy,
                                                   monkeypatch):
    """The shard count binds on the plan, so a ``partitioning=4``
    session constructs one :class:`PlanSpec` per fresh plan, whichever
    strategy it runs."""
    from repro.planner import PlanSpec

    session = QuerySession(make_small_catalog(), partitioning=4, **knobs)
    built, checks = [], PlanSpec.__post_init__

    def counting(spec):
        built.append(spec)
        checks(spec)

    monkeypatch.setattr(PlanSpec, "__post_init__", counting)
    plan = session.plan(sql)
    assert plan.num_shards == 4
    assert plan.cyclic_strategy == strategy
    assert built == [plan.spec]


def test_the_kernel_plane_moves_no_fingerprint():
    catalog = make_small_catalog()
    vectorized = QuerySession(catalog, execution="vectorized") \
        .plan(FOUR_RELATION_SQL)
    interpreted = QuerySession(catalog, execution="interpreted") \
        .plan(FOUR_RELATION_SQL)
    assert (vectorized.execution, interpreted.execution) \
        == ("vectorized", "interpreted")
    assert vectorized.fingerprint() == interpreted.fingerprint()
