"""The knob table is the single source: ``repro.options.PlanOptions``.

Every check below is driven by ``dataclasses.fields(PlanOptions)``, so
a knob added as a field is exercised here without touching this file
(beyond one alternative value for it), and a knob threaded by hand
anywhere else fails.
"""

import asyncio
import dataclasses
import re

import pytest

from repro import (
    AsyncQueryService, CostWeights, Planner, QuerySession, parse_query,
)
from repro.options import PlanOptions, ResolvedOptions

from tests.helpers import (
    cache_token_disagreements,
    make_small_catalog,
    unkeyed_planner_parameters,
)

SQL = "select * from R1, R2, R5 where R1.B = R2.B and R1.E = R5.E"
PARSED = parse_query(SQL)

#: per knob: a valid value different from its default
ALTERNATIVE = {
    "mode": "COM",
    "optimizer": "beam",
    "driver": "auto",
    "flat_output": False,
    "weights": CostWeights(hash_probe=2.0),
    "eps": 0.05,
    "idp_block_size": 4,
    "beam_width": 3,
    "planning_budget_ms": 50.0,
    "partitioning": 2,
    "execution": "interpreted",
    "cyclic_execution": "wcoj",
    "placement": "distributed",
    "num_workers": 2,
}

#: (knob, invalid value, the documented message) rows
INVALID = [
    ("mode", "sideways", "not a valid ExecutionMode"),
    ("optimizer", "simulated_annealing", "optimizer must be one of"),
    ("driver", "R9", "driver must be one of"),
    ("flat_output", "false", "flat_output must be a bool"),
    ("flat_output", 0, "flat_output must be a bool"),
    # equal to the default (True), still not a bool
    ("flat_output", 1, "flat_output must be a bool"),
    ("flat_output", None, "flat_output must be a bool"),
    ("weights", "x", "weights must be a CostWeights or None"),
    ("weights", 0, "weights must be a CostWeights or None"),
    ("weights", "", "weights must be a CostWeights or None"),
    ("eps", -0.5, "eps must be a number in"),
    ("eps", 1.5, "eps must be a number in"),
    ("eps", 1, "eps must be a number in"),
    ("eps", float("nan"), "eps must be a number in"),
    ("idp_block_size", 0, "idp_block_size must be an int >= 1"),
    ("beam_width", "auto", "beam_width must be an int >= 1"),
    ("planning_budget_ms", -1.0, "planning_budget_ms must be positive"),
    ("planning_budget_ms", True, "planning_budget_ms must be positive"),
    ("planning_budget_ms", float("nan"),
     "planning_budget_ms must be positive"),
    ("planning_budget_ms", "5", "planning_budget_ms must be positive"),
    ("partitioning", 0, "partitioning shard count must be >= 1"),
    ("partitioning", True, "partitioning must be"),
    ("execution", "simd", "execution must be one of"),
    ("cyclic_execution", "yannakakis", "cyclic_execution must be one of"),
    ("placement", "cloud", "placement must be one of"),
    ("num_workers", -1, "num_workers must be an int >= 0"),
    # equal to the default (0), still not an int
    ("num_workers", 0.0, "num_workers must be an int >= 0"),
]


@pytest.fixture
def catalog():
    return make_small_catalog()


def served_async(catalog, calls):
    """Each of ``calls`` (keyword dicts) as a two-query
    ``execute_many`` batch through one :class:`AsyncQueryService`:
    the reports, and the service's counters afterwards."""
    async def go():
        async with AsyncQueryService(QuerySession(catalog)) as service:
            reports = [report for kwargs in calls for report in
                       await service.execute_many([SQL, SQL], **kwargs)]
            return reports, service.stats()

    return asyncio.run(go())


def test_every_knob_has_an_alternative_value():
    names = {spec.name for spec in dataclasses.fields(PlanOptions)}
    assert names == set(ALTERNATIVE)
    assert {name for name, _, _ in INVALID} <= names


@pytest.mark.parametrize("spec", dataclasses.fields(PlanOptions),
                         ids=lambda spec: spec.name)
def test_knob_is_declared_once(spec, catalog):
    name, value = spec.name, ALTERNATIVE[spec.name]
    assert value != spec.default
    given = {name: value}

    # both constructors take every field and hold it on the one record
    planner = Planner(catalog, **given)
    session = QuerySession(catalog, **given)
    assert getattr(planner.options, name) == value
    assert session.planner.options == planner.options
    assert getattr(planner, name) == value  # attribute view

    # ... which a worker process rebuilds from planner_config()
    rebuilt = Planner(catalog, **planner.options.planner_config())
    assert rebuilt.options == planner.options

    # per-call knobs override on every entry point, the rest on none
    base = QuerySession(catalog)
    try:
        if spec.metadata["per_call"]:
            assert base.planner.plan(SQL, **given) is not None
            assert base.cache_key(PARSED, **given) is not None
            report = base.execute(SQL, **given)
            assert report.ok, report.error
        else:
            with pytest.raises(TypeError, match=name):
                base.planner.plan(SQL, **given)
            with pytest.raises(TypeError, match=name):
                base.cache_key(PARSED, **given)
            assert isinstance(base.execute(SQL, **given).error, TypeError)
    finally:
        base.close()

    # the plan-cache token moves iff the knob is not exempt
    resolved = PlanOptions().resolved(catalog, PARSED)
    moved = dataclasses.replace(resolved, **given).cache_token() \
        != resolved.cache_token()
    assert moved == (spec.metadata["key"] != "exempt")


@pytest.mark.parametrize("name, bad, message", INVALID,
                         ids=[f"{name}={bad!r}" for name, bad, _ in INVALID])
def test_invalid_values_raise_the_documented_error(name, bad, message,
                                                   catalog):
    """Wherever an invalid value arrives — either constructor, or a
    single call for a per-call knob — it raises ``ValueError``; an
    ``execute()``, sync or async, reports it.  (``None`` on a call
    keeps the configured default.)"""
    with pytest.raises(ValueError, match=message):
        Planner(catalog, **{name: bad})
    with pytest.raises(ValueError, match=message):
        QuerySession(catalog, **{name: bad})
    if PlanOptions.__dataclass_fields__[name].metadata["per_call"] \
            and bad is not None:
        with pytest.raises(ValueError, match=message):
            Planner(catalog).plan(SQL, **{name: bad})
        sync = QuerySession(catalog).execute(SQL, **{name: bad})
        reports, counters = served_async(catalog, [{name: bad}])
        for report in [sync, *reports]:
            assert isinstance(report.error, ValueError)
            assert re.search(message, str(report.error))
        assert counters["completed"] == counters["submitted"] == 2


def test_knobs_are_read_only_on_the_planner(catalog):
    """A planner's knobs are set at construction; assigning one raises
    instead of shadowing the attribute view planning never reads."""
    planner = Planner(catalog, beam_width=8)
    with pytest.raises(AttributeError, match="set at construction"):
        planner.beam_width = 32
    assert planner.beam_width == planner.options.beam_width == 8


def test_planner_takes_only_knob_parameters():
    """``Planner.__init__`` / ``Planner.plan`` name no parameter besides
    ``catalog``, ``stats_cache``, ``query`` and the knob fields: a knob
    taken any other way would never reach the plan-cache key."""
    assert unkeyed_planner_parameters() == []


def test_cache_token_follows_the_knob_table():
    """Every field of a resolved request — the knobs plus what
    resolution derives — moves ``cache_token()`` iff it is not
    declared exempt."""
    assert cache_token_disagreements() == []


def test_unknown_names_are_rejected_everywhere(catalog):
    planner, session = Planner(catalog), QuerySession(catalog)
    unknowns = ({"shiny": 1}, {"tree_search": "greedy"},
                {"validate": "basic"}, {"max_spanning_trees": 1},
                {"regret_factor": 4.0}, {"stats": "exact"},
                {"use_cache": False}, {"robustness": "bounded"})
    for unknown in unknowns:
        with pytest.raises(TypeError):
            Planner(catalog, **unknown)
        with pytest.raises(TypeError):
            QuerySession(catalog, **unknown)
        with pytest.raises(TypeError):
            planner.plan(SQL, **unknown)
        with pytest.raises(TypeError):
            session.plan(SQL, **unknown)
        with pytest.raises(TypeError):
            session.cache_key(PARSED, **unknown)
        assert isinstance(session.execute(SQL, **unknown).error, TypeError)
    reports, counters = served_async(catalog, unknowns)
    assert all(isinstance(report.error, TypeError) for report in reports)
    assert counters["completed"] == counters["submitted"] \
        == 2 * len(unknowns)


def test_none_override_keeps_the_configured_default(catalog):
    options = PlanOptions(partitioning=4, planning_budget_ms=25.0)
    assert options.override(partitioning=None,
                            planning_budget_ms=None) is options
    assert options.override(mode="COM").partitioning == 4


def test_resolution_replaces_auto_with_what_will_run(catalog):
    request = PlanOptions(optimizer="auto", partitioning="auto",
                          execution="auto", placement="distributed")
    resolved = request.resolved(catalog, PARSED)
    assert isinstance(resolved, ResolvedOptions)
    assert resolved.optimizer == "exhaustive"
    assert resolved.partitioning == 1 and resolved.partition_floor > 0
    assert resolved.execution in ("vectorized", "interpreted")
    assert resolved.num_workers >= 1
    assert resolved.deadline is None
    # an explicit request for the same resolution shares the token
    # except for the floor only "auto" partitioning applies
    explicit = PlanOptions(
        optimizer="exhaustive", partitioning="auto",
        execution=resolved.execution, placement="distributed",
        num_workers=resolved.num_workers,
    ).resolved(catalog, PARSED)
    assert explicit.cache_token() == resolved.cache_token()
    assert PlanOptions(planning_budget_ms=5.0).resolved(
        catalog, PARSED).deadline is not None

