"""Runtime-feedback replanning through the session and async service.

The adaptive half of the robustness knob: ``robustness="auto"``
executions run monitored, abort when observed cardinalities leave the
trusted region, replan with corrected statistics, and publish the
corrected plan to the plan cache so warm traffic never re-trips.
"""

import asyncio

import numpy as np
import pytest

from repro import AsyncQueryService, QuerySession
from repro.engine import CardinalityMonitor, ReplanSignal, corrected_stats
from repro.core import EdgeStats, JoinEdge, JoinQuery, QueryStats
from repro.planner import Planner
from repro.storage import Catalog

from tests.core.test_bounds import (
    CORRUPTION,
    adversarial_query,
    make_adversarial_catalog,
)
from tests.helpers import (
    StatsCorruptingCatalog,
    brute_force_join,
    make_running_example_query,
    make_small_catalog,
    result_tuples,
)

#: trips on any estimate that is even marginally wrong
HAIR_TRIGGER = 1.000001


def make_corrupted_session(**kwargs):
    catalog = make_adversarial_catalog()
    corrupted = StatsCorruptingCatalog(catalog, CORRUPTION)
    defaults = dict(robustness="auto", replan_threshold=4.0)
    defaults.update(kwargs)
    return catalog, QuerySession(corrupted, **defaults)


# ----------------------------------------------------------------------
# Monitor unit behaviour
# ----------------------------------------------------------------------


def test_monitor_trips_and_carries_observations():
    monitor = CardinalityMonitor({"A": 0.5, "B": 0.01}, threshold=3.0)
    monitor.observe("A", 100, 60)  # q = 1.2, below threshold
    assert monitor.max_q_error == pytest.approx(1.2)
    with pytest.raises(ReplanSignal) as excinfo:
        monitor.observe("B", 100, 40)  # q = 40
    signal = excinfo.value
    assert signal.relation == "B"
    assert signal.position == 2
    assert signal.q_error == pytest.approx(40.0)
    assert signal.observed == {"A": (100, 60), "B": (100, 40)}


def test_monitor_skips_unknown_and_empty_probes():
    monitor = CardinalityMonitor({"A": 0.5}, threshold=2.0)
    monitor.observe("Z", 100, 100)  # no estimate: teaches nothing
    monitor.observe("A", 0, 0)  # dead prefix: teaches nothing
    monitor.observe("A", 100, 0)  # empty step: the answer is decided
    assert monitor.max_q_error == 1.0
    assert monitor.observed == {}


def test_monitor_keeps_watching_after_an_empty_step():
    """An empty step is skipped, not a stop: it keeps its position in
    the order, and a later step that misses its estimate still trips."""
    monitor = CardinalityMonitor({"A": 0.5, "B": 0.5, "C": 0.5},
                                 threshold=3.0)
    monitor.observe("A", 100, 50)  # exact
    monitor.observe("B", 100, 0)  # empty: no trip, no q-error
    assert monitor.max_q_error == pytest.approx(1.0)
    with pytest.raises(ReplanSignal) as excinfo:
        monitor.observe("C", 100, 5)  # q = 10
    assert excinfo.value.relation == "C"
    assert excinfo.value.position == 3
    assert excinfo.value.observed == {"A": (100, 50), "C": (100, 5)}


def test_monitor_rejects_sub_one_threshold():
    with pytest.raises(ValueError, match="q-error"):
        CardinalityMonitor({}, threshold=0.5)


def test_corrected_stats_snap_observed_edges():
    stats = QueryStats(
        100.0,
        {"A": EdgeStats(0.5, 2.0), "B": EdgeStats(0.1, 1.0)},
        relation_sizes={"R": 100, "A": 50, "B": 20},
    )
    corrected = corrected_stats(stats, {"A": (100, 400), "Z": (10, 5)})
    assert corrected.selectivity("A") == pytest.approx(4.0)
    # unobserved edges keep their estimates
    assert corrected.selectivity("B") == pytest.approx(0.1)
    assert stats.selectivity("A") == pytest.approx(1.0)  # original intact


# ----------------------------------------------------------------------
# Session knobs
# ----------------------------------------------------------------------


def test_session_validates_replan_knobs():
    catalog = make_small_catalog()
    with pytest.raises(ValueError, match="q-error"):
        QuerySession(catalog, replan_threshold=0.9)
    with pytest.raises(ValueError, match="max_replans"):
        QuerySession(catalog, max_replans=-1)
    with pytest.raises(ValueError):
        QuerySession(catalog, robustness="never")


def test_cache_keys_distinguish_robustness_posture():
    catalog = make_small_catalog()
    session = QuerySession(catalog)
    query = make_running_example_query()
    keys = {
        session.cache_key(query, robustness=robustness)
        for robustness in ("off", "bounded", "auto")
    }
    assert len(keys) == 3


# ----------------------------------------------------------------------
# The replan loop
# ----------------------------------------------------------------------


def test_replanning_recovers_from_corrupted_stats():
    catalog, session = make_corrupted_session()
    query = adversarial_query()
    report = session.execute(query, mode="STD", collect_output=True)
    assert report.ok
    assert report.replans >= 1
    assert report.observed_q_error > session.replan_threshold
    # the served plan is the corrected one, not the optimistic original
    assert report.plan.order == ["S", "H"]
    assert result_tuples(report.result, query) == brute_force_join(
        catalog, query
    )


def test_corrected_plan_serves_warm_traffic():
    catalog, session = make_corrupted_session()
    query = adversarial_query()
    cold = session.execute(query, mode="STD")
    assert cold.replans >= 1
    warm = session.execute(query, mode="STD")
    assert warm.cache_hit
    assert warm.replans == 0  # the corrected plan does not re-trip
    assert warm.plan.order == cold.plan.order


def test_feedback_recovers_where_bounds_tie():
    """X and Y share max frequency 8, so guaranteed bounds cannot tell
    the corrupted order from the true one and the bounded gate keeps
    it; only runtime feedback recovers.  The served execution (cold and
    warm) lands within 2x of the true-stats optimum in weighted probe
    work, and warm traffic never re-trips."""
    n_driver = 2000
    catalog = Catalog()
    catalog.add_table("R", {"a": np.arange(n_driver)})
    # 0.5% of keys present, 8 rows each: true selectivity 0.04
    catalog.add_table("X", {"a": np.repeat(np.arange(0, n_driver, 200), 8)})
    # every key present, 8 rows each: true selectivity 8
    catalog.add_table("Y", {"a": np.repeat(np.arange(n_driver), 8)})
    query = JoinQuery("R", [JoinEdge("R", "X", "a", "a"),
                            JoinEdge("R", "Y", "a", "a")])
    corrupted = StatsCorruptingCatalog(catalog, {"Y": 1e-4, "X": 50.0})

    truth = Planner(catalog).plan(query, mode="STD").execute()
    off = Planner(corrupted).plan(query, mode="STD")
    bounded = Planner(corrupted, robustness="bounded").plan(query, mode="STD")
    assert bounded.order == off.order != ["X", "Y"]

    session = QuerySession(corrupted, robustness="auto")
    cold = session.execute(query, mode="STD")
    warm = session.execute(query, mode="STD")
    assert cold.ok and warm.ok
    assert cold.replans >= 1
    assert warm.replans == 0
    for report in (cold, warm):
        assert report.result.output_size == truth.output_size
        assert report.result.weighted_cost() <= 2.0 * truth.weighted_cost()


def test_off_and_bounded_postures_never_replan():
    for robustness in ("off", "bounded"):
        catalog, session = make_corrupted_session(robustness=robustness)
        report = session.execute(
            adversarial_query(), mode="STD", collect_output=True
        )
        assert report.ok
        assert report.replans == 0
        assert result_tuples(report.result, adversarial_query()) == \
            brute_force_join(catalog, adversarial_query())


def test_zero_replan_budget_runs_unmonitored():
    catalog, session = make_corrupted_session(max_replans=0)
    report = session.execute(adversarial_query(), mode="STD",
                             collect_output=True)
    assert report.ok
    assert report.replans == 0
    assert result_tuples(report.result, adversarial_query()) == \
        brute_force_join(catalog, adversarial_query())


def test_replan_budget_bounds_retries():
    """A hair-trigger threshold cannot loop: replans <= max_replans."""
    catalog, session = make_corrupted_session(
        replan_threshold=HAIR_TRIGGER, max_replans=2
    )
    report = session.execute(adversarial_query(), mode="STD",
                             collect_output=True)
    assert report.ok
    assert report.replans <= 2
    assert result_tuples(report.result, adversarial_query()) == \
        brute_force_join(catalog, adversarial_query())


def test_clean_stats_do_not_replan_on_default_threshold():
    catalog = make_small_catalog()
    session = QuerySession(catalog, robustness="auto")
    report = session.execute(make_running_example_query(), mode="STD")
    assert report.ok
    assert report.replans == 0
    assert report.observed_q_error >= 1.0


def run_empty_four_way_join(mode):
    """``A.x = B.x AND A.y = C.y AND A.x = D.x`` with ``A.y = A.x`` and
    the ``B`` and ``C`` keys on disjoint halves of ``A``'s domain: the
    answer is empty, but no single edge's statistics say so."""
    rng = np.random.default_rng(0)
    x = rng.integers(0, 50, 200)
    catalog = Catalog()
    catalog.add_table("A", {"x": x, "y": x.copy()})
    catalog.add_table("B", {"x": rng.integers(0, 25, 200)})
    catalog.add_table("C", {"y": rng.integers(25, 50, 200)})
    catalog.add_table("D", {"x": rng.integers(0, 50, 200)})
    sql = ("SELECT * FROM A, B, C, D WHERE A.x = B.x AND A.y = C.y "
           "AND A.x = D.x")
    return QuerySession(catalog, robustness="auto").execute(
        sql, mode=mode, collect_output=True)


@pytest.mark.parametrize("mode", ["STD", "COM"])
def test_empty_join_step_does_not_replan(mode):
    """Regression: a join that matched nothing fed an observed
    selectivity of 0 to the running q-error, so an empty answer —
    already decided by the empty intermediate — replanned up to the
    ``max_replans`` cap."""
    report = run_empty_four_way_join(mode)
    assert report.ok
    assert report.replans == 0
    assert report.result.output_size == 0


@pytest.mark.parametrize("mode", ["BVP+STD", "BVP+COM"])
def test_empty_answer_does_not_replan_in_bitvector_modes(mode):
    """The bitvector modes run monitored too; there the same answer
    empties at the bitvector prefilter (zero probes), which must not
    replan either."""
    report = run_empty_four_way_join(mode)
    assert report.ok
    assert report.replans == 0
    assert report.result.output_size == 0


def test_planner_refuses_to_replan_cyclic_plans():
    rng = np.random.default_rng(5)
    catalog = Catalog()
    catalog.add_table("A", {"x": rng.integers(0, 5, 20),
                            "y": rng.integers(0, 5, 20)})
    catalog.add_table("B", {"x": rng.integers(0, 5, 15),
                            "z": rng.integers(0, 5, 15)})
    catalog.add_table("C", {"y": rng.integers(0, 5, 10),
                            "z": rng.integers(0, 5, 10)})
    session = QuerySession(catalog, robustness="auto")
    plan = session.plan(
        "select * from A, B, C "
        "where A.x = B.x and A.y = C.y and B.z = C.z"
    )
    assert plan.is_cyclic
    with pytest.raises(ValueError, match="cyclic"):
        session.planner.replan(plan, plan.stats)
    # through the session the cyclic plan simply runs unmonitored
    report = session.execute(
        "select * from A, B, C "
        "where A.x = B.x and A.y = C.y and B.z = C.z"
    )
    assert report.ok
    assert report.replans == 0


# ----------------------------------------------------------------------
# Async service wiring
# ----------------------------------------------------------------------


def test_async_service_reports_and_counts_replans():
    catalog, session = make_corrupted_session()
    query = adversarial_query()

    async def go():
        async with AsyncQueryService(session) as service:
            return await service.execute(query, mode="STD",
                                         collect_output=True), \
                service.stats()

    report, stats = asyncio.run(go())
    assert report.ok
    assert report.replans >= 1
    assert stats["replans"] == report.replans
    assert result_tuples(report.result, query) == brute_force_join(
        catalog, query
    )


def test_replan_keeps_the_requests_planning_budget(monkeypatch):
    """Regression: a replan searched with the *planner default* options,
    i.e. with no deadline, so a request planned under a tiny per-call
    budget was replanned by the unbudgeted exhaustive DP."""
    import repro.planner as planner_module
    from tests.large_joins import chain_query, large_join_catalog

    query = chain_query(8)
    catalog = large_join_catalog(query, rows_per_relation=48,
                                 key_domain=32, seed=3)
    session = QuerySession(catalog, robustness="auto",
                           replan_threshold=HAIR_TRIGGER)
    deadlines = []
    for name in ("exhaustive_optimal", "idp_order"):
        def spy(*args, _search=getattr(planner_module, name), **kwargs):
            deadlines.append(kwargs.get("deadline"))
            return _search(*args, **kwargs)
        monkeypatch.setattr(planner_module, name, spy)
    report = session.execute(query, mode="STD", optimizer="auto",
                             planning_budget_ms=0.001)
    assert report.ok
    assert report.replans >= 1
    # the cold plan and every replan start on the exhaustive rung, and
    # each DP they run is bounded by the request's deadline
    assert len(deadlines) >= 1 + report.replans
    assert None not in deadlines
