"""``decide``: the optimizer as a function of statistics.

A request :meth:`Planner.measure` s and freezes carries everything
:func:`repro.planner.decide` reads, so deciding from it — after a
pickle round trip, as a planning worker does — binds to the plan
``plan()`` builds, bit for bit, on every pool query of the six benchmark
workloads and the cyclic knob variants the golden plans cover.  The
in-process path keeps reading each measurement once.
"""

import pickle
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import QuerySession
from repro.core.stats import StatsReader
from repro.planner import Planner, decide
from repro.storage import Catalog
from tests.helpers import make_small_catalog

REPO = Path(__file__).resolve().parents[1]

SIX_RELATION_SQL = (
    "select * from R1, R2, R3, R4, R5, R6 "
    "where R1.B = R2.B and R2.C = R3.C and R2.D = R4.D "
    "and R1.E = R5.E and R5.F = R6.F"
)


def _import(folder, name):
    sys.path.insert(0, str(REPO / folder))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(REPO / folder))


gen = _import("benchmarks/e2e", "gen")
VARIANTS = _import("tools", "plan_fingerprints").VARIANTS


def decided_in_a_worker(planner, query, **knobs):
    """``measure`` -> pickle -> ``decide`` -> ``bind``: the planning
    pool's path, minus the process."""
    prep = planner.measure(query, **knobs)
    assert prep.options.deadline is None
    searched, reader, options = pickle.loads(pickle.dumps(
        (prep.searched, prep.reader, prep.options)))
    return planner.bind(prep, *decide(searched, reader, options.restarted()))


def signature(plan):
    return plan.fingerprint(), repr(plan.predicted_cost), plan.search_tally


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_decide_over_frozen_statistics_plans_like_plan(name):
    workload = gen.GENERATORS[name](11, 100)
    catalog = Catalog()
    for table, columns in workload.tables.items():
        catalog.add_table(table, dict(columns))
    session = QuerySession(catalog, **workload.session)
    planner = session.planner
    knobs = {knob: value for knob, value in workload.execute.items()
             if knob != "collect_output"}
    variants = [{}] + [dict([variant]) for variant in VARIANTS] \
        if workload.cyclic else [{}]
    for query in workload.pool:
        for variant in variants:
            inline = planner.plan(query.sql(), **knobs, **variant)
            shipped = decided_in_a_worker(planner, query.sql(), **knobs,
                                          **variant)
            assert signature(shipped) == signature(inline), (query, variant)
    session.close()


@pytest.mark.parametrize("driver, misses", [("fixed", 5), ("auto", 10)])
def test_in_process_plan_measures_what_it_reads_once(driver, misses):
    """Five predicates: one direction each for a fixed driver, both for
    ``auto``."""
    planner = Planner(make_small_catalog(), stats_cache=True)
    plan = planner.plan(SIX_RELATION_SQL, driver=driver)
    store = planner.stats_cache.stats
    assert (store.misses, store.hits) == (misses, 0)
    planner.plan(SIX_RELATION_SQL, driver=driver)
    assert (store.misses, store.hits) == (misses, misses)
    assert signature(decided_in_a_worker(
        planner, SIX_RELATION_SQL, driver=driver)) == signature(plan)


def test_a_frozen_reader_never_measures():
    """It answers what was measured, raises on anything else and
    pickles without the catalog it was measured over."""
    planner = Planner(make_small_catalog())
    prep = planner.measure(SIX_RELATION_SQL)
    reader, live = prep.reader, StatsReader(planner.catalog)
    for predicate in (("R1", "B", "R2", "B"), ("R2", "B", "R1", "B")):
        assert reader.edge(*predicate) == live.edge(*predicate)
    for ask in (lambda: reader.edge("R1", "E", "R2", "B"),
                lambda: reader.distinct("R2", "B"),
                lambda: reader.sizes(["R7"])):
        with pytest.raises(LookupError, match="frozen statistics"):
            ask()
    assert b"Catalog" not in pickle.dumps(reader)


def test_measure_refuses_a_decision_after_a_write():
    catalog = make_small_catalog()
    planner = Planner(catalog)
    prep = planner.measure(SIX_RELATION_SQL)
    decision = decide(prep.searched, prep.reader, prep.options.restarted())
    catalog.add_table("R4", {"D": catalog.table("R4").column("D")[:-1]})
    with pytest.raises(ValueError, match="stale decision"):
        planner.bind(prep, *decision)


def test_decide_over_held_statistics_reproduces_the_plan():
    """A held reader serves a plan's own statistics: deciding over them
    on the plan's rooting (``driver="fixed"``) returns the plan's order,
    mode and predicted cost, whatever the request's driver knob was."""
    planner = Planner(make_small_catalog(), driver="auto")
    plan = planner.plan(SIX_RELATION_SQL)
    options = planner.options.resolved(planner.catalog, plan.query)
    spec, rooted, _ = decide(
        plan.query, StatsReader.holding(plan.query, plan.stats),
        replace(options, driver="fixed"))
    assert rooted is plan.query
    assert (spec.order, spec.mode, repr(spec.predicted_cost)) \
        == (plan.spec.order, plan.spec.mode, repr(plan.predicted_cost))
