"""``repro.planner._search``: floor -> lazy proxy -> bounded search.

The lazy best-first rooting loop must pick exactly the plan an eager
"rank every rooting, then search them in order" loop picks — same
first-wins ties — while running a fraction of its order searches; the
:class:`SearchTally` on the plan is the exact, repeatable record of
that fraction.  On a cyclic query the wcoj price is an incumbent from
the second candidate spanning tree on, and must floor trees without
moving the strategy decision.
"""

import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro import Catalog, ExecutionMode, QuerySession
from repro.core import (
    EdgeStats,
    QueryStats,
    beam_order,
    exhaustive_optimal,
    optimize_sj,
    plan_cost,
)
from repro.core.costmodel import (
    CostMemo,
    expected_output_size,
    order_invariant_floor,
)
from repro.core.cyclic import residual_filter_cost
import repro.planner as planner_module
from repro.core.stats import StatsReader
from repro.options import PlanOptions
from repro.planner import (
    Planner,
    SearchTally,
    _Choice,
    _cost,
    _order_for_mode,
    decide,
)
from tests.cyclic_joins import cyclic_scaling_suite, spanning_tree_cap
from tests.large_joins import (
    large_join_catalog,
    random_tree_query,
    scaling_suite,
)


def eager_search(rootings, stats_for, options, flat_output, best=None,
                 incumbent=math.inf, residual_selectivities=(), residuals=()):
    """The reference: PR 14's ``_candidates`` + ``_search`` — proxy every
    rooting up front, search them all in (proxy cost, position) order,
    bounded by the cheaper of ``best`` and the ``incumbent`` cost."""
    eps, weights = options.eps, options.weights
    tally = best.search_tally if best is not None else SearchTally()
    if best is not None:
        incumbent = min(incumbent, best.predicted_cost)
    proxy_mode = None
    if len(rootings) > 1:
        proxy_mode = next(
            (m for m in options.modes if not m.uses_semijoin), None)
    ranked = []
    for position, rooted in enumerate(rootings):
        stats, proxy = stats_for(rooted), 0.0
        memo = CostMemo(rooted, stats, eps)
        if proxy_mode is not None:
            greedy = beam_order(rooted, stats, mode=proxy_mode, eps=eps,
                                weights=weights, beam_width=1, memo=memo)
            proxy = _cost(rooted, stats, greedy.order, proxy_mode,
                          flat_output, options, memo)
        ranked.append((proxy, position, rooted, stats, memo))
    ranked.sort(key=lambda entry: entry[:2])
    fixed_cost = residual_filter_cost(
        expected_output_size(*ranked[0][2:4]), residual_selectivities,
        weights)
    for _, _, rooted, stats, memo in ranked:
        scale = max([1.0, *stats.probe_costs.values()])
        for mode in options.modes:
            upper_bound = None
            if incumbent < math.inf:
                upper_bound = incumbent - (
                    fixed_cost + order_invariant_floor(
                        rooted, stats, mode, weights, flat_output))
                if upper_bound <= 0.0:
                    continue
                upper_bound *= scale
            child_orders = {}
            if mode.uses_semijoin:
                found = optimize_sj(rooted, stats, mode.factorized, weights,
                                    flat_output)
                order, cost = found.order, found.cost
                child_orders = found.child_orders
            else:
                order = _order_for_mode(rooted, stats, mode, options, memo,
                                        upper_bound)
                if order is None:
                    continue
                cost = _cost(rooted, stats, order, mode, flat_output, options,
                             memo)
            cost += fixed_cost
            if cost < incumbent or best is None and incumbent == math.inf:
                incumbent = cost
                best = _Choice(cost, rooted, stats, order, mode,
                               child_orders, tally, residuals,
                               residual_selectivities)
    return best


def decided(plan):
    return (plan.fingerprint(), plan.query.root, repr(plan.predicted_cost),
            str(plan.mode), tuple(plan.order))


def assert_lazy_equals_eager(catalog, query, **knobs):
    lazy = Planner(catalog).plan(query, **knobs)
    with mock.patch.object(planner_module, "_search", eager_search):
        eager = Planner(catalog).plan(query, **knobs)
    assert decided(lazy) == decided(eager), knobs
    return lazy


def tied_catalog(query, rows, seed=0):
    """Every key column a permutation of ``range(rows)``: ``m = 1`` and
    ``fo = 1`` on every edge in both directions, so every rooting, mode
    and order of one strategy family costs exactly the same."""
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    for relation in query.preorder():
        names = [query.edge_to(child).parent_attr
                 for child in query.children(relation)]
        if relation != query.root:
            names.append(query.edge_to(relation).child_attr)
        catalog.add_table(relation, {name: rng.permutation(rows)
                                     for name in names})
    return catalog


KNOBS = (
    {"driver": "auto"},
    {"driver": "fixed"},
    {"driver": "auto", "flat_output": False},
    {"driver": "auto", "mode": "SJ+COM"},
)


@pytest.mark.parametrize("knobs", KNOBS, ids=repr)
@pytest.mark.parametrize("rows", [40, 0], ids=["all-tied", "empty"])
@pytest.mark.parametrize("seed", [1, 2])
def test_lazy_equals_eager_on_exact_ties(seed, rows, knobs):
    query = random_tree_query(9, seed=seed)
    assert_lazy_equals_eager(tied_catalog(query, rows, seed), query, **knobs)


@pytest.mark.parametrize("knobs", KNOBS[:2], ids=repr)
def test_lazy_equals_eager_on_the_scaling_suite(knobs):
    for shape, n, query, _ in scaling_suite((6, 13, 24), seed=5):
        catalog = large_join_catalog(query, rows_per_relation=64,
                                     key_domain=48, seed=n)
        plan = assert_lazy_equals_eager(catalog, query, optimizer="auto",
                                        **knobs)
        assert plan.search_tally.rootings == (
            n if knobs["driver"] == "auto" else 1), shape


@pytest.mark.parametrize("driver", ["auto", "fixed"])
def test_lazy_equals_eager_on_cyclic_queries(driver):
    for _, _, parsed, catalog in cyclic_scaling_suite(
            (4, 6), rows_per_relation=48, key_domain=(8, 24), seed=3):
        with spanning_tree_cap(12):
            plan = assert_lazy_equals_eager(
                catalog, parsed, driver=driver, cyclic_execution="auto")
        assert plan.is_cyclic


def selective_case(shape, n, rows, domain):
    """A ``scaling_suite`` tree over random data, as SQL text with one
    constant on the driver's first join column — the selective driver
    of the ``cold_planning`` shape."""
    (_, _, query, _), = scaling_suite((n,), shapes=(shape,), seed=7)
    catalog = large_join_catalog(query, rows_per_relation=rows,
                                 key_domain=domain, seed=n)
    first = query.edges[0]
    constant = catalog.table(query.root).column(first.parent_attr)[0]
    joins = [f"{e.parent}.{e.parent_attr} = {e.child}.{e.child_attr}"
             for e in query.edges]
    return catalog, (
        f"select * from {', '.join(query.relations)} where "
        f"{' and '.join(joins)} and "
        f"{first.parent}.{first.parent_attr} = {constant}")


#: exact counts — they repeat run to run, so this is the regression
#: gate for "how much search does a cold plan cost" that a timing cannot
#: be.  The first two are the common case (a selective driver: every
#: other rooting's lower bound loses, unranked); on the star fanouts
#: exceed 1, no floor separates the rootings, and the work is saved
#: strategy by strategy instead.
TALLIES = {
    ("chain", 24, 2000, 2000): SearchTally(
        rootings=24, rootings_floored=23, proxies=1, modes_floored=2,
        searches_pruned=2, searches_completed=2, sj_pricings=0),
    ("random_tree", 24, 512, 384): SearchTally(
        rootings=24, rootings_floored=23, proxies=1, modes_floored=2,
        searches_pruned=1, searches_completed=3, sj_pricings=0),
    ("star", 13, 512, 384): SearchTally(
        rootings=13, rootings_floored=0, proxies=13, modes_floored=48,
        searches_pruned=25, searches_completed=3, sj_pricings=2),
}


@pytest.mark.parametrize("case", sorted(TALLIES))
def test_search_tally_is_exact(case):
    catalog, sql = selective_case(*case)
    plan = Planner(catalog).plan(sql, driver="auto", optimizer="auto")
    tally = plan.search_tally
    assert tally == TALLIES[case]
    if case[1] == 24:  # 144 (rooting, strategy) pairs, <= 6 searched
        assert tally.order_searches <= 6
    assert Planner(catalog).plan(sql, driver="auto",
                                 optimizer="auto").search_tally == tally
    # ... and it is metadata: printed, but neither shipped nor keyed
    assert f"SEARCH rootings={case[1]} " in plan.explain()
    assert not hasattr(plan.to_spec(catalog.fingerprint()), "search_tally")
    twin = QuerySession(catalog).plan(sql, driver="auto", optimizer="auto")
    assert twin.fingerprint() == plan.fingerprint()


def test_sj_strategies_are_priced_once_per_rooting():
    """Fanouts above 1 and many-way branching: full reduction wins, and
    its phase-1 pass (``reduction_ratios``) runs once for the rooting
    that reaches the SJ strategies — shared by SJ+STD and SJ+COM, and
    by ordering and pricing (it ran three times per strategy before)."""
    from repro.core import costmodel_sj, optimizer

    catalog, sql = selective_case("star", 13, 512, 384)
    passes = mock.Mock(wraps=costmodel_sj.reduction_ratios)
    with mock.patch.object(costmodel_sj, "reduction_ratios", passes), \
            mock.patch.object(optimizer, "reduction_ratios", passes):
        plan = Planner(catalog).plan(sql, driver="auto")
    assert plan.mode is ExecutionMode.SJ_COM
    assert plan.search_tally.sj_pricings == 2
    assert passes.call_count == 1
    assert_lazy_equals_eager(catalog, sql, driver="auto")


class GivenStats(StatsReader):
    """A frozen reader serving one synthetic :class:`QueryStats` whole —
    probe costs included, which a reader's values do not hold."""

    def __init__(self, stats):
        super().__init__()
        self.given = stats

    def rooted_stats(self, rooted):
        return self.given


def test_bounded_search_is_sound_with_probe_costs():
    """Regression: the search objective multiplies each probe by its
    ``probe_cost`` while the full plan cost does not, so an incumbent's
    full cost minus the floor under-bounded the DP and pruned away
    cheaper strategies (31 of these 300 trials before the bound was
    scaled by the largest probe cost)."""
    for trial in range(300):
        rng = np.random.default_rng(trial)
        query = random_tree_query(4, seed=trial)
        relations = query.non_root_relations
        stats = QueryStats(
            1000.0,
            {rel: EdgeStats(float(rng.uniform(0.1, 0.9)),
                            float(rng.uniform(1, 4))) for rel in relations},
            probe_costs={rel: float(rng.uniform(1, 5)) for rel in relations},
        )
        options = PlanOptions(optimizer="exhaustive").resolved(None, query)
        spec, _, _ = decide(query, GivenStats(stats), options)
        unbounded = None
        for mode in ExecutionMode.all_modes():
            if mode.uses_semijoin:
                order = optimize_sj(query, stats, mode.factorized).order
            else:
                order = exhaustive_optimal(query, stats, mode=mode).order
            cost = plan_cost(query, stats, order, mode).total(options.weights)
            if unbounded is None or cost < unbounded[0]:
                unbounded = (cost, mode)
        assert (spec.predicted_cost, spec.mode) == unbounded, trial


REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cyclic_skew_pool():
    """The ``cyclic_skew`` catalog and ``(shape tag, sql)`` of every pool
    query (seed 11): the benchmark's own generator, imported read-only."""
    sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))
    try:
        import gen
    finally:
        sys.path.remove(str(REPO / "benchmarks" / "e2e"))
    workload = gen.cyclic_skew(11, 1)
    catalog = Catalog()
    for table, columns in workload.tables.items():
        catalog.add_table(table, dict(columns))
    # relations are "<shape><copy>_R<i>", one digit of copy number
    return catalog, [(query.relations[0].split("_")[0][:-1], query.sql())
                     for query in workload.pool]


#: exact tallies of the ``cyclic_skew`` pool plans by shape.  The grid
#: and the cliques resolve to wcoj: the greedy tree is searched (6
#: strategies), then the wcoj price floors the other 15 candidate trees
#: strategy by strategy — no order search, no SJ pricing.  The triangle
#: and the 4-cycle resolve to tree_filter and search all 3 / 4 trees.
POOL_TALLIES = {
    "tri": ("tree_filter", SearchTally(
        rootings=3, searches_pruned=6, searches_completed=6, sj_pricings=6)),
    "c4": ("tree_filter", SearchTally(
        rootings=4, searches_pruned=8, searches_completed=8, sj_pricings=8)),
    "g33": ("wcoj", SearchTally(
        rootings=16, modes_floored=90, searches_pruned=2,
        searches_completed=2, sj_pricings=2, trees_floored=15)),
    "k4": ("wcoj", SearchTally(
        rootings=16, modes_floored=90, searches_pruned=1,
        searches_completed=3, sj_pricings=2, trees_floored=15)),
    "k8": ("wcoj", SearchTally(
        rootings=16, modes_floored=90, searches_pruned=1,
        searches_completed=3, sj_pricings=2, trees_floored=15)),
}


def test_wcoj_price_floors_every_tree_but_the_greedy_one(cyclic_skew_pool):
    catalog, pool = cyclic_skew_pool
    planner = Planner(catalog, cyclic_execution="auto")
    searches = auto_searches = 0
    for tag, sql in pool:
        plan = planner.plan(sql)
        strategy, tally = POOL_TALLIES[tag]
        assert (plan.cyclic_strategy, plan.search_tally) == (strategy, tally)
        if strategy == "wcoj":
            assert tally.order_searches == 6
            assert tally.modes_floored == 6 * (tally.rootings - 1)
        searches += tally.order_searches
        auto_searches += planner.plan(
            sql, driver="auto").search_tally.order_searches
    # 1194 and 8502 when wcoj was priced after the sweep
    assert (searches, auto_searches) == (114, 672)


@pytest.mark.parametrize("driver", ["fixed", "auto"])
@pytest.mark.parametrize("skew", [None, 1.0], ids=["uniform", "skewed"])
def test_auto_resolves_to_wcoj_iff_its_price_beats_the_tree(skew, driver):
    """The wcoj price bounds the tree sweep but never changes the
    strategy decision: ``auto`` is exactly "the cheaper of the forced
    tree_filter plan and the wcoj price", and whichever it resolves to is
    bit-identical to forcing that strategy."""
    strategies = set()
    for shape, n, parsed, catalog in cyclic_scaling_suite(
            (4, 6), rows_per_relation=48, key_domain=(8, 24), seed=3,
            skew=skew):
        planner = Planner(catalog, driver=driver)
        auto, tree, wcoj = (planner.plan(parsed, cyclic_execution=knob)
                            for knob in ("auto", "tree_filter", "wcoj"))
        strategies.add(auto.cyclic_strategy)
        assert (auto.cyclic_strategy == "wcoj") \
            == (wcoj.predicted_cost < tree.predicted_cost), (shape, n)
        forced = wcoj if auto.cyclic_strategy == "wcoj" else tree
        assert decided(auto) == decided(forced), (shape, n)
    # skewed keys make wcoj win everywhere; uniform ones resolve both ways
    assert strategies == ({"wcoj"} if skew else {"tree_filter", "wcoj"})
