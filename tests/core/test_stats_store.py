"""The per-predicate statistics store: assembly, plan identity, scope.

Statistics belong to directed join predicates, so whatever shape a
consumer asks for — a rooting, a candidate spanning tree, bound
statistics — must assemble to exactly what measuring that shape from
scratch gives, plans must not depend on whether (or how warm) a store
sits behind the reader, and a write must reclaim only the entries that
read the written table.
"""

import threading

import numpy as np
import pytest

from repro import Planner, parse_query, stats_from_data
from repro.core.cyclic import decompose, enumerate_spanning_trees
from repro.core.lru import LRUCache
from repro.core.stats import StatsReader, relation_tokens
from repro.storage import Catalog
from repro.workloads.random_trees import random_join_tree

from tests.cyclic_joins import cyclic_scaling_suite
from tests.helpers import make_small_catalog
from tests.large_joins import large_join_catalog, scaling_suite


def _acyclic_cases():
    cases = [
        (f"figure10-{seed}", random_join_tree(max_nodes=10, seed=seed))
        for seed in (1, 2)
    ]
    cases += [
        (f"{shape}-{n}", query)
        for shape, n, query, _ in scaling_suite((6, 24), seed=3)
    ]
    return [
        pytest.param(
            query, large_join_catalog(query, rows_per_relation=96, seed=n),
            id=name,
        )
        for n, (name, query) in enumerate(cases)
    ]


def _cyclic_cases():
    return [
        pytest.param(parsed, catalog, id=f"{shape}-{n}")
        for shape, n, parsed, catalog in cyclic_scaling_suite(
            (4, 6), seed=5, rows_per_relation=96)
    ]


ACYCLIC = _acyclic_cases()
CYCLIC = _cyclic_cases()


def _candidate_rootings(parsed, max_trees=4):
    """Every rooting of the first few candidate spanning trees."""
    predicates = list(parsed.join_predicates)
    trees = enumerate_spanning_trees(
        list(parsed.relations), predicates, [0.0] * len(predicates),
        max_trees=max_trees,
    )
    for tree in trees:
        tree_predicates = [predicates[index] for index in tree]
        for root in parsed.relations:
            yield decompose(parsed, tree_predicates, root).query


def _assert_same_stats(assembled, reference):
    assert assembled.driver_size == reference.driver_size
    assert assembled.edge_stats == reference.edge_stats
    assert assembled.probe_costs == reference.probe_costs
    assert assembled.relation_sizes == reference.relation_sizes


def _assert_assembly_matches(catalog, query, rootings):
    """Cold store, warm store and no store all assemble each rooting to
    what measuring that rooting alone gives."""
    store = LRUCache(4096)
    tokens = relation_tokens(catalog, query)
    rootings = list(rootings)
    for label in ("cold", "warm", "none"):
        reader = StatsReader(
            catalog, *(() if label == "none" else (store, tokens))
        )
        misses = store.stats.misses
        for rooted in rootings:
            _assert_same_stats(
                reader.rooted_stats(rooted),
                stats_from_data(catalog, rooted),
            )
        if label == "warm":
            assert store.stats.misses == misses


# ----------------------------------------------------------------------
# (a) assembled statistics == per-shape measurement
# ----------------------------------------------------------------------


@pytest.mark.parametrize("query, catalog", ACYCLIC)
def test_every_rooting_assembles_to_its_own_measurement(query, catalog):
    _assert_assembly_matches(
        catalog, query, (query.rerooted(root) for root in query.relations),
    )


@pytest.mark.parametrize("parsed, catalog", CYCLIC)
def test_every_candidate_tree_assembles_to_its_own_measurement(parsed,
                                                               catalog):
    _assert_assembly_matches(catalog, parsed, _candidate_rootings(parsed))


def test_column_statistics_are_store_independent():
    query = random_join_tree(max_nodes=6, seed=4)
    catalog = large_join_catalog(query, rows_per_relation=64, seed=4)
    store = LRUCache(4096)
    stored = StatsReader(catalog, store=store,
                         tokens=relation_tokens(catalog, query))
    plain = StatsReader(catalog)
    for edge in query.edges:
        column = catalog.table(edge.child).column(edge.child_attr)
        assert stored.distinct(edge.child, edge.child_attr) \
            == plain.distinct(edge.child, edge.child_attr) \
            == len(np.unique(column))


# ----------------------------------------------------------------------
# (b) plans do not depend on the store
# ----------------------------------------------------------------------

PLAN_KNOBS = dict(driver="auto", cyclic_execution="auto", optimizer="auto")


def _decisions(plan):
    return (plan.query.root, tuple(plan.order), str(plan.mode),
            plan.predicted_cost, plan.cyclic_strategy,
            tuple(residual.key for residual in plan.residuals))


@pytest.mark.parametrize("query, catalog", ACYCLIC + CYCLIC)
def test_plans_identical_cold_warm_uncached_and_across_shards(query,
                                                              catalog):
    stored = Planner(catalog, stats_cache=True, **PLAN_KNOBS)
    plain = Planner(catalog, **PLAN_KNOBS)
    decisions = set()
    for partitioning in ("off", 4):
        misses = stored.stats_cache.stats.misses
        cold = stored.plan(query, partitioning=partitioning)
        warm = stored.plan(query, partitioning=partitioning)
        reference = plain.plan(query, partitioning=partitioning)
        assert cold.fingerprint() == warm.fingerprint() \
            == reference.fingerprint()
        assert cold.predicted_cost == warm.predicted_cost \
            == reference.predicted_cost
        decisions.add(_decisions(cold))
        if partitioning != "off":
            # statistics are layout-independent: the entries measured
            # unpartitioned serve every shard count
            assert cold.num_shards == 4
            assert stored.stats_cache.stats.misses == misses
    assert len(decisions) == 1


@pytest.mark.parametrize("partitioning", ["off", 4])
@pytest.mark.parametrize("query, catalog", ACYCLIC + CYCLIC)
def test_plan_stats_are_the_measurement_of_its_tree(query, catalog,
                                                    partitioning):
    """A plan carries exactly what measuring its planned tree (the
    winning rooting, or spanning tree) on its catalog gives."""
    plan = Planner(catalog, stats_cache=True, **PLAN_KNOBS).plan(
        query, partitioning=partitioning)
    _assert_same_stats(plan.stats, stats_from_data(plan.catalog, plan.query))


def test_two_aliases_of_one_table_share_entries():
    rng = np.random.default_rng(8)
    catalog = Catalog()
    catalog.add_table("P", {"k": rng.integers(0, 12, 80),
                            "j": rng.integers(0, 9, 80)})
    catalog.add_table("Q", {"k": rng.integers(0, 12, 60)})
    catalog.add_table("S", {"j": rng.integers(0, 9, 70)})
    sql = ("select * from P a, Q q, P c, S s "
           "where a.k = q.k and q.k = c.k and c.j = s.j")
    renamed = ("select * from P x, Q y, P z, S w "
               "where x.k = y.k and y.k = z.k and z.j = w.j")
    stored = Planner(catalog, stats_cache=True, **PLAN_KNOBS)
    cold = stored.plan(sql)
    # a.k -> q.k and c.k -> q.k read the same two table contents
    assert stored.stats_cache.stats.hits > 0
    misses = stored.stats_cache.stats.misses
    again = stored.plan(renamed)
    assert stored.stats_cache.stats.misses == misses
    reference = Planner(catalog, **PLAN_KNOBS).plan(sql)
    assert cold.fingerprint() == reference.fingerprint()
    assert cold.predicted_cost == reference.predicted_cost \
        == again.predicted_cost
    assert cold.order == reference.order
    # a selection is part of the alias's token: no aliasing across it
    stored.plan(sql + " and a.j = 3")
    assert stored.stats_cache.stats.misses > misses


# ----------------------------------------------------------------------
# (c) invalidation scope
# ----------------------------------------------------------------------

FOUR_WAY = ("select * from R1, R2, R3, R5 "
            "where R1.B = R2.B and R2.C = R3.C and R1.E = R5.E")


def test_write_reclaims_only_the_edges_touching_the_written_table():
    catalog = make_small_catalog()
    planner = Planner(catalog, stats_cache=True, driver="auto")
    stats = planner.stats_cache.stats

    def stored_r2_into_r3(plan):
        """What the store now answers for ``R2.C -> R3.C``."""
        return StatsReader(
            plan.catalog, store=planner.stats_cache,
            tokens=relation_tokens(catalog, parse_query(FOUR_WAY)),
        ).edge("R2", "C", "R3", "C")

    before = planner.plan(FOUR_WAY)
    assert (stats.hits, stats.misses) == (0, 6)  # 3 predicates x 2
    assert stored_r2_into_r3(before).m > 0.0

    # no R3 row matches any R2 row any more
    catalog.table("R3").column("C")[:] = 1_000
    catalog.invalidate_indexes("R3")
    hits, misses = stats.hits, stats.misses
    after = planner.plan(FOUR_WAY)
    # R2 -> R3 and R3 -> R2 re-measured; the R1-R2 and R1-R5 edges hit
    assert (stats.hits - hits, stats.misses - misses) == (4, 2)
    # ... and the two pre-write measurements were reclaimed, not kept
    assert (len(planner.stats_cache), stats.invalidations) == (6, 2)
    assert stored_r2_into_r3(after).m == 0.0

    fresh = Planner(catalog, driver="auto").plan(FOUR_WAY)
    assert after.fingerprint() == fresh.fingerprint()
    _assert_same_stats(after.stats, fresh.stats)


def test_replaced_table_never_serves_pre_write_statistics():
    catalog = make_small_catalog()
    planner = Planner(catalog, stats_cache=True)
    stale = planner.plan(FOUR_WAY).stats.m("R3")
    assert stale > 0.0
    catalog.add_table("R3", {"C": np.full(40, 1_000), "G": np.zeros(40, int)})
    assert planner.plan(FOUR_WAY).stats.m("R3") == 0.0


# ----------------------------------------------------------------------
# Concurrency: one store behind many planning threads
# ----------------------------------------------------------------------


def test_concurrent_planning_shares_single_flight_measurements():
    query = random_join_tree(max_nodes=9, seed=6)
    catalog = large_join_catalog(query, rows_per_relation=96, seed=6)
    reference = Planner(catalog, driver="auto").plan(query).fingerprint()
    planner = Planner(catalog, stats_cache=True, driver="auto")
    fingerprints, errors = [], []
    barrier = threading.Barrier(8)

    def work():
        try:
            barrier.wait()
            fingerprints.append(planner.plan(query).fingerprint())
        except Exception as error:  # surfaced below
            errors.append(error)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert set(fingerprints) == {reference}
    # every directed predicate was measured exactly once, by one thread
    store = planner.stats_cache
    assert store.stats.misses == len(store) == 2 * len(query.edges)
