"""Planner-level tests for first-class cyclic queries.

Cyclic :class:`ParsedQuery` objects flow through :meth:`Planner.plan`
directly (no manual ``spanning_tree_decomposition`` dance): the joint
spanning-tree + join-order search returns a residual-carrying
:class:`PhysicalPlan` that executes on merged and partitioned catalogs
alike, rehydrates from a :class:`PlanSpec`, and never costs more than
the greedy Kruskal baseline.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import (
    execute_cyclic,
    parse_query,
    spanning_tree_decomposition,
)
from repro.core.parser import ParseError
from repro.planner import Planner
from repro.storage import Catalog
from tests.cyclic_joins import (
    clique_query,
    cycle_query,
    cyclic_catalog,
    grid_query,
    spanning_tree_cap,
    to_sql,
)

TRIANGLE = (
    "select * from A, B, C "
    "where A.x = B.x and B.y = C.y and C.z = A.z"
)


@pytest.fixture
def triangle_catalog():
    rng = np.random.default_rng(5)
    catalog = Catalog()
    catalog.add_table("A", {"x": rng.integers(0, 6, 30),
                            "z": rng.integers(0, 6, 30)})
    catalog.add_table("B", {"x": rng.integers(0, 6, 25),
                            "y": rng.integers(0, 6, 25)})
    catalog.add_table("C", {"y": rng.integers(0, 6, 20),
                            "z": rng.integers(0, 6, 20)})
    return catalog


def sorted_rows(rows, relations):
    return sorted(zip(*(rows[rel].tolist() for rel in relations)))


def reference_rows(catalog, parsed, driver=None):
    """The greedy decomposition executed on the merged catalog."""
    plan = spanning_tree_decomposition(parsed, driver=driver)
    _, _, rows = execute_cyclic(catalog, plan, collect_output=True)
    return sorted_rows(rows, list(parsed.relations))


def test_cyclic_sql_plans_directly(triangle_catalog):
    plan = Planner(triangle_catalog).plan(TRIANGLE, mode="auto")
    assert plan.is_cyclic
    assert len(plan.residuals) == 1
    assert len(plan.residual_selectivities) == 1
    assert plan.query.num_relations == 3
    result = plan.execute(collect_output=True)
    expected = reference_rows(triangle_catalog, parse_query(TRIANGLE))
    assert sorted_rows(result.output_rows, ["A", "B", "C"]) == expected


def test_joint_never_costlier_than_greedy(triangle_catalog):
    planner = Planner(triangle_catalog, stats_cache=True)
    joint = planner.plan(TRIANGLE, mode="auto")
    with spanning_tree_cap(1):
        greedy = planner.plan(TRIANGLE, mode="auto")
    assert joint.predicted_cost <= greedy.predicted_cost
    greedy_result = greedy.execute(collect_output=True)
    joint_result = joint.execute(collect_output=True)
    assert sorted_rows(joint_result.output_rows, ["A", "B", "C"]) == \
        sorted_rows(greedy_result.output_rows, ["A", "B", "C"])


def test_cyclic_explain_and_fingerprint(triangle_catalog):
    planner = Planner(triangle_catalog, stats_cache=True)
    plan = planner.plan(TRIANGLE, mode="COM")
    assert "RESIDUAL" in plan.explain()
    assert plan.fingerprint() == planner.plan(TRIANGLE,
                                              mode="COM").fingerprint()


def test_cyclic_driver_auto_and_budget(triangle_catalog):
    planner = Planner(triangle_catalog, stats_cache=True,
                      planning_budget_ms=5_000)
    plan = planner.plan(TRIANGLE, mode="auto", optimizer="auto",
                        driver="auto")
    result = plan.execute(collect_output=True)
    expected = reference_rows(triangle_catalog, parse_query(TRIANGLE))
    assert sorted_rows(result.output_rows, ["A", "B", "C"]) == expected


def test_cyclic_partitioned_plan_matches_merged(triangle_catalog):
    rng = np.random.default_rng(9)
    catalog = Catalog()
    catalog.add_table("A", {"x": rng.integers(0, 8, 400),
                            "z": rng.integers(0, 8, 400)})
    catalog.add_table("B", {"x": rng.integers(0, 8, 350),
                            "y": rng.integers(0, 8, 350)})
    catalog.add_table("C", {"y": rng.integers(0, 8, 300),
                            "z": rng.integers(0, 8, 300)})
    merged = Planner(catalog, stats_cache=True).plan(TRIANGLE, mode="COM")
    reference = merged.execute(collect_output=True)
    for shards in (2, 8):
        planner = Planner(catalog, stats_cache=True, partitioning=shards)
        plan = planner.plan(TRIANGLE, mode="COM")
        assert plan.num_shards == shards
        result = plan.execute(collect_output=True)
        assert result.shards_used == shards
        assert result.output_size == reference.output_size
        assert sorted_rows(result.output_rows, ["A", "B", "C"]) == \
            sorted_rows(reference.output_rows, ["A", "B", "C"])
        assert result.counters.residual_checks == \
            reference.counters.residual_checks


def test_cyclic_rehydrate_round_trip(triangle_catalog):
    planner = Planner(triangle_catalog, stats_cache=True, partitioning=2)
    plan = planner.plan(TRIANGLE, mode="COM")
    spec = plan.to_spec(triangle_catalog.fingerprint())
    assert spec.residuals == plan.residuals
    rehydrated = planner.rehydrate(spec, parse_query(TRIANGLE),
                                   partitioning=2)
    assert rehydrated.fingerprint() == plan.fingerprint()
    assert rehydrated.execute().output_size == plan.execute().output_size


def test_acyclic_queries_unaffected(triangle_catalog):
    plan = Planner(triangle_catalog).plan(
        "select * from A, B where A.x = B.x"
    )
    assert not plan.is_cyclic
    assert plan.residuals == ()


def test_disconnected_still_rejected(triangle_catalog):
    with pytest.raises(ParseError, match="disconnected"):
        Planner(triangle_catalog).plan("select * from A, B, C where A.x = B.x")


def test_selections_push_down_on_cyclic(triangle_catalog):
    literal = int(triangle_catalog.table("A").column("x")[0])
    sql = TRIANGLE + f" and A.x = {literal}"
    plan = Planner(triangle_catalog, stats_cache=True).plan(sql, mode="COM")
    result = plan.execute(collect_output=True)
    a, b, c = (triangle_catalog.table(name) for name in "ABC")
    expected = sum(
        1
        for i in range(len(a)) if a.column("x")[i] == literal
        for j in range(len(b)) if a.column("x")[i] == b.column("x")[j]
        for k in range(len(c))
        if b.column("y")[j] == c.column("y")[k]
        and c.column("z")[k] == a.column("z")[i]
    )
    assert result.output_size == expected


def test_larger_generated_shapes_plan_and_execute():
    for parsed in (clique_query(5), grid_query(2, 3)):
        catalog = cyclic_catalog(parsed, rows_per_relation=40,
                                 key_domain=(4, 12), seed=1)
        planner = Planner(catalog, stats_cache=True)
        joint = planner.plan(parsed, mode="auto", optimizer="auto")
        with spanning_tree_cap(1):
            greedy = planner.plan(parsed, mode="auto", optimizer="auto")
        assert joint.predicted_cost <= greedy.predicted_cost
        assert joint.execute().output_size == greedy.execute().output_size
        # the SQL text path resolves to the same fingerprint
        via_sql = planner.plan(to_sql(parsed), mode="auto",
                               optimizer="auto")
        assert via_sql.fingerprint() == joint.fingerprint()


#: (parsed, rows, key domain, skew, seed): a skewed dense clique and
#: grid, where the worst-case-optimal operator wins
SKEWED = {
    "clique": (clique_query(8), 50, (3, 6), 1.2, 7),
    "grid": (grid_query(3, 3), 30, (4, 8), 0.8, 7),
}


def skewed_case(shape):
    parsed, rows, key_domain, skew, seed = SKEWED[shape]
    return parsed, cyclic_catalog(parsed, rows_per_relation=rows,
                                  key_domain=key_domain, seed=seed, skew=skew)


def test_wcoj_explain_presents_the_tree_as_recorded_not_run():
    parsed, catalog = skewed_case("clique")
    plan = Planner(catalog).plan(parsed)
    assert plan.cyclic_strategy == "wcoj"
    lines = plan.explain().splitlines()
    assert lines[0] == (f"PhysicalPlan strategy=wcoj "
                        f"predicted_cost={plan.predicted_cost:,.0f}")
    assert lines[1] == ("  recorded spanning tree (the residual split, not "
                        f"executed): mode={plan.mode} driver={plan.query.root}")
    assert lines[2].startswith("  SCAN ") and "JOIN" in lines[3]
    assert lines[-1].endswith(" trees_floored=15")
    tree = Planner(catalog, cyclic_execution="tree_filter").plan(parsed)
    assert tree.explain().startswith(
        f"PhysicalPlan mode={tree.mode} driver={tree.query.root} ")
    assert tree.explain().endswith(" trees_floored=0")


def test_wcoj_bounds_the_peak_on_a_skewed_clique():
    """Same answer, at most half the tree+filter peak intermediate."""
    parsed, catalog = skewed_case("clique")
    results = {
        strategy: Planner(catalog, cyclic_execution=strategy).plan(
            parsed).execute()
        for strategy in ("tree_filter", "wcoj")
    }
    tree, wcoj = results["tree_filter"], results["wcoj"]
    assert wcoj.output_size == tree.output_size
    assert 2 * wcoj.counters.peak_intermediate_tuples \
        <= tree.counters.peak_intermediate_tuples


@pytest.mark.parametrize("shape", sorted(SKEWED))
def test_auto_picks_the_predicted_cheaper_strategy(shape):
    parsed, catalog = skewed_case(shape)
    costs = {strategy: Planner(catalog, cyclic_execution=strategy).plan(
        parsed).predicted_cost for strategy in ("tree_filter", "wcoj")}
    auto = Planner(catalog, cyclic_execution="auto").plan(parsed)
    assert auto.cyclic_strategy == min(costs, key=costs.__getitem__) == "wcoj"


def test_joint_search_beats_greedy_on_some_shape():
    """The joint tree + order search starts from the greedy tree, so it
    never costs more — and on generated shapes it finds cheaper trees."""
    improved = []
    for parsed in (cycle_query(12), grid_query(3, 4), clique_query(8)):
        catalog = cyclic_catalog(parsed, seed=7)
        planner = Planner(catalog, stats_cache=True, mode="auto",
                          optimizer="auto")
        joint = planner.plan(parsed)
        with spanning_tree_cap(1):
            greedy = planner.plan(parsed)
        assert joint.predicted_cost <= greedy.predicted_cost
        improved.append(joint.predicted_cost < greedy.predicted_cost)
    assert any(improved)


def test_rehydrate_refuses_a_spec_that_drops_a_residual():
    """A shipped spec missing one residual leaves four predicates for a
    four-relation tree.  Rooting them used to skip the cycle-closing
    one without a word (1 666 rows instead of 265); it is refused."""
    import dataclasses

    rng = np.random.default_rng(0)
    catalog = Catalog()
    for name in "abcd":
        catalog.add_table(name, {col: rng.integers(0, 6, 60) for col in "xyz"})
    sql = ("SELECT * FROM a, b, c, d WHERE a.x = b.x AND b.y = c.y "
           "AND c.z = d.z AND d.x = a.y AND a.z = c.x AND b.z = d.y")
    planner = Planner(catalog, cyclic_execution="tree_filter")
    plan = planner.plan(sql)
    assert plan.execute().output_size == 265
    spec = dataclasses.replace(
        plan.to_spec(catalog.fingerprint()), residuals=plan.residuals[1:],
        residual_selectivities=plan.residual_selectivities[1:])
    with pytest.raises(ValueError, match="^PRED001: 4 tree predicates over "
                                         "4 relations"):
        planner.rehydrate(spec, sql)


#: the triangle's factorized runs, per mode: (output size, hash probes,
#: tuples generated, residual checks, semi-join probes, bitvector probes,
#: peak intermediate tuples) — the same on either kernel plane and any
#: shard count
FACTORIZED_TRIANGLE = {
    "COM": (70, 60, 672, 441, 0, 0, 441),
    "BVP+COM": (70, 60, 672, 441, 0, 60, 441),
    "SJ+COM": (70, 60, 672, 441, 60, 0, 441),
}


@pytest.mark.parametrize("shards", [1, 2, 8])
@pytest.mark.parametrize("execution", ["vectorized", "interpreted"])
@pytest.mark.parametrize("mode", sorted(FACTORIZED_TRIANGLE))
def test_factorized_cyclic_run_weighs_subtrees_once(triangle_catalog, mode,
                                                    execution, shards):
    """The tree join is counted once, after the residual push-down: one
    ``subtree_weights`` pass serves the count and the expansion (the
    run weighed twice, once for a count it then overwrote)."""
    from repro.engine.factorized import FactorizedResult

    plan = Planner(triangle_catalog, partitioning=shards,
                   execution=execution).plan(
        TRIANGLE, mode=mode, cyclic_execution="tree_filter")
    assert plan.is_cyclic and plan.num_shards == shards
    expected = reference_rows(triangle_catalog, parse_query(TRIANGLE))
    for collect in (True, False):
        with mock.patch.object(
                FactorizedResult, "subtree_weights", autospec=True,
                side_effect=FactorizedResult.subtree_weights) as weigh:
            result = plan.execute(collect_output=collect)
        assert weigh.call_count == 1
        counters = result.counters
        assert (result.output_size, counters.hash_probes,
                counters.tuples_generated, counters.residual_checks,
                counters.semijoin_probes, counters.bitvector_probes,
                counters.peak_intermediate_tuples) \
            == FACTORIZED_TRIANGLE[mode]
        if collect:
            assert sorted_rows(result.output_rows, ["A", "B", "C"]) \
                == expected
