"""BVP cost-model tests against the Section 3.5 closed forms."""

import pytest

from repro.core.costmodel import (
    bvp_plan_cost,
    com_probes_per_join,
    std_probes_per_join,
)

from tests.helpers import RUNNING_EXAMPLE_FO as FO
from tests.helpers import RUNNING_EXAMPLE_M as M

N = 1000.0
EPS = 0.05
ORDER = ["R2", "R3", "R5", "R4", "R6"]


def test_bvp_std_bitvector_probes_formula(
    running_example_query, running_example_stats
):
    """The bitvector-probe expression of Section 3.5, verbatim."""
    cost = bvp_plan_cost(
        running_example_query, running_example_stats, ORDER,
        eps=EPS, factorized=False,
    )
    expected = N * (
        1
        + (M["R2"] + EPS)
        + M["R2"] * (M["R5"] + EPS) * FO["R2"]
        + M["R2"] * (M["R5"] + EPS) * FO["R2"] * (M["R3"] + EPS)
        + M["R2"] * M["R5"] * FO["R2"] * M["R3"] * FO["R3"]
        * (M["R4"] + EPS) * FO["R5"]
    )
    assert cost.bitvector_probes == pytest.approx(expected)


def test_bvp_std_hash_probes_formula(
    running_example_query, running_example_stats
):
    """The hash-probe expression of Section 3.5, verbatim."""
    cost = bvp_plan_cost(
        running_example_query, running_example_stats, ORDER,
        eps=EPS, factorized=False,
    )
    expected = N * (
        (M["R2"] + EPS) * (M["R5"] + EPS)
        + M["R2"] * (M["R5"] + EPS) * FO["R2"] * (M["R3"] + EPS) * (M["R4"] + EPS)
        + M["R2"] * (M["R5"] + EPS) * FO["R2"] * M["R3"] * (M["R4"] + EPS) * FO["R3"]
        + M["R2"] * M["R5"] * FO["R2"] * M["R3"] * (M["R4"] + EPS)
        * FO["R3"] * FO["R5"] * (M["R6"] + EPS)
        + M["R2"] * FO["R2"] * M["R3"] * FO["R3"] * M["R4"] * FO["R4"]
        * M["R5"] * FO["R5"] * (M["R6"] + EPS)
    )
    assert cost.hash_probes == pytest.approx(expected)


def test_bvp_com_r5_probe_count(
    running_example_query, running_example_stats
):
    """Section 3.5's COM+BVP probe count into R5."""
    cost = bvp_plan_cost(
        running_example_query, running_example_stats, ORDER,
        eps=EPS, factorized=True,
    )
    expected = N * M["R2"] * (M["R5"] + EPS) * (
        1 - (1 - M["R3"] * (M["R4"] + EPS)) ** FO["R2"]
    )
    assert cost.hash_probes_by_relation["R5"] == pytest.approx(expected)


def test_eps_zero_reduces_hash_probes_to_base_models(
    running_example_query, running_example_stats
):
    """With a perfect bitvector, BVP hash probes shrink below the base
    model's (tuples are pruned before probing) and never exceed them."""
    q, st = running_example_query, running_example_stats
    std_cost = bvp_plan_cost(q, st, ORDER, eps=0.0, factorized=False)
    std_base = std_probes_per_join(q, st, ORDER)
    for relation in ORDER:
        assert (
            std_cost.hash_probes_by_relation[relation]
            <= std_base[relation] + 1e-9
        )
    com_cost = bvp_plan_cost(q, st, ORDER, eps=0.0, factorized=True)
    com_base = com_probes_per_join(q, st, ORDER)
    for relation in ORDER:
        assert (
            com_cost.hash_probes_by_relation[relation]
            <= com_base[relation] + 1e-9
        )


def test_higher_eps_means_more_hash_probes(
    running_example_query, running_example_stats
):
    q, st = running_example_query, running_example_stats
    costs = [
        bvp_plan_cost(q, st, ORDER, eps=eps, factorized=False).hash_probes
        for eps in (0.0, 0.05, 0.2)
    ]
    assert costs[0] < costs[1] < costs[2]


def test_eps_one_saturates_to_std(
    running_example_query, running_example_stats
):
    """A useless bitvector (all bits set) prunes nothing."""
    q, st = running_example_query, running_example_stats
    cost = bvp_plan_cost(q, st, ORDER, eps=1.0, factorized=False)
    base = std_probes_per_join(q, st, ORDER)
    for relation in ORDER:
        assert cost.hash_probes_by_relation[relation] == pytest.approx(
            base[relation]
        )


def test_bvp_com_flat_output_expansion(
    running_example_query, running_example_stats
):
    from repro.core.costmodel import expected_output_size

    q, st = running_example_query, running_example_stats
    flat = bvp_plan_cost(q, st, ORDER, eps=EPS, factorized=True,
                         flat_output=True)
    fact = bvp_plan_cost(q, st, ORDER, eps=EPS, factorized=True,
                         flat_output=False)
    assert flat.tuples_generated - fact.tuples_generated == pytest.approx(
        expected_output_size(q, st)
    )


def test_bvp_com_price_independent_of_memo_state():
    """A BVP+COM plan's price must not depend on which subset tables a
    search already filled: the search multiplies pseudo children in
    declared order, so pricing must too, or a shared memo mixes two
    orders (one ulp apart on e.g. seeds 183 and 269)."""
    from repro.core import exhaustive_optimal, plan_cost
    from repro.core.costmodel import CostMemo
    from repro.modes import ExecutionMode
    from repro.workloads.random_trees import random_join_tree, random_stats

    mode = ExecutionMode.BVP_COM
    for seed in range(300):
        query = random_join_tree(max_nodes=9, seed=seed)
        stats = random_stats(query, (0.05, 0.9), seed=seed + 100)
        memo = CostMemo(query, stats)
        order = exhaustive_optimal(query, stats, mode=mode, memo=memo).order
        fresh = plan_cost(query, stats, order, mode, memo=None)
        shared = plan_cost(query, stats, order, mode, memo=memo)
        assert shared == fresh, seed
