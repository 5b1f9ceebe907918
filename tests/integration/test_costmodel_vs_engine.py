"""Integration: the analytic cost model predicts the engine's probes.

On synthetic data with measured statistics, expected probe counts from
Eq. (1) / the STD formula must track the engine's actual counters
closely (they are exact in expectation; finite-sample noise only).
"""

import pytest

from repro.core import stats_from_data
from repro.core.costmodel import (
    com_probes_per_join,
    expected_output_size,
    std_probes_per_join,
)
from repro.engine import execute
from repro.modes import ExecutionMode
from repro.workloads import generate_dataset, snowflake, specs_from_ranges


@pytest.fixture(scope="module")
def dataset():
    query = snowflake(2, 2)
    specs = specs_from_ranges(query, (0.2, 0.6), (2.0, 5.0), seed=21)
    return generate_dataset(query, 6000, specs, seed=21), query


def test_com_probe_prediction(dataset):
    data, query = dataset
    stats = stats_from_data(data.catalog, query)
    order = list(query.non_root_relations)
    predicted = com_probes_per_join(query, stats, order)
    result = execute(data.catalog, query, order, ExecutionMode.COM,
                     flat_output=False)
    for relation in order:
        actual = result.counters.hash_probes_by_relation[relation]
        assert actual == pytest.approx(predicted[relation], rel=0.15), relation


def test_std_probe_prediction(dataset):
    data, query = dataset
    stats = stats_from_data(data.catalog, query)
    order = list(query.non_root_relations)
    predicted = std_probes_per_join(query, stats, order)
    result = execute(data.catalog, query, order, ExecutionMode.STD,
                     flat_output=False)
    for relation in order:
        actual = result.counters.hash_probes_by_relation[relation]
        assert actual == pytest.approx(predicted[relation], rel=0.15), relation


def test_output_size_prediction(dataset):
    data, query = dataset
    stats = stats_from_data(data.catalog, query)
    predicted = expected_output_size(query, stats)
    result = execute(data.catalog, query, mode=ExecutionMode.COM,
                     flat_output=False)
    assert result.output_size == pytest.approx(predicted, rel=0.2)


def test_sj_probe_prediction(dataset):
    """Phase-1 semi-join probes and phase-2 probes per the SJ model."""
    from repro.core.costmodel_sj import sj_plan_cost
    from repro.core.optimizer import optimize_sj

    data, query = dataset
    stats = stats_from_data(data.catalog, query)
    plan = optimize_sj(query, stats, factorized=True)
    predicted = sj_plan_cost(query, stats, plan.order, factorized=True,
                             flat_output=False,
                             child_orders=plan.child_orders)
    result = execute(data.catalog, query, plan.order, ExecutionMode.SJ_COM,
                     flat_output=False, child_orders=plan.child_orders)
    assert result.counters.semijoin_probes == pytest.approx(
        predicted.semijoin_probes, rel=0.15
    )
    assert result.counters.hash_probes == pytest.approx(
        predicted.hash_probes, rel=0.2
    )


def test_bvp_probe_prediction(dataset):
    """BVP probe counts track the Section 3.5 model with the measured
    bitvector false-positive rate."""
    from repro.core.costmodel import bvp_plan_cost
    from repro.engine.bitvector import BitvectorFilter

    data, query = dataset
    stats = stats_from_data(data.catalog, query)
    order = list(query.non_root_relations)
    # Measure a representative eps from one relation's filter.
    first = order[0]
    edge = query.edge_to(first)
    keys = data.catalog.table(first).column(edge.child_attr)
    eps = BitvectorFilter(keys).fill_fraction
    predicted = bvp_plan_cost(query, stats, order, eps=eps, factorized=True,
                              flat_output=False)
    result = execute(data.catalog, query, order, ExecutionMode.BVP_COM,
                     flat_output=False)
    assert result.counters.bitvector_probes == pytest.approx(
        predicted.bitvector_probes, rel=0.25
    )
    assert result.counters.hash_probes == pytest.approx(
        predicted.hash_probes, rel=0.25
    )
