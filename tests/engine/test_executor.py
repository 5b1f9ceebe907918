"""Executor tests: correctness, counters, budget, output handling."""

import numpy as np
import pytest

from repro.core import JoinEdge, JoinQuery
from repro.engine import BudgetExceededError, execute
from repro.modes import ExecutionMode
from repro.storage import Catalog

from tests.helpers import (
    brute_force_join,
    make_running_example_query,
    make_small_catalog,
    result_tuples,
)

ORDERS = [
    ["R2", "R3", "R4", "R5", "R6"],
    ["R5", "R2", "R6", "R4", "R3"],
    ["R2", "R5", "R3", "R6", "R4"],
]


@pytest.fixture(scope="module")
def catalog():
    return make_small_catalog()


@pytest.fixture(scope="module")
def query():
    return make_running_example_query()


@pytest.fixture(scope="module")
def expected(catalog, query):
    return brute_force_join(catalog, query)


class TestCorrectness:
    @pytest.mark.parametrize("mode", ExecutionMode.all_modes())
    def test_matches_brute_force(self, catalog, query, expected, mode):
        result = execute(catalog, query, ORDERS[0], mode,
                         flat_output=True, collect_output=True)
        assert result_tuples(result, query) == expected
        assert result.output_size == len(expected)

    @pytest.mark.parametrize("order", ORDERS)
    def test_order_independent_results(self, catalog, query, expected, order):
        for mode in (ExecutionMode.COM, ExecutionMode.BVP_STD,
                     ExecutionMode.SJ_COM):
            result = execute(catalog, query, order, mode,
                             flat_output=True, collect_output=True)
            assert result_tuples(result, query) == expected

    def test_default_order_is_declaration_order(self, catalog, query):
        result = execute(catalog, query, mode=ExecutionMode.COM,
                         flat_output=False)
        assert result.order == query.non_root_relations

    def test_invalid_order_rejected(self, catalog, query):
        with pytest.raises(ValueError, match="invalid join order"):
            execute(catalog, query, ["R3", "R2", "R4", "R5", "R6"],
                    ExecutionMode.COM)

    def test_factorized_output_counts_without_expansion(
        self, catalog, query, expected
    ):
        result = execute(catalog, query, ORDERS[0], ExecutionMode.COM,
                         flat_output=False)
        assert result.output_size == len(expected)
        assert result.output_rows is None
        assert result.factorized is not None
        flat = result.factorized.expand_all()
        assert len(flat["R1"]) == len(expected)


class TestCounters:
    def test_com_fewer_probes_than_std(self, catalog, query):
        std = execute(catalog, query, ORDERS[0], ExecutionMode.STD,
                      flat_output=False)
        com = execute(catalog, query, ORDERS[0], ExecutionMode.COM,
                      flat_output=False)
        assert com.counters.hash_probes < std.counters.hash_probes

    def test_first_probe_count_equals_driver_size(self, catalog, query):
        result = execute(catalog, query, ORDERS[0], ExecutionMode.COM,
                         flat_output=False)
        assert result.counters.hash_probes_by_relation["R2"] == len(
            catalog.table("R1")
        )

    def test_bvp_counts_bitvector_probes(self, catalog, query):
        result = execute(catalog, query, ORDERS[0], ExecutionMode.BVP_COM,
                         flat_output=False)
        assert result.counters.bitvector_probes > 0
        base = execute(catalog, query, ORDERS[0], ExecutionMode.COM,
                       flat_output=False)
        assert (result.counters.hash_probes
                <= base.counters.hash_probes)

    def test_sj_counts_semijoin_probes(self, catalog, query):
        result = execute(catalog, query, ORDERS[0], ExecutionMode.SJ_STD,
                         flat_output=False)
        assert result.counters.semijoin_probes > 0

    def test_std_generation_counts_intermediates(self, catalog, query):
        result = execute(catalog, query, ORDERS[0], ExecutionMode.STD,
                         flat_output=False)
        assert result.counters.tuples_generated >= result.output_size

    def test_weighted_cost_formula(self, catalog, query):
        result = execute(catalog, query, ORDERS[0], ExecutionMode.SJ_COM,
                         flat_output=True)
        counters = result.counters
        expected = (
            counters.hash_probes
            + 0.5 * counters.bitvector_probes
            + 0.5 * counters.semijoin_probes
            + counters.tuples_generated / 14.0
        )
        assert result.weighted_cost() == pytest.approx(expected)

    def test_com_expansion_counted_in_generation(self, catalog, query,
                                                 expected):
        flat = execute(catalog, query, ORDERS[0], ExecutionMode.COM,
                       flat_output=True)
        fact = execute(catalog, query, ORDERS[0], ExecutionMode.COM,
                       flat_output=False)
        assert (
            flat.counters.tuples_generated
            - fact.counters.tuples_generated
        ) == len(expected)


class TestBudget:
    def test_std_budget_exceeded(self, catalog, query):
        with pytest.raises(BudgetExceededError) as excinfo:
            execute(catalog, query, ORDERS[0], ExecutionMode.STD,
                    max_intermediate_tuples=100)
        assert excinfo.value.budget == 100
        assert excinfo.value.size > 100

    def test_com_expansion_budget(self, catalog, query, expected):
        assert len(expected) > 50
        with pytest.raises(BudgetExceededError):
            execute(catalog, query, ORDERS[0], ExecutionMode.COM,
                    flat_output=True, max_intermediate_tuples=50)

    def test_factorized_output_within_budget(self, catalog, query):
        # Without expansion the factorized result is tiny.
        result = execute(catalog, query, ORDERS[0], ExecutionMode.COM,
                         flat_output=False, max_intermediate_tuples=5000)
        assert result.output_size > 5000 // 2


class TestEdgeCases:
    def test_empty_driver(self):
        catalog = Catalog()
        catalog.add_table("A", {"k": np.empty(0, dtype=np.int64)})
        catalog.add_table("B", {"k": [1, 2]})
        query = JoinQuery("A", [JoinEdge("A", "B", "k", "k")])
        for mode in ExecutionMode.all_modes():
            result = execute(catalog, query, ["B"], mode,
                             flat_output=True, collect_output=True)
            assert result.output_size == 0

    def test_no_matches_anywhere(self):
        catalog = Catalog()
        catalog.add_table("A", {"k": [1, 2, 3]})
        catalog.add_table("B", {"k": [9, 9]})
        query = JoinQuery("A", [JoinEdge("A", "B", "k", "k")])
        for mode in ExecutionMode.all_modes():
            result = execute(catalog, query, ["B"], mode,
                             flat_output=True, collect_output=True)
            assert result.output_size == 0

    @pytest.mark.parametrize("execution", ["vectorized", "interpreted"])
    @pytest.mark.parametrize("mode", ["STD", "COM", "BVP+STD", "BVP+COM"])
    def test_empty_answer_of_a_planned_four_way_join(self, mode, execution):
        """``A.x = B.x AND A.y = C.y AND A.x = D.x`` with ``A.y = A.x``
        and the ``B`` and ``C`` keys on disjoint halves of ``A``'s
        domain: the answer is empty, but no single edge's statistics say
        so.  An intermediate that empties part-way (a join step that
        matches nothing, or a bitvector prefilter that passes nothing)
        ends the planned run with an empty, well-formed answer."""
        from repro import QuerySession

        rng = np.random.default_rng(0)
        x = rng.integers(0, 50, 200)
        catalog = Catalog()
        catalog.add_table("A", {"x": x, "y": x.copy()})
        catalog.add_table("B", {"x": rng.integers(0, 25, 200)})
        catalog.add_table("C", {"y": rng.integers(25, 50, 200)})
        catalog.add_table("D", {"x": rng.integers(0, 50, 200)})
        report = QuerySession(catalog, execution=execution).execute(
            "SELECT * FROM A, B, C, D WHERE A.x = B.x AND A.y = C.y "
            "AND A.x = D.x", mode=mode, collect_output=True)
        assert report.ok
        assert report.result.output_size == 0
        assert all(len(rows) == 0
                   for rows in report.result.output_rows.values())

    def test_single_join_cross_like_fanout(self):
        catalog = Catalog()
        catalog.add_table("A", {"k": [7, 7]})
        catalog.add_table("B", {"k": [7, 7, 7]})
        query = JoinQuery("A", [JoinEdge("A", "B", "k", "k")])
        for mode in ExecutionMode.all_modes():
            result = execute(catalog, query, ["B"], mode,
                             flat_output=True, collect_output=True)
            assert result.output_size == 6

    def test_mode_accepts_string(self, catalog, query):
        result = execute(catalog, query, ORDERS[0], "SJ+COM",
                         flat_output=False)
        assert result.mode is ExecutionMode.SJ_COM


FLAT_MODES = [ExecutionMode.STD, ExecutionMode.BVP_STD, ExecutionMode.SJ_STD]


@pytest.mark.parametrize("mode", FLAT_MODES)
@pytest.mark.parametrize("order", ORDERS)
def test_flat_run_without_identity_driver_matches_explicit_rows(
        catalog, query, mode, order):
    """Driving every root row implicitly (no ``arange`` driver, the
    first step probing the root key column itself) yields the rows and
    counters of an explicit all-rows driver set."""
    implicit = execute(catalog, query, order, mode, collect_output=True)
    explicit = execute(catalog, query, order, mode, collect_output=True,
                       driver_rows=np.arange(len(catalog.table("R1"))))
    assert implicit.counters == explicit.counters
    assert implicit.output_size == explicit.output_size
    assert list(implicit.output_rows) == list(explicit.output_rows)
    for relation, rows in explicit.output_rows.items():
        np.testing.assert_array_equal(implicit.output_rows[relation], rows)


@pytest.mark.parametrize("mode", FLAT_MODES)
@pytest.mark.parametrize("order", ORDERS)
def test_uncollected_flat_run_counts_its_last_step(catalog, query, mode,
                                                   order):
    """Without collected rows the last step counts its matches instead
    of materializing them: same output size, same counters."""
    counted = execute(catalog, query, order, mode)
    collected = execute(catalog, query, order, mode, collect_output=True)
    assert counted.output_rows is None
    assert counted.output_size == collected.output_size
    assert counted.counters == collected.counters
