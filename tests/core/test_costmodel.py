"""Cost-model tests: survival probabilities, Eq. (1), STD, plan costs.

Every closed-form expression written out in Section 3.3 of the paper is
checked verbatim against the implementation.
"""

import pytest

from repro.core import CostWeights, plan_cost
from repro.core.costmodel import (
    com_plan_cost,
    com_probes_per_join,
    expected_output_size,
    std_plan_cost,
    std_probes_per_join,
)
from repro.modes import ExecutionMode

from tests.helpers import RUNNING_EXAMPLE_FO as FO
from tests.helpers import RUNNING_EXAMPLE_M as M
from tests.helpers import survival_probability

N = 1000.0
ORDER = ["R2", "R3", "R5", "R4", "R6"]


class TestSurvivalProbability:
    def test_single_relation(self, running_example_query, running_example_stats):
        got = survival_probability(
            running_example_query, running_example_stats, {"R1", "R2"}
        )
        assert got == pytest.approx(M["R2"])

    def test_chain(self, running_example_query, running_example_stats):
        # m_{1,2,3} = m2 (1 - (1 - m3)^fo2)
        got = survival_probability(
            running_example_query, running_example_stats, {"R1", "R2", "R3"}
        )
        expected = M["R2"] * (1 - (1 - M["R3"]) ** FO["R2"])
        assert got == pytest.approx(expected)

    def test_branching(self, running_example_query, running_example_stats):
        # m_{1,2,3,4} = m2 (1 - (1 - m3 m4)^fo2)  (paper, Section 3.3)
        got = survival_probability(
            running_example_query, running_example_stats,
            {"R1", "R2", "R3", "R4"},
        )
        expected = M["R2"] * (1 - (1 - M["R3"] * M["R4"]) ** FO["R2"])
        assert got == pytest.approx(expected)

    def test_subtree_rooted_below_driver(
        self, running_example_query, running_example_stats
    ):
        got = survival_probability(
            running_example_query, running_example_stats,
            {"R2", "R3"}, subtree_root="R2",
        )
        expected = M["R2"] * (1 - (1 - M["R3"]) ** FO["R2"])
        assert got == pytest.approx(expected)

    def test_repeated_member_counts_once(
        self, running_example_query, running_example_stats
    ):
        members = ["R1", "R2", "R3", "R4"]
        got = survival_probability(
            running_example_query, running_example_stats,
            members + ["R3", "R3", "R2"],
        )
        assert got == survival_probability(
            running_example_query, running_example_stats, members
        )

    def test_root_must_be_member(
        self, running_example_query, running_example_stats
    ):
        with pytest.raises(ValueError, match="not in members"):
            survival_probability(
                running_example_query, running_example_stats, {"R2"}
            )

    def test_bounded_by_unit_interval(
        self, running_example_query, running_example_stats
    ):
        for members in (
            {"R1", "R2"}, {"R1", "R5", "R6"},
            {"R1", "R2", "R3", "R4", "R5", "R6"},
        ):
            value = survival_probability(
                running_example_query, running_example_stats, members
            )
            assert 0.0 <= value <= 1.0


class TestEquationOne:
    def test_full_running_example(
        self, running_example_query, running_example_stats
    ):
        """The five probe counts computed in Section 3.3, verbatim."""
        probes = com_probes_per_join(
            running_example_query, running_example_stats, ORDER
        )
        assert probes["R2"] == pytest.approx(N)
        assert probes["R3"] == pytest.approx(N * M["R2"] * FO["R2"])
        assert probes["R5"] == pytest.approx(
            N * M["R2"] * (1 - (1 - M["R3"]) ** FO["R2"])
        )
        assert probes["R4"] == pytest.approx(
            N * M["R2"] * M["R5"] * FO["R2"] * M["R3"]
        )
        assert probes["R6"] == pytest.approx(
            N * M["R2"] * (1 - (1 - M["R3"] * M["R4"]) ** FO["R2"])
            * M["R5"] * FO["R5"]
        )

    def test_com_probes_order_dependent_but_set_consistent(
        self, running_example_query, running_example_stats
    ):
        """Probes into the final relation depend only on the prefix set."""
        q, st = running_example_query, running_example_stats
        orders = [o for o in q.all_orders() if o[-1] == "R6"]
        values = {
            round(com_probes_per_join(q, st, order)["R6"], 9)
            for order in orders
        }
        assert len(values) == 1

    def test_invalid_order_rejected(
        self, running_example_query, running_example_stats
    ):
        with pytest.raises(ValueError):
            com_probes_per_join(
                running_example_query, running_example_stats,
                ["R3", "R2", "R4", "R5", "R6"],
            )


class TestStdModel:
    def test_probes_are_prefix_products(
        self, running_example_query, running_example_stats
    ):
        probes = std_probes_per_join(
            running_example_query, running_example_stats, ORDER
        )
        tuples = N
        for relation in ORDER:
            assert probes[relation] == pytest.approx(tuples)
            tuples *= M[relation] * FO[relation]

    def test_com_never_exceeds_std(
        self, running_example_query, running_example_stats
    ):
        for order in running_example_query.all_orders():
            com = com_probes_per_join(
                running_example_query, running_example_stats, order
            )
            std = std_probes_per_join(
                running_example_query, running_example_stats, order
            )
            for relation in order:
                assert com[relation] <= std[relation] + 1e-9

    def test_equal_when_all_fanouts_one(
        self, running_example_query, running_example_stats
    ):
        """Paper: the two expressions coincide when every fo = 1."""
        st = running_example_stats
        for relation in ("R2", "R3", "R4", "R5", "R6"):
            st = st.with_edge(relation, st.stats(relation).__class__(
                m=st.m(relation), fo=1.0
            ))
        com = com_probes_per_join(running_example_query, st, ORDER)
        std = std_probes_per_join(running_example_query, st, ORDER)
        for relation in ORDER:
            assert com[relation] == pytest.approx(std[relation])


class TestPlanCosts:
    def test_expected_output_size(
        self, running_example_query, running_example_stats
    ):
        expected = N
        for relation in ("R2", "R3", "R4", "R5", "R6"):
            expected *= M[relation] * FO[relation]
        assert expected_output_size(
            running_example_query, running_example_stats
        ) == pytest.approx(expected)

    def test_com_plan_cost_components(
        self, running_example_query, running_example_stats
    ):
        cost = com_plan_cost(
            running_example_query, running_example_stats, ORDER,
            flat_output=True,
        )
        probes = com_probes_per_join(
            running_example_query, running_example_stats, ORDER
        )
        assert cost.hash_probes == pytest.approx(sum(probes.values()))
        assert cost.hash_probes_by_relation == pytest.approx(probes)
        assert cost.bitvector_probes == 0
        assert cost.semijoin_probes == 0

    def test_flat_output_adds_expansion(
        self, running_example_query, running_example_stats
    ):
        flat = com_plan_cost(
            running_example_query, running_example_stats, ORDER,
            flat_output=True,
        )
        factorized = com_plan_cost(
            running_example_query, running_example_stats, ORDER,
            flat_output=False,
        )
        assert flat.tuples_generated - factorized.tuples_generated == (
            pytest.approx(expected_output_size(
                running_example_query, running_example_stats
            ))
        )

    def test_std_plan_cost_counts_generation(
        self, running_example_query, running_example_stats
    ):
        cost = std_plan_cost(
            running_example_query, running_example_stats, ORDER
        )
        tuples, generated = N, 0.0
        for relation in ORDER:
            tuples *= M[relation] * FO[relation]
            generated += tuples
        assert cost.tuples_generated == pytest.approx(generated)

    def test_weights_applied(self):
        from repro.core.costmodel import PlanCost

        cost = PlanCost(
            hash_probes=100, bitvector_probes=10,
            semijoin_probes=20, tuples_generated=140,
        )
        weights = CostWeights()
        assert cost.total(weights) == pytest.approx(
            100 + 5 + 10 + 10
        )

    def test_plan_cost_dispatcher_covers_all_modes(
        self, running_example_query, running_example_stats
    ):
        for mode in ExecutionMode.all_modes():
            cost = plan_cost(
                running_example_query, running_example_stats, ORDER, mode
            )
            assert cost.hash_probes > 0
            assert cost.total() > 0

    def test_plan_cost_add_accumulates(self):
        from repro.core.costmodel import PlanCost

        a = PlanCost(hash_probes=1, hash_probes_by_relation={"X": 1})
        b = PlanCost(hash_probes=2, hash_probes_by_relation={"X": 2, "Y": 3})
        a.add(b)
        assert a.hash_probes == 3
        assert a.hash_probes_by_relation == {"X": 3, "Y": 3}
