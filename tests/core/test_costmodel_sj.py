"""SJ cost-model tests: Theorems 3.4 and 3.5, phase-1 probe counts."""

import pytest

from repro.core.costmodel_sj import (
    adjusted_fanout,
    adjusted_match_probability,
    reduction_ratios,
    sj_phase1_cost,
    sj_phase2_fanouts,
    sj_plan_cost,
)

from tests.helpers import RUNNING_EXAMPLE_FO as FO
from tests.helpers import RUNNING_EXAMPLE_M as M


class TestTheorem34:
    def test_formulas(self):
        m, fo, ratio = 0.6, 4.0, 0.3
        hit = 1 - (1 - ratio) ** fo
        assert adjusted_match_probability(m, fo, ratio) == pytest.approx(m * hit)
        assert adjusted_fanout(fo, ratio) == pytest.approx(fo * ratio / hit)

    def test_selectivity_identity(self):
        """s' = ratio * s, matching classical selectivity scaling."""
        for m, fo, ratio in [(0.5, 3.0, 0.4), (0.9, 1.5, 0.1), (0.2, 8.0, 0.7)]:
            s_prime = (
                adjusted_match_probability(m, fo, ratio)
                * adjusted_fanout(fo, ratio)
            )
            assert s_prime == pytest.approx(ratio * m * fo)

    def test_no_reduction_is_identity(self):
        assert adjusted_match_probability(0.5, 3.0, 1.0) == pytest.approx(0.5)
        assert adjusted_fanout(3.0, 1.0) == pytest.approx(3.0)

    def test_full_reduction_kills_everything(self):
        assert adjusted_match_probability(0.5, 3.0, 0.0) == 0.0
        assert adjusted_fanout(3.0, 0.0) == 0.0

    def test_adjusted_values_bounded(self):
        for ratio in (0.1, 0.5, 0.9):
            assert adjusted_match_probability(0.7, 5.0, ratio) <= 0.7
            assert 1.0 <= adjusted_fanout(5.0, ratio) <= 5.0


class TestReductionRatios:
    def test_running_example(self, running_example_query, running_example_stats):
        ratios, m_primes = reduction_ratios(
            running_example_query, running_example_stats
        )
        # Leaves are never reduced.
        for leaf in ("R3", "R4", "R6"):
            assert ratios[leaf] == 1.0
        # m' against unreduced leaves is just m.
        assert m_primes["R3"] == pytest.approx(M["R3"])
        assert m_primes["R4"] == pytest.approx(M["R4"])
        assert m_primes["R6"] == pytest.approx(M["R6"])
        # R2's reduction: product of its children's m'.
        assert ratios["R2"] == pytest.approx(M["R3"] * M["R4"])
        assert ratios["R5"] == pytest.approx(M["R6"])
        # m' from R1 into the reduced R2 (Theorem 3.4).
        expected = M["R2"] * (1 - (1 - M["R3"] * M["R4"]) ** FO["R2"])
        assert m_primes["R2"] == pytest.approx(expected)
        # Root ratio: product over its children.
        assert ratios["R1"] == pytest.approx(
            m_primes["R2"] * m_primes["R5"]
        )


class TestPhase1Cost:
    def test_paper_example_probe_count(
        self, running_example_query, running_example_stats
    ):
        """|R2| + m3 |R2| + |R5| + |R1| + (1-(1-m3 m4)^fo2) m2 |R1|."""
        sizes = running_example_stats.relation_sizes
        cost, _ = sj_phase1_cost(
            running_example_query, running_example_stats,
            child_orders={"R2": ["R3", "R4"], "R1": ["R2", "R5"],
                          "R5": ["R6"]},
        )
        expected = (
            sizes["R2"]
            + M["R3"] * sizes["R2"]
            + sizes["R5"]
            + sizes["R1"]
            + (1 - (1 - M["R3"] * M["R4"]) ** FO["R2"]) * M["R2"] * sizes["R1"]
        )
        assert cost.semijoin_probes == pytest.approx(expected)

    def test_default_child_order_is_increasing_m_prime(
        self, running_example_query, running_example_stats
    ):
        """The optimal order never costs more than any explicit order."""
        default_cost, _ = sj_phase1_cost(
            running_example_query, running_example_stats
        )
        import itertools

        for r1_order in itertools.permutations(["R2", "R5"]):
            for r2_order in itertools.permutations(["R3", "R4"]):
                cost, _ = sj_phase1_cost(
                    running_example_query, running_example_stats,
                    child_orders={
                        "R1": list(r1_order), "R2": list(r2_order),
                        "R5": ["R6"],
                    },
                )
                assert (
                    default_cost.semijoin_probes
                    <= cost.semijoin_probes + 1e-9
                )

    def test_invalid_child_order_rejected(
        self, running_example_query, running_example_stats
    ):
        with pytest.raises(ValueError, match="child order"):
            sj_phase1_cost(
                running_example_query, running_example_stats,
                child_orders={"R2": ["R3"]},
            )


class TestPhase2:
    def test_fanout_adjustment(self, running_example_query, running_example_stats):
        ratios, _ = reduction_ratios(
            running_example_query, running_example_stats
        )
        fanouts = sj_phase2_fanouts(
            running_example_query, running_example_stats, ratios
        )
        expected_r2 = adjusted_fanout(FO["R2"], ratios["R2"])
        assert fanouts["R2"] == pytest.approx(expected_r2)
        # Leaves keep their full fanout (ratio 1).
        assert fanouts["R3"] == pytest.approx(FO["R3"])

    def test_theorem_35_order_independence(
        self, running_example_query, running_example_stats
    ):
        """SJ+COM phase-2 hash probes are identical for every order."""
        values = set()
        for order in running_example_query.all_orders():
            cost = sj_plan_cost(
                running_example_query, running_example_stats, order,
                factorized=True, flat_output=False,
            )
            values.add(round(cost.hash_probes, 6))
        assert len(values) == 1

    def test_sj_std_depends_on_order(
        self, running_example_query, running_example_stats
    ):
        values = set()
        for order in running_example_query.all_orders():
            cost = sj_plan_cost(
                running_example_query, running_example_stats, order,
                factorized=False, flat_output=False,
            )
            values.add(round(cost.hash_probes, 6))
        assert len(values) > 1

    def test_output_size_preserved_through_adjustment(
        self, running_example_query, running_example_stats
    ):
        """N' * prod fo' must equal N * prod (m fo): the reduction
        changes where tuples die, never the final result size."""
        from repro.core.costmodel import expected_output_size

        q, st = running_example_query, running_example_stats
        ratios, _ = reduction_ratios(q, st)
        fanouts = sj_phase2_fanouts(q, st, ratios)
        reduced_driver = st.driver_size * ratios[q.root]
        product = reduced_driver
        for relation in q.non_root_relations:
            product *= fanouts[relation]
        assert product == pytest.approx(expected_output_size(q, st))

    def test_phase2_all_probes_match(self, running_example_query,
                                     running_example_stats):
        """In phase 2 every probe finds a match, so for SJ+STD the
        number of probes into the (k+1)-th operator equals the tuples
        generated by the k-th."""
        q, st = running_example_query, running_example_stats
        order = ["R2", "R3", "R5", "R4", "R6"]
        cost = sj_plan_cost(q, st, order, factorized=False)
        ratios, _ = reduction_ratios(q, st)
        fanouts = sj_phase2_fanouts(q, st, ratios)
        tuples = st.driver_size * ratios[q.root]
        for relation in order:
            assert cost.hash_probes_by_relation[relation] == pytest.approx(
                tuples
            )
            tuples *= fanouts[relation]
