"""Robustness-analysis tests (Section 3.7)."""

import numpy as np
import pytest

from repro.core import EdgeStats, QueryStats, theta_fragility
from repro.core.robustness import (
    _plan_cost_for_model,
    best_star_order,
    estimation_error_experiment,
    star_query,
    theta_robustness,
)


class TestClosedForms:
    def test_theta_geometric_form(self):
        # (1 - s^(n-1)) / (1 - s) = 1 + s + ... + s^(n-2)
        s, n = 0.5, 5
        expected = sum(s ** i for i in range(n - 1))
        assert theta_fragility(s, n) == pytest.approx(expected)

    def test_theta_at_one_is_limit(self):
        assert theta_fragility(1.0, 6) == pytest.approx(5.0)

    def test_theta_requires_two_dimensions(self):
        with pytest.raises(ValueError):
            theta_fragility(0.5, 1)

    def test_match_bound_tighter_than_selectivity_bound(self):
        """m <= 1 while s can exceed 1: the match-based spread is
        smaller whenever fanouts amplify selectivities."""
        n = 10
        m_min, fo = 0.3, 5.0
        s_min = m_min * fo
        assert theta_fragility(m_min, n) < theta_fragility(s_min, n)

    def test_theta_robustness_formula(self):
        lo, hi, n = 0.2, 0.8, 6
        expected = sum(hi ** i - lo ** i for i in range(1, n - 1)) / (hi - lo)
        assert theta_robustness(lo, hi, n) == pytest.approx(expected)

    def test_theta_robustness_degenerate(self):
        assert theta_robustness(0.5, 0.5, 6) == 0.0
        assert theta_robustness(0.2, 0.8, 2) == 0.0


class TestStarHelpers:
    def test_star_query_shape(self):
        query = star_query(4)
        assert query.num_relations == 5
        assert all(query.parent(rel) == query.root
                   for rel in query.non_root_relations)

    def test_best_star_order_selectivity(self):
        query = star_query(3)
        stats = QueryStats(1.0, {
            "D1": EdgeStats(0.9, 4.0),
            "D2": EdgeStats(0.3, 2.0),
            "D3": EdgeStats(0.8, 1.0),
        })
        assert best_star_order(query, stats, "selectivity") == [
            "D2", "D3", "D1"
        ]
        assert best_star_order(query, stats, "match") == ["D2", "D3", "D1"]

    def test_best_star_order_model_validation(self):
        query = star_query(2)
        stats = QueryStats(1.0, {
            "D1": EdgeStats(0.5, 1.0), "D2": EdgeStats(0.5, 1.0)
        })
        with pytest.raises(ValueError):
            best_star_order(query, stats, "bogus")

    def test_sort_order_is_truly_optimal(self):
        """Exhaustive check that ascending-m is the COM optimum and
        ascending-s the STD optimum on a small star."""
        rng = np.random.default_rng(7)
        query = star_query(4)
        for _ in range(10):
            stats = QueryStats(1.0, {
                rel: EdgeStats(float(rng.uniform(0.05, 0.95)),
                               float(rng.uniform(1, 10)))
                for rel in query.non_root_relations
            })
            for model in ("selectivity", "match"):
                best = best_star_order(query, stats, model)
                best_cost = _plan_cost_for_model(query, stats, best, model)
                for order in query.all_orders():
                    other = _plan_cost_for_model(query, stats, order, model)
                    assert best_cost <= other + 1e-9


class TestEstimationErrorExperiment:
    def test_returns_both_models(self):
        results = estimation_error_experiment(
            m_range=(0.05, 0.2), fo_range=(1, 10),
            error_range=(0.15, 0.2), num_samples=20, seed=1,
        )
        assert set(results) == {"selectivity", "match"}
        for res in results.values():
            assert len(res.pct_differences) == 20
            assert (res.pct_differences >= -1e-9).all()

    def test_match_model_more_robust_under_large_errors(self):
        """Figure 6's message: under 90-95% estimation error and high
        fanout, the match-based model picks plans much closer to the
        optimum than the selectivity-based model."""
        results = estimation_error_experiment(
            m_range=(0.05, 0.2), fo_range=(10, 100),
            error_range=(0.9, 0.95), num_samples=100, seed=3,
        )
        assert results["match"].mean <= results["selectivity"].mean

    def test_low_error_low_difference(self):
        results = estimation_error_experiment(
            m_range=(0.5, 0.9), fo_range=(1, 2),
            error_range=(0.15, 0.2), num_samples=50, seed=5,
        )
        # Percentage differences stay modest under small errors.
        assert results["match"].mean < 50
        assert results["selectivity"].mean < 50

    def test_summary_statistics(self):
        results = estimation_error_experiment(
            m_range=(0.1, 0.5), fo_range=(1, 10),
            error_range=(0.5, 0.6), num_samples=30, seed=9,
        )
        res = results["match"]
        assert res.median <= res.p90 + 1e-9
        assert res.mean >= 0.0
