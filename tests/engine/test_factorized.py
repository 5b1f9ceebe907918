"""Tests for the factorized intermediate representation."""

import numpy as np
import pytest

from repro.core import JoinEdge, JoinQuery
from repro.engine import FactorizedResult


@pytest.fixture
def chain_query():
    return JoinQuery("A", [
        JoinEdge("A", "B", "k", "k"),
        JoinEdge("B", "C", "j", "j"),
    ])


def make_two_level(chain_query):
    """A: 3 entries; B: entries under A0 (x2) and A2 (x1); C under B."""
    result = FactorizedResult(chain_query, np.asarray([0, 1, 2]))
    result.add_node("B", rows=np.asarray([10, 11, 12]),
                    parent_ptr=np.asarray([0, 0, 2]))
    return result


class TestStructure:
    def test_driver_node(self, chain_query):
        result = FactorizedResult(chain_query, np.asarray([5, 6]))
        node = result.node("A")
        assert node.rows.tolist() == [5, 6]
        assert node.parent_ptr.tolist() == [-1, -1]
        assert node.num_alive == 2

    def test_unjoined_relation_error(self, chain_query):
        result = FactorizedResult(chain_query, np.asarray([0]))
        with pytest.raises(KeyError, match="not been joined"):
            result.node("B")

    def test_double_join_rejected(self, chain_query):
        result = make_two_level(chain_query)
        with pytest.raises(ValueError, match="already joined"):
            result.add_node("B", np.asarray([1]), np.asarray([0]))

    def test_decreasing_parent_ptr_rejected(self, chain_query):
        """Expansion reads each parent entry's children as one run, so
        entries must arrive grouped by parent entry in parent order."""
        result = FactorizedResult(chain_query, np.asarray([0, 1, 2]))
        with pytest.raises(ValueError, match="parent_ptr of 'B' decreases"):
            result.add_node("B", rows=np.asarray([10, 11, 12]),
                            parent_ptr=np.asarray([0, 2, 1]))
        assert "B" not in result.nodes
        result.add_node("B", rows=np.asarray([10, 11, 12]),
                        parent_ptr=np.asarray([0, 2, 2]))

    def test_total_entries(self, chain_query):
        result = make_two_level(chain_query)
        assert result.total_entries() == 6


class TestDeathPropagation:
    def test_upward_kill(self, chain_query):
        """A parent entry with no alive children in a joined child node
        dies (A1 never produced a B entry, so dies after the B join)."""
        result = make_two_level(chain_query)
        result.propagate_deaths()
        assert result.node("A").alive.tolist() == [True, False, True]

    def test_downward_kill(self, chain_query):
        result = make_two_level(chain_query)
        result.node("A").alive[0] = False
        result.propagate_deaths()
        # B entries 0, 1 hang under dead A0.
        assert result.node("B").alive.tolist() == [False, False, True]

    def test_cascade_through_levels(self, chain_query):
        result = make_two_level(chain_query)
        result.add_node("C", rows=np.asarray([100]),
                        parent_ptr=np.asarray([2]))
        result.propagate_deaths()
        # Only the chain A2 -> B(12) -> C(100) is fully alive; B entries
        # 10, 11 die (no C children), so A0 dies too.
        assert result.node("A").alive.tolist() == [False, False, True]
        assert result.node("B").alive.tolist() == [False, False, True]
        assert result.node("C").alive.tolist() == [True]


class TestCountingAndExpansion:
    def test_count_rows_matches_expand(self, chain_query):
        result = make_two_level(chain_query)
        result.add_node("C", rows=np.asarray([100, 101, 102]),
                        parent_ptr=np.asarray([0, 0, 2]))
        result.propagate_deaths()
        flat = result.expand_all()
        assert result.count_rows() == len(flat["A"])
        # A0 x {B10 x (C100, C101)} plus A2 x B12 x C102 = 3 tuples.
        assert result.count_rows() == 3

    def test_expand_rows_content(self, chain_query):
        result = make_two_level(chain_query)
        result.add_node("C", rows=np.asarray([100, 101, 102]),
                        parent_ptr=np.asarray([0, 0, 2]))
        result.propagate_deaths()
        flat = result.expand_all()
        tuples = sorted(zip(flat["A"].tolist(), flat["B"].tolist(),
                            flat["C"].tolist()))
        assert tuples == [(0, 10, 100), (0, 10, 101), (2, 12, 102)]

    def test_expand_batching_consistent(self, chain_query):
        result = make_two_level(chain_query)
        result.add_node("C", rows=np.asarray([100, 101, 102]),
                        parent_ptr=np.asarray([0, 0, 2]))
        result.propagate_deaths()
        full = result.expand_all()
        for batch_entries in (1, 2, 3):
            batches = list(result.expand(batch_entries=batch_entries))
            combined = {
                rel: np.concatenate([b[rel] for b in batches])
                for rel in full
            }
            for rel in full:
                assert combined[rel].tolist() == full[rel].tolist()

    def test_expand_max_rows_bounds_batches(self, chain_query):
        result = make_two_level(chain_query)
        result.add_node("C", rows=np.asarray([100, 101, 102]),
                        parent_ptr=np.asarray([0, 0, 2]))
        result.propagate_deaths()
        batches = list(result.expand(max_rows=2))
        assert sum(len(b["A"]) for b in batches) == result.count_rows()
        for batch in batches:
            assert len(batch["A"]) <= 2

    def test_empty_result(self, chain_query):
        result = FactorizedResult(chain_query, np.asarray([0, 1]))
        result.add_node("B", rows=np.empty(0, dtype=np.int64),
                        parent_ptr=np.empty(0, dtype=np.int64))
        result.propagate_deaths()
        assert result.count_rows() == 0
        assert list(result.expand()) == []
        flat = result.expand_all()
        assert len(flat["A"]) == 0

    def test_count_without_propagation_still_correct(self, chain_query):
        """Counting weights dead subtrees as zero, so an un-propagated
        alive mask yields the same count."""
        result = make_two_level(chain_query)
        result.add_node("C", rows=np.asarray([100]),
                        parent_ptr=np.asarray([2]))
        unpropagated = result.count_rows()
        result.propagate_deaths()
        assert result.count_rows() == unpropagated


class TestWeightBoundedBatches:
    """The vectorized batch grouping reproduces the greedy loop it
    replaced, boundary for boundary."""

    @staticmethod
    def greedy_batches(weights, batch_entries, max_rows):
        """The per-entry loop ``expand`` used to run (kept as the
        reference)."""
        bounds = []
        begin = 0
        n = len(weights)
        while begin < n:
            end = begin + 1
            total = weights[begin]
            while (
                end < n
                and end - begin < batch_entries
                and total + weights[end] <= max_rows
            ):
                total += weights[end]
                end += 1
            bounds.append((begin, end))
            begin = end
        return bounds

    @pytest.mark.parametrize("seed", range(40))
    def test_same_boundaries_as_greedy_loop(self, seed):
        from repro.engine.factorized import _weight_bounded_batches

        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 200))
        scale = int(rng.choice([1, 5, 50, 10_000]))
        weights = rng.integers(0, scale + 1, size=n).astype(np.float64)
        # single entries far above any cap, and exact-fit runs
        weights[rng.random(n) < 0.05] = 10.0 * scale * max(n, 1)
        batch_entries = int(rng.choice([1, 2, 7, 64, 10_000]))
        max_rows = int(rng.choice([1, scale, 3 * scale, 40 * scale]))
        got = list(_weight_bounded_batches(weights, batch_entries, max_rows))
        assert got == self.greedy_batches(weights, batch_entries, max_rows)
        assert [b for b, _ in got] == [0, *(e for _, e in got)][:len(got)]
        assert not got or got[-1][1] == n

    def test_expand_uses_supplied_weights(self, chain_query):
        result = make_two_level(chain_query)
        result.add_node("C", rows=np.asarray([100, 101, 102]),
                        parent_ptr=np.asarray([0, 0, 2]))
        result.propagate_deaths()
        weights = result.subtree_weights()
        assert result.count_rows(weights) == result.count_rows()
        with_weights = list(result.expand(max_rows=2, weights=weights))
        without = list(result.expand(max_rows=2))
        assert len(with_weights) == len(without)
        for a, b in zip(with_weights, without):
            assert {r: v.tolist() for r, v in a.items()} == \
                {r: v.tolist() for r, v in b.items()}
