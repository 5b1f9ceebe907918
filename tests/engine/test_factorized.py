"""Tests for the factorized intermediate representation."""

import numpy as np
import pytest

from repro.core import JoinEdge, JoinQuery
from repro.engine.factorized import FactorizedResult

from tests.helpers import attach_node, live_recount, two_sweep_alive


@pytest.fixture
def chain_query():
    return JoinQuery("A", [
        JoinEdge("A", "B", "k", "k"),
        JoinEdge("B", "C", "j", "j"),
    ])


def make_two_level(chain_query):
    """A: 3 entries; B: entries under A0 (x2) and A2 (x1); C under B."""
    result = FactorizedResult(chain_query, np.asarray([0, 1, 2]))
    attach_node(result, "B", np.asarray([10, 11, 12]),
                np.asarray([0, 0, 2]))
    return result


def make_three_level(chain_query):
    """:func:`make_two_level` plus C entries under B10 (x2) and B12 (x1),
    with the probe misses killed as the executor kills them: A1 found
    no B match, B11 no C match."""
    result = make_two_level(chain_query)
    result.kill("A", [1])
    attach_node(result, "C", np.asarray([100, 101, 102]),
                np.asarray([0, 0, 2]))
    result.kill("B", [1])
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
            result.add_node("B", np.asarray([1]), np.asarray([0]),
                            counts=np.asarray([1, 0, 0]))

    def test_decreasing_parent_ptr_rejected(self, chain_query):
        """Expansion reads each parent entry's children as one run, so
        entries must arrive grouped by parent entry in parent order."""
        result = FactorizedResult(chain_query, np.asarray([0, 1, 2]))
        with pytest.raises(ValueError, match="parent_ptr of 'B' decreases"):
            attach_node(result, "B", np.asarray([10, 11, 12]),
                        np.asarray([0, 2, 1]))
        assert "B" not in result.nodes
        attach_node(result, "B", np.asarray([10, 11, 12]),
                    np.asarray([0, 2, 2]))

    def test_relation_outside_query_rejected(self, chain_query):
        result = FactorizedResult(chain_query, np.asarray([0, 1, 2]))
        with pytest.raises(ValueError, match="'Z' is not a non-root"):
            result.add_node("Z", np.asarray([0]), np.asarray([0]),
                            counts=np.asarray([1, 0, 0]))
        assert result.joined == ["A"]

    def test_unjoined_parent_rejected(self, chain_query):
        """C's parent B is not joined: accepted, count_rows() would
        silently count 3 rows and expand() raise KeyError: 'B'."""
        result = FactorizedResult(chain_query, np.asarray([0, 1, 2]))
        with pytest.raises(ValueError,
                           match="parent 'B' of 'C' has not been joined"):
            result.add_node("C", np.arange(2), np.asarray([0, 1]),
                            counts=np.asarray([1, 1, 0]))
        assert "C" not in result.nodes

    @pytest.mark.parametrize("parent_ptr", [[0, 1, 5], [-1, 0, 1]])
    def test_parent_ptr_out_of_range_rejected(self, chain_query,
                                              parent_ptr):
        """Pointers outside the parent node failed only later, inside
        propagation (a broadcast error, a negative bincount)."""
        result = FactorizedResult(chain_query, np.asarray([0, 1, 2]))
        with pytest.raises(ValueError,
                           match=r"parent_ptr of 'B' leaves \[0, 3\)"):
            result.add_node("B", np.arange(3), np.asarray(parent_ptr),
                            counts=np.asarray([1, 1, 1]))
        assert "B" not in result.nodes

    def test_live_counts_children_per_parent_entry(self, chain_query):
        result = make_two_level(chain_query)
        node = result.node("B")
        assert node.live.tolist() == [2, 0, 1]
        assert result.node("A").live is None

    def test_probe_counts_become_live(self, chain_query):
        """The executor hands the probe's own counts over instead of a
        recount of ``parent_ptr``; ``probed`` scatters them onto the
        entries it probed."""
        result = FactorizedResult(chain_query, np.asarray([0, 1, 2]))
        result.kill("A", [1])
        node = result.add_node("B", rows=np.asarray([10, 11, 12]),
                               parent_ptr=np.asarray([0, 0, 2]),
                               counts=np.asarray([2, 1]),
                               probed=np.asarray([0, 2]))
        assert node.live.tolist() == [2, 0, 1]

    def test_total_entries(self, chain_query):
        result = make_two_level(chain_query)
        assert result.total_entries() == 6


class TestDeathPropagation:
    def test_upward_kill(self, chain_query):
        """A parent entry dies with its last alive child in a joined
        child node, not before."""
        result = make_two_level(chain_query)
        result.kill("B", [0])
        assert result.node("A").alive.tolist() == [True, True, True]
        assert result.node("B").live.tolist() == [1, 0, 1]
        result.kill("B", [1])
        assert result.node("A").alive.tolist() == [False, True, True]
        assert result.node("B").live.tolist() == [0, 0, 1]

    def test_downward_kill(self, chain_query):
        result = make_two_level(chain_query)
        result.kill("A", [0])
        # B entries 0, 1 hang under dead A0.
        assert result.node("B").alive.tolist() == [False, False, True]
        assert result.node("B").live.tolist() == [0, 0, 1]
        assert result.node("B").dead == 2

    def test_cascade_through_levels(self, chain_query):
        result = make_two_level(chain_query)
        result.kill("A", [1])
        attach_node(result, "C", np.asarray([100]), np.asarray([2]))
        result.kill("B", [0, 1])
        # Only the chain A2 -> B(12) -> C(100) is fully alive; B entries
        # 10, 11 found no C match, so A0 dies too.
        assert result.node("A").alive.tolist() == [False, False, True]
        assert result.node("B").alive.tolist() == [False, False, True]
        assert result.node("C").alive.tolist() == [True]

    def test_walk_does_not_return_down_the_path_it_came_up(self,
                                                           chain_query):
        """C102 dies, B12 loses its last C child and dies, A2 loses its
        last B child and dies — and the walk from A2 down skips B."""
        result = make_three_level(chain_query)
        result.kill("C", [2])
        assert result.node("A").alive.tolist() == [True, False, False]
        assert result.node("B").alive.tolist() == [True, False, False]
        assert result.node("C").alive.tolist() == [True, True, False]
        for relation in ("B", "C"):
            assert result.node(relation).live.tolist() == \
                live_recount(result, relation).tolist()

    def test_dead_duplicate_unsorted_and_empty_entries(self, chain_query):
        result = make_three_level(chain_query)
        before = {rel: node.alive.copy() for rel, node in result.nodes.items()}
        result.kill("B", [1, 1])
        result.kill("C", np.empty(0, dtype=np.int64))
        for rel, node in result.nodes.items():
            assert node.alive.tolist() == before[rel].tolist()
        result.kill("C", [1, 0, 1])
        assert result.node("C").alive.tolist() == [False, False, True]
        assert result.node("C").dead == 2
        assert result.node("B").live.tolist() == live_recount(result, "B").tolist()
        assert result.node("A").alive.tolist() == [False, False, True]

    def test_out_of_range_entries_rejected(self, chain_query):
        result = make_two_level(chain_query)
        with pytest.raises(IndexError, match=r"leave \[0, 3\)"):
            result.kill("B", [3])
        with pytest.raises(IndexError, match=r"leave \[0, 3\)"):
            result.kill("A", [-1])

    def test_matches_two_sweep_reference(self, chain_query):
        result = make_two_level(chain_query)
        attach_node(result, "C", np.asarray([100, 101, 102]),
                    np.asarray([0, 0, 2]))
        # the executor's protocol: probe misses die as they happen
        result.kill("A", [1])
        result.kill("B", [1])
        expected = {rel: mask.copy()
                    for rel, mask in two_sweep_alive(result).items()}
        expected["C"][0] = False
        expected = two_sweep_alive(result, expected)
        result.kill("C", [0])
        for rel, node in result.nodes.items():
            assert node.alive.tolist() == expected[rel].tolist()


class TestCountingAndExpansion:
    def test_count_rows_matches_expand(self, chain_query):
        result = make_three_level(chain_query)
        flat = result.expand_all()
        assert result.count_rows() == len(flat["A"])
        # A0 x {B10 x (C100, C101)} plus A2 x B12 x C102 = 3 tuples.
        assert result.count_rows() == 3

    def test_expand_rows_content(self, chain_query):
        result = make_three_level(chain_query)
        flat = result.expand_all()
        tuples = sorted(zip(flat["A"].tolist(), flat["B"].tolist(),
                            flat["C"].tolist()))
        assert tuples == [(0, 10, 100), (0, 10, 101), (2, 12, 102)]

    def test_expand_batching_consistent(self, chain_query):
        result = make_three_level(chain_query)
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
        result = make_three_level(chain_query)
        batches = list(result.expand(max_rows=2))
        assert sum(len(b["A"]) for b in batches) == result.count_rows()
        for batch in batches:
            assert len(batch["A"]) <= 2

    def test_empty_result(self, chain_query):
        result = FactorizedResult(chain_query, np.asarray([0, 1]))
        attach_node(result, "B", np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        result.kill("A", [0, 1])
        assert result.count_rows() == 0
        assert list(result.expand()) == []
        flat = result.expand_all()
        assert len(flat["A"]) == 0

    def test_count_without_propagation_still_correct(self, chain_query):
        """Counting weights childless entries as zero, so the count is
        the same before the probe misses are killed."""
        result = make_two_level(chain_query)
        attach_node(result, "C", np.asarray([100]), np.asarray([2]))
        unpropagated = result.count_rows()
        result.kill("A", [1])
        result.kill("B", [0, 1])
        assert result.count_rows() == unpropagated == 1


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
        result = make_three_level(chain_query)
        weights = result.subtree_weights()
        assert result.count_rows(weights) == result.count_rows()
        with_weights = list(result.expand(max_rows=2, weights=weights))
        without = list(result.expand(max_rows=2))
        assert len(with_weights) == len(without)
        for a, b in zip(with_weights, without):
            assert {r: v.tolist() for r, v in a.items()} == \
                {r: v.tolist() for r, v in b.items()}
