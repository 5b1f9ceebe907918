"""Property tests for the factorized representation itself."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JoinEdge, JoinQuery
from repro.engine.factorized import FactorizedResult
from repro.engine.kernels import INTERPRETED, VECTORIZED

from tests.helpers import attach_node, live_recount, two_sweep_alive


def kill_misses(result, relation):
    """Kill the alive entries of ``relation``'s parent node that have
    no child in it — what the executor does after each probe."""
    node = result.node(relation)
    parent = result.query.parent(relation)
    missed = np.flatnonzero(result.node(parent).alive & (node.live == 0))
    result.kill(parent, missed)


@st.composite
def random_factorized(draw, probe_misses_killed=False):
    """A random 3-level factorized result (A -> B -> C, A -> D).

    With ``probe_misses_killed`` each join's childless parent entries
    are killed as the executor kills them, so the masks are consistent;
    otherwise they stay alive.
    """
    query = JoinQuery("A", [
        JoinEdge("A", "B", "k", "k"),
        JoinEdge("B", "C", "j", "j"),
        JoinEdge("A", "D", "h", "h"),
    ])
    n_a = draw(st.integers(1, 6))
    result = FactorizedResult(query, np.arange(n_a))

    def attach(relation, max_children):
        parent = result.node(query.parent(relation))
        parent_ptr = []
        for parent_idx in range(len(parent)):
            count = draw(st.integers(0, max_children))
            if parent.alive[parent_idx]:
                parent_ptr.extend([parent_idx] * count)
        rows = np.arange(len(parent_ptr), dtype=np.int64)
        attach_node(result, relation, rows, parent_ptr)
        if probe_misses_killed:
            kill_misses(result, relation)

    attach("B", 3)
    attach("C", 2)
    attach("D", 2)
    return result


def random_kills(draw, result, count):
    """``count`` random ``(relation, entries)`` kill calls over every
    node — root, internal and leaf — with dead, repeated and no
    entries among them."""
    relations = result.joined
    kills = []
    for _ in range(count):
        relation = draw(st.sampled_from(relations))
        size = len(result.node(relation))
        entries = draw(st.lists(st.integers(0, size - 1), max_size=3)) \
            if size else []
        kills.append((relation, np.asarray(entries, dtype=np.int64)))
    return kills


@st.composite
def chain_plus_branch(draw):
    """A random 4-level chain ``A -> B -> C -> D`` plus the branch
    ``A -> E``, with randomly killed entries, childless alive entries
    and possibly empty nodes.

    Expansion crosses B, C, D, E in that order, so B leaves the carried
    frame at D's level and A, C, D at E's — before the last level.
    """
    query = JoinQuery("A", [
        JoinEdge("A", "B", "k", "k"),
        JoinEdge("B", "C", "j", "j"),
        JoinEdge("C", "D", "i", "i"),
        JoinEdge("A", "E", "h", "h"),
    ])
    sizes = {"A": draw(st.integers(1, 5))}
    result = FactorizedResult(query, 100 * np.arange(sizes["A"]) + 7)
    for relation, parent in (("B", "A"), ("C", "B"), ("D", "C"), ("E", "A")):
        parent_ptr = [p for p in range(sizes[parent])
                      for _ in range(draw(st.integers(0, 3)))]
        sizes[relation] = len(parent_ptr)
        rows = 1000 * (ord(relation) - ord("A")) + np.arange(len(parent_ptr))
        attach_node(result, relation, rows, parent_ptr)
    for relation in result.joined:
        node = result.node(relation)
        # about one entry in four killed
        dead = draw(st.lists(st.sampled_from([False, False, False, True]),
                             min_size=len(node), max_size=len(node)))
        result.kill(relation, np.flatnonzero(dead))
    return result


def reference_count(result):
    """Count flat tuples by explicit nested loops."""
    b = result.node("B")
    c = result.node("C")
    d = result.node("D")
    total = 0
    for a_idx in range(len(result.node("A"))):
        if not result.node("A").alive[a_idx]:
            continue
        d_count = int(
            (d.alive & (d.parent_ptr == a_idx)).sum()
        )
        bc = 0
        for b_idx in np.nonzero(b.alive & (b.parent_ptr == a_idx))[0]:
            bc += int((c.alive & (c.parent_ptr == b_idx)).sum())
        total += bc * d_count
    return total


@given(result=random_factorized())
@settings(max_examples=40, deadline=None)
def test_count_rows_matches_reference(result):
    assert result.count_rows() == reference_count(result)


@given(result=random_factorized())
@settings(max_examples=40, deadline=None)
def test_expand_matches_count(result):
    flat = result.expand_all()
    assert len(flat["A"]) == result.count_rows()


def flat_tuples(batches, relations):
    """The tuples of expansion batches, in order."""
    return [tuple(int(batch[rel][i]) for rel in relations)
            for batch in batches for i in range(len(batch[relations[0]]))]


@given(result=random_factorized(), batch=st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_expansion_batch_invariance(result, batch):
    full = result.expand_all()
    batches = list(result.expand(batch_entries=batch))
    assert flat_tuples(batches, result.joined) == \
        flat_tuples([full], result.joined)


@given(result=chain_plus_branch(), batch=st.integers(1, 4),
       max_rows=st.none() | st.integers(1, 12),
       kernels=st.sampled_from([VECTORIZED, INTERPRETED]))
@settings(max_examples=80, deadline=None)
def test_expand_matches_depth_first_in_order(result, batch, max_rows,
                                             kernels):
    """Batched breadth-first expansion equals the tuple-at-a-time
    depth-first walk tuple for tuple, in order, on both kernel planes —
    dead entries, empty nodes and relations that leave the carried
    frame before the last level included."""
    relations = result.query.preorder()
    batches = list(result.expand(batch_entries=batch, max_rows=max_rows,
                                 kernels=kernels))
    assert all(list(b) == relations for b in batches)
    assert flat_tuples(batches, relations) == [
        tuple(row[rel] for rel in relations)
        for row in result.expand_depth_first()
    ]


@given(result=random_factorized(), max_rows=st.integers(1, 10))
@settings(max_examples=30, deadline=None)
def test_expansion_max_rows_invariance(result, max_rows):
    full_count = result.count_rows()
    batches = list(result.expand(max_rows=max_rows))
    assert sum(len(b["A"]) for b in batches) == full_count


def unproductive_entries(result, relation):
    """Alive entries of ``relation`` with no child in some joined child
    node."""
    node = result.node(relation)
    childless = np.zeros(len(node), dtype=bool)
    for child in result.query.children(relation):
        if child in result.nodes:
            childless |= result.node(child).live == 0
    return np.flatnonzero(node.alive & childless)


@given(result=random_factorized())
@settings(max_examples=40, deadline=None)
def test_propagation_idempotent_and_count_preserving(result):
    """Killing the childless entries matches the two-sweep reference,
    keeps the count, and a second round kills nothing."""
    before = result.count_rows()
    expected = two_sweep_alive(result)
    for rel in result.query.preorder():
        result.kill(rel, unproductive_entries(result, rel))
    for rel in result.joined:
        assert np.array_equal(result.node(rel).alive, expected[rel])
    for rel in result.query.preorder():
        assert len(unproductive_entries(result, rel)) == 0
        result.kill(rel, np.flatnonzero(~result.node(rel).alive))
    for rel in result.joined:
        assert np.array_equal(result.node(rel).alive, expected[rel])
    assert result.count_rows() == before


@given(result=random_factorized(probe_misses_killed=True))
@settings(max_examples=40, deadline=None)
def test_propagation_kills_unproductive_entries(result):
    """With each join's probe misses killed, every alive non-root entry
    has an alive parent, and every alive parent has an alive child in
    each materialized child node."""
    query = result.query
    for rel in result.joined:
        node = result.node(rel)
        if rel != query.root:
            parent = result.node(query.parent(rel))
            alive_idx = node.alive_indices()
            assert parent.alive[node.parent_ptr[alive_idx]].all()
        for child_rel in query.children(rel):
            if child_rel not in result.nodes:
                continue
            child = result.node(child_rel)
            counts = np.bincount(child.parent_ptr[child.alive],
                                 minlength=len(node))
            assert counts[node.alive].all() if node.alive.any() else True


@st.composite
def kill_sequences(draw):
    result = draw(random_factorized(probe_misses_killed=True))
    return result, random_kills(draw, result, draw(st.integers(1, 6)))


@given(case=kill_sequences(),
       kernels=st.sampled_from([VECTORIZED, INTERPRETED]))
@settings(max_examples=80, deadline=None)
def test_kill_sequence_matches_two_sweep_reference(case, kernels):
    """After each kill of a random sequence the masks equal the
    two-sweep reference's, every ``live`` a fresh recount and every
    ``dead`` the cleared bits — and counting and expansion agree with
    the depth-first walk on both kernel planes."""
    result, kills = case
    relations = result.query.preorder()
    expected = two_sweep_alive(result)
    for rel in result.joined:
        assert np.array_equal(result.node(rel).alive, expected[rel])
    for relation, entries in kills:
        expected[relation][entries] = False
        expected = two_sweep_alive(result, expected)
        result.kill(relation, entries)
        for rel in result.joined:
            node = result.node(rel)
            assert np.array_equal(node.alive, expected[rel])
            assert node.dead == int((~node.alive).sum())
            if rel != result.query.root:
                assert np.array_equal(node.live, live_recount(result, rel))
        depth_first = [tuple(row[rel] for rel in relations)
                       for row in result.expand_depth_first()]
        assert result.count_rows() == len(depth_first)
        batches = list(result.expand(batch_entries=2, kernels=kernels))
        assert flat_tuples(batches, relations) == depth_first
