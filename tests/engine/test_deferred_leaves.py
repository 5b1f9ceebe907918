"""A factorized query leaf stays its probe's ranges until first read.

The COM pipeline attaches a relation with no children in the query as
its probe (:meth:`FactorizedResult.add_leaf`); the node builds ``rows``,
``parent_ptr`` and ``alive`` once, on first read.  A count-only run
reads a leaf only through ``live``, so it never fans one out.  These
tests pin that down with spies on both kernel planes' lookup
``fan_out``, and check that a deferred leaf answers every read exactly
as the eagerly built one did: rows, row order, every
:class:`ExecutionCounters` field, subtree weights bit for bit, the
residual push-down of a cyclic plan and a partitioned catalog's base
row ids.
"""

import numpy as np
import pytest

from repro.core import (
    JoinEdge,
    JoinQuery,
    execute_cyclic,
    parse_query,
    spanning_tree_decomposition,
)
from repro.engine import execute
from repro.engine.factorized import FactorizedResult
from repro.engine.kernels import _InterpretedLookup
from repro.modes import ExecutionMode
from repro.storage import Catalog
from repro.storage.hashindex import HashIndex, LookupResult

from tests.core.test_cyclic import TRIANGLE, brute_force_triangle
from tests.helpers import (
    brute_force_join,
    make_running_example_query,
    make_small_catalog,
)
from tests.partitioning import partitioned_catalog

#: the serving workload's six-relation query is the paper's running
#: example: R2 and R5 are internal, R3, R4 and R6 leaves
ORDER = ["R2", "R5", "R3", "R6", "R4"]
INTERNAL = {"R2", "R5"}
LEAVES = {"R3", "R4", "R6"}
COM_MODES = [ExecutionMode.COM, ExecutionMode.BVP_COM, ExecutionMode.SJ_COM]
PLANES = ["vectorized", "interpreted"]


def _eager_add_leaf(self, relation, lookup, probed=None):
    """How a leaf was attached before it could stay a probe."""
    lineage, matches = lookup.fan_out()
    return self.add_node(
        relation, matches,
        lineage if probed is None else probed.take(lineage),
        probed=probed, counts=lookup.counts,
    )


@pytest.fixture
def eager_leaves(monkeypatch):
    """Within the test, leaves are built at attach time."""
    def use():
        monkeypatch.setattr(FactorizedResult, "add_leaf", _eager_add_leaf)
    return use


@pytest.fixture
def fan_outs(monkeypatch):
    """Spy on both planes' lookup ``fan_out``: ``calls`` lists each
    fanned-out lookup, ``leaves`` maps a leaf's attached lookup to its
    relation."""
    calls = []
    leaves = {}
    for cls in (LookupResult, _InterpretedLookup):
        def spy(self, _original=cls.fan_out):
            calls.append(self)
            return _original(self)
        monkeypatch.setattr(cls, "fan_out", spy)
    original_add_leaf = FactorizedResult.add_leaf

    def add_leaf(self, relation, lookup, probed=None):
        leaves[id(lookup)] = relation
        return original_add_leaf(self, relation, lookup, probed=probed)

    monkeypatch.setattr(FactorizedResult, "add_leaf", add_leaf)

    class Spy:
        def leaf_builds(self):
            """Relations of the leaves fanned out, one per fan-out."""
            return sorted(leaves[id(lookup)] for lookup in calls
                          if id(lookup) in leaves)

        def internal_builds(self):
            return len([lookup for lookup in calls
                        if id(lookup) not in leaves])

        def attached_leaves(self):
            return sorted(leaves.values())

    return Spy()


@pytest.fixture(scope="module")
def query():
    return make_running_example_query()


@pytest.fixture(scope="module", params=[1, 2, 8], ids=lambda n: f"shards{n}")
def catalog(request, query):
    return partitioned_catalog(make_small_catalog(), query, request.param)


@pytest.fixture(scope="module")
def expected(query):
    """The brute-force join over the unpartitioned catalog."""
    return brute_force_join(make_small_catalog(), query)


def _run(catalog, query, mode, execution, collect):
    return execute(catalog, query, ORDER, mode, flat_output=True,
                   collect_output=collect, execution=execution)


# ----------------------------------------------------------------------
# Fan-out counts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("execution", PLANES)
@pytest.mark.parametrize("mode", COM_MODES, ids=str)
def test_count_only_run_fans_out_internal_relations_only(query, mode,
                                                         execution, fan_outs):
    result = _run(make_small_catalog(), query, mode, execution,
                  collect=False)
    assert fan_outs.attached_leaves() == sorted(LEAVES)
    assert fan_outs.leaf_builds() == []
    assert fan_outs.internal_builds() == len(INTERNAL)
    nodes = result.factorized.nodes
    assert all(nodes[rel].is_deferred for rel in LEAVES)
    assert not any(nodes[rel].is_deferred for rel in INTERNAL)
    assert result.output_size > 0


@pytest.mark.parametrize("execution", PLANES)
@pytest.mark.parametrize("mode", COM_MODES, ids=str)
def test_collecting_run_builds_each_leaf_once(query, mode, execution,
                                              fan_outs):
    result = _run(make_small_catalog(), query, mode, execution, collect=True)
    assert fan_outs.leaf_builds() == sorted(LEAVES)
    assert fan_outs.internal_builds() == len(INTERNAL)
    # later reads find the built entries
    result.factorized.expand_all()
    list(result.factorized.expand_depth_first())
    assert fan_outs.leaf_builds() == sorted(LEAVES)


@pytest.mark.parametrize("execution", PLANES)
def test_parent_deaths_reach_a_leaf_without_building_it(query, execution,
                                                        fan_outs):
    """Under COM the R4 probe's misses kill R2 entries, whose deaths
    walk into the R3 leaf attached before (BVP and SJ filter those
    entries out before R3 is probed)."""
    factorized = _run(make_small_catalog(), query, ExecutionMode.COM,
                      execution, collect=False).factorized
    assert fan_outs.leaf_builds() == []
    assert factorized.nodes["R3"].dead > 0
    for rel in LEAVES:
        node = factorized.nodes[rel]
        assert node.is_deferred
        assert node.num_alive == int(node.live.sum())


@pytest.fixture
def chain_query():
    return JoinQuery("A", [
        JoinEdge("A", "B", "k", "k"),
        JoinEdge("B", "C", "j", "j"),
    ])


def _chain(chain_query, deferred):
    """A: 4 entries; B under A0, A1, A3; C a leaf probed from B."""
    result = FactorizedResult(chain_query, np.arange(4))
    b_lookup = HashIndex(np.asarray([0, 0, 1, 3, 3])).lookup(np.arange(4))
    lineage, matches = b_lookup.fan_out()
    result.add_node("B", matches, lineage, counts=b_lookup.counts)
    result.kill("A", [2])
    probed = np.flatnonzero(result.node("B").alive)
    c_lookup = HashIndex(np.asarray([4, 2, 0, 0, 3, 4, 4])).lookup(
        result.node("B").rows.take(probed))
    add = FactorizedResult.add_leaf if deferred else _eager_add_leaf
    add(result, "C", c_lookup, probed=probed)
    result.kill("B", np.flatnonzero(~c_lookup.matched_mask))
    return result


def _state(node):
    live = None if node.live is None else node.live.tolist()
    return (node.rows.tolist(), node.parent_ptr.tolist(),
            node.alive.tolist(), live, node.dead)


def test_a_walked_death_zeroes_live_and_builds_later(chain_query, fan_outs):
    deferred, eager = _chain(chain_query, True), _chain(chain_query, False)
    leaf = deferred.node("C")
    assert leaf.is_deferred
    deferred.kill("A", [0])
    eager.kill("A", [0])
    assert leaf.is_deferred and leaf.dead > 0
    assert fan_outs.leaf_builds() == []
    assert deferred.count_rows() == eager.count_rows()
    assert leaf.is_deferred
    for relation in ("A", "B", "C"):
        assert _state(deferred.node(relation)) == _state(eager.node(relation))
    assert not leaf.is_deferred
    assert fan_outs.leaf_builds() == ["C"]


def test_kill_on_a_leaf_builds_it_first(chain_query):
    deferred, eager = _chain(chain_query, True), _chain(chain_query, False)
    deferred.kill("C", [0, 3])
    eager.kill("C", [0, 3])
    assert not deferred.node("C").is_deferred
    for relation in ("A", "B", "C"):
        assert _state(deferred.node(relation)) == _state(eager.node(relation))
    assert deferred.expand_all().keys() == eager.expand_all().keys()
    for rel, rows in deferred.expand_all().items():
        assert rows.tolist() == eager.expand_all()[rel].tolist()


# ----------------------------------------------------------------------
# Equivalence with eagerly built leaves
# ----------------------------------------------------------------------


def _flat(batches):
    return [{rel: rows.tolist() for rel, rows in batch.items()}
            for batch in batches]


@pytest.mark.parametrize("collect", [False, True], ids=["count", "collect"])
@pytest.mark.parametrize("execution", PLANES)
@pytest.mark.parametrize("mode", ExecutionMode.all_modes(), ids=str)
def test_deferred_leaves_match_eager_leaves(catalog, query, mode, execution,
                                            collect, expected, eager_leaves):
    deferred = _run(catalog, query, mode, execution, collect)
    eager_leaves()
    eager = _run(catalog, query, mode, execution, collect)
    assert deferred.output_size == eager.output_size
    assert deferred.counters == eager.counters
    if collect:
        assert deferred.output_rows.keys() == eager.output_rows.keys()
        for rel, rows in eager.output_rows.items():
            assert deferred.output_rows[rel].tolist() == rows.tolist()
        if mode.factorized:
            assert sorted(zip(*(deferred.output_rows[rel].tolist()
                                for rel in query.relations))) == expected
    if deferred.factorized is None or collect:
        return
    ours, theirs = deferred.factorized, eager.factorized
    assert _flat(ours.expand(max_rows=5000)) == \
        _flat(theirs.expand(max_rows=5000))
    assert _flat([ours.expand_all()]) == _flat([theirs.expand_all()])
    if execution == "vectorized":
        assert list(ours.expand_depth_first()) == \
            list(theirs.expand_depth_first())


def _reference_weights(factorized):
    """The bottom-up pass with a ``bincount`` per child, leaves too."""
    weights = {}
    for relation in reversed(factorized._joined_preorder()):
        node = factorized.nodes[relation]
        w = node.alive.astype(np.float64)
        for child_rel in factorized._materialized_children(relation):
            child = factorized.nodes[child_rel]
            w *= np.bincount(child.parent_ptr, weights=weights[child_rel],
                             minlength=len(node))
        weights[relation] = w
    return weights


@pytest.mark.parametrize("execution", PLANES)
@pytest.mark.parametrize("mode", COM_MODES, ids=str)
def test_subtree_weights_match_the_bincount_reference(catalog, query, mode,
                                                      execution):
    factorized = _run(catalog, query, mode, execution,
                      collect=False).factorized
    weights = factorized.subtree_weights()
    assert set(weights) == {query.root} | INTERNAL
    assert all(factorized.nodes[rel].is_deferred for rel in LEAVES)
    reference = _reference_weights(factorized)
    for relation, w in weights.items():
        assert w.dtype == reference[relation].dtype
        assert w.tobytes() == reference[relation].tobytes()


# ----------------------------------------------------------------------
# A residual push-down kills leaf entries
# ----------------------------------------------------------------------


def _triangle_catalog():
    """``tests/core/test_cyclic.py``'s triangle data."""
    rng = np.random.default_rng(5)
    catalog = Catalog()
    catalog.add_table("A", {"x": rng.integers(0, 6, 30),
                            "z": rng.integers(0, 6, 30)})
    catalog.add_table("B", {"x": rng.integers(0, 6, 25),
                            "y": rng.integers(0, 6, 25)})
    catalog.add_table("C", {"y": rng.integers(0, 6, 20),
                            "z": rng.integers(0, 6, 20)})
    return catalog


@pytest.mark.parametrize("shards", [1, 2, 8])
@pytest.mark.parametrize("collect", [False, True], ids=["count", "collect"])
@pytest.mark.parametrize("execution", PLANES)
@pytest.mark.parametrize("mode", COM_MODES, ids=str)
def test_residual_push_down_builds_and_kills_a_leaf(mode, execution, collect,
                                                    shards, eager_leaves):
    plan = spanning_tree_decomposition(parse_query(TRIANGLE), driver="A")
    assert [plan.query.parent(rel) for rel in ("B", "C")] == ["A", "B"]
    base = _triangle_catalog()
    catalog = partitioned_catalog(base, plan.query, shards)
    expected = brute_force_triangle(base)

    def run():
        return execute_cyclic(catalog, plan, mode, collect_output=collect,
                              execution=execution)

    size, deferred, rows = run()
    assert size == len(expected)
    leaf = deferred.factorized.node("C")
    assert not leaf.is_deferred and leaf.dead > 0
    if collect:
        assert sorted(zip(*(rows[rel].tolist() for rel in "ABC"))) == expected
    eager_leaves()
    eager_size, eager, eager_rows = run()
    assert eager_size == size
    assert eager.counters == deferred.counters
    if collect:
        for rel in "ABC":
            assert rows[rel].tolist() == eager_rows[rel].tolist()


# ----------------------------------------------------------------------
# Base row ids and the checks of add_node
# ----------------------------------------------------------------------


@pytest.mark.parametrize("execution", PLANES)
def test_a_partitioned_leaf_builds_base_row_ids(query, execution):
    base = make_small_catalog()
    sharded = partitioned_catalog(base, query, 8)
    assert sharded is not base
    built = {}
    for catalog in (base, sharded):
        factorized = _run(catalog, query, ExecutionMode.COM, execution,
                          collect=False).factorized
        assert factorized.nodes["R3"].is_deferred
        built[catalog is base] = {
            rel: sorted(zip(factorized.nodes[rel].parent_ptr.tolist(),
                            factorized.nodes[rel].rows.tolist()))
            for rel in LEAVES
        }
    assert built[True] == built[False]


def _leaf_refusal(result, relation):
    lookup = HashIndex(np.asarray([0, 1])).lookup(np.asarray([0, 1]))
    with pytest.raises(ValueError) as excinfo:
        result.add_leaf(relation, lookup)
    return str(excinfo.value)


def _node_refusal(result, relation):
    with pytest.raises(ValueError) as excinfo:
        result.add_node(relation, np.asarray([0, 1]), np.asarray([0, 1]),
                        counts=np.asarray([1, 1]))
    return str(excinfo.value)


@pytest.mark.parametrize("relation, joined, match", [
    ("C", ["B", "C"], "already joined"),
    ("A", [], "already joined"),
    ("Z", [], "not a non-root relation"),
    ("C", [], "has not been joined yet"),
])
def test_attaching_a_leaf_refuses_what_add_node_refuses(chain_query,
                                                        relation, joined,
                                                        match):
    def fresh():
        result = FactorizedResult(chain_query, np.arange(2))
        for rel in joined:
            result.add_node(rel, np.asarray([0, 1]), np.asarray([0, 1]),
                            counts=np.asarray([1, 1]))
        return result

    message = _leaf_refusal(fresh(), relation)
    assert match in message
    assert message == _node_refusal(fresh(), relation)


def test_only_a_query_leaf_stays_a_probe(chain_query):
    result = FactorizedResult(chain_query, np.arange(2))
    assert "children in the query" in _leaf_refusal(result, "B")


@pytest.mark.parametrize("probed, match", [
    (np.asarray([1, 0]), "decreases"),
    (np.asarray([-1, 0]), r"leaves \[0, 2\)"),
])
def test_a_corrupt_pointer_raises_when_the_leaf_is_built(chain_query, probed,
                                                         match):
    result = FactorizedResult(chain_query, np.arange(2))
    result.add_node("B", np.asarray([0, 1]), np.asarray([0, 1]),
                    counts=np.asarray([1, 1]))
    lookup = HashIndex(np.asarray([0, 1])).lookup(np.asarray([0, 1]))
    leaf = result.add_leaf("C", lookup, probed=probed)
    for _ in range(2):
        with pytest.raises(ValueError, match=match):
            leaf.rows
    assert leaf.is_deferred
