"""Shared test helpers: the paper's running example, reference
evaluators, and the checks every planner-produced plan must pass.

Importable as ``tests.helpers`` from every test package (``tests`` is a
regular package), replacing the former ``from ..conftest import ...``
pattern that broke collection when test directories were not packages.
Fixtures built on these factories live in ``tests/conftest.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import os
from collections import Counter
from pathlib import Path

import numpy as np

from repro.core import EdgeStats, JoinEdge, JoinQuery, QueryStats
from repro.core.costmodel import CostWeights
from repro.core.parser import Contradiction
from repro.modes import ExecutionMode
from repro.storage import Catalog

#: repository src/ directory (the package lives in src-layout)
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def subprocess_env():
    """A child-process environment that can ``import repro``.

    Prepends the repository ``src/`` directory to ``PYTHONPATH`` so
    subprocess-based tests (examples, CLI) work both against an
    installed package and a bare checkout.
    """
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{existing}" if existing else str(SRC_DIR)
    )
    return env

# ----------------------------------------------------------------------
# The paper's running example (Figure 1): R1 drives; R2 and R5 join on
# R1's attributes; R3, R4 join on R2's; R6 joins on R5's.
# ----------------------------------------------------------------------

RUNNING_EXAMPLE_M = {"R2": 0.3, "R3": 0.4, "R4": 0.5, "R5": 0.6, "R6": 0.7}
RUNNING_EXAMPLE_FO = {"R2": 3.0, "R3": 2.0, "R4": 4.0, "R5": 5.0, "R6": 2.0}


def make_running_example_query():
    return JoinQuery(
        "R1",
        [
            JoinEdge("R1", "R2", "B", "B"),
            JoinEdge("R2", "R3", "C", "C"),
            JoinEdge("R2", "R4", "D", "D"),
            JoinEdge("R1", "R5", "E", "E"),
            JoinEdge("R5", "R6", "F", "F"),
        ],
    )


def make_running_example_stats():
    return QueryStats(
        1000.0,
        {
            rel: EdgeStats(RUNNING_EXAMPLE_M[rel], RUNNING_EXAMPLE_FO[rel])
            for rel in RUNNING_EXAMPLE_M
        },
        relation_sizes={
            "R1": 1000, "R2": 800, "R3": 600,
            "R4": 500, "R5": 700, "R6": 400,
        },
    )


# ----------------------------------------------------------------------
# Small concrete data for engine tests
# ----------------------------------------------------------------------


def make_small_catalog(seed=42, driver_rows=60):
    """A random instantiation of the running example's schema."""
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.add_table("R1", {
        "A": np.arange(driver_rows),
        "B": rng.integers(0, 8, driver_rows),
        "E": rng.integers(0, 6, driver_rows),
    })
    catalog.add_table("R2", {
        "B": rng.integers(0, 10, 50),
        "C": rng.integers(0, 7, 50),
        "D": rng.integers(0, 9, 50),
    })
    catalog.add_table("R3", {"C": rng.integers(0, 9, 40), "G": rng.integers(0, 5, 40)})
    catalog.add_table("R4", {"D": rng.integers(0, 11, 30), "H": rng.integers(0, 5, 30)})
    catalog.add_table("R5", {"E": rng.integers(0, 8, 35), "F": rng.integers(0, 6, 35)})
    catalog.add_table("R6", {"F": rng.integers(0, 8, 25), "K": rng.integers(0, 5, 25)})
    return catalog


# ----------------------------------------------------------------------
# Fault injection: a catalog whose statistics lie
# ----------------------------------------------------------------------


class _LyingIndex:
    """Index proxy that lies to statistics derivation only.

    ``probe_stats`` — the seam :func:`repro.core.stats.stats_from_data`
    measures edge selectivities through — reports counts scaled by the
    corruption factor.  Everything execution touches (``lookup``,
    ``iter_groups``, ``key_dtype``) and the max-frequency statistic the
    pessimistic bounds are built on (``max_group_size``) delegate
    truthfully, so plans built from the lies still compute correct
    results and the guaranteed bounds stay sound — which is exactly the
    failure mode the robustness knob is for.
    """

    def __init__(self, index, factor):
        self._index = index
        self._factor = float(factor)

    def __getattr__(self, name):
        return getattr(self._index, name)

    def probe_stats(self, keys):
        matched, total = self._index.probe_stats(keys)
        scaled_matched = int(round(matched * self._factor))
        if matched > 0:
            # a lie must not claim an empty edge (the planner would
            # prune it outright instead of mis-ordering it)
            scaled_matched = max(1, scaled_matched)
        scaled_matched = min(len(keys), scaled_matched)
        scaled_total = max(scaled_matched, int(round(total * self._factor)))
        return scaled_matched, scaled_total


class StatsCorruptingCatalog:
    """Catalog wrapper whose derived statistics are off by factor ``k``.

    ``factors`` maps relation name -> multiplicative corruption of the
    edge measurements statistics derivation makes against that
    relation's indexes: ``k < 1`` makes the relation look *more*
    selective than it is (the classic underestimate that explodes at
    runtime), ``k > 1`` less.  Only planning beliefs are corrupted —
    execution probes the truthful indexes underneath, so results stay
    bit-identical to the clean catalog's.

    ``fingerprint`` is salted with the corruption so plan/stats caches
    never alias corrupted entries with clean ones, and ``derived_with``
    re-wraps so the corruption survives the planner's partitioning
    rewrite.  Works for :class:`~repro.core.JoinQuery` planning (parsed
    queries with selections build their own pushed-down catalog).
    """

    def __init__(self, catalog, factors):
        self._catalog = catalog
        self._factors = {name: float(k) for name, k in factors.items()}
        # one proxy per (relation, attribute): the interpreted kernels
        # key per-index view caches on object identity
        self._proxies = {}

    def __getattr__(self, name):
        return getattr(self._catalog, name)

    def __contains__(self, name):
        return name in self._catalog

    def hash_index(self, table_name, attribute):
        factor = self._factors.get(table_name, 1.0)
        if factor == 1.0:
            return self._catalog.hash_index(table_name, attribute)
        key = (table_name, attribute)
        proxy = self._proxies.get(key)
        if proxy is None:
            proxy = _LyingIndex(
                self._catalog.hash_index(table_name, attribute), factor
            )
            self._proxies[key] = proxy
        return proxy

    def fingerprint(self):
        salt = ",".join(
            f"{name}:{factor}"
            for name, factor in sorted(self._factors.items())
        )
        return f"{self._catalog.fingerprint()}|corrupted[{salt}]"

    def derived_with(self, replacements):
        return StatsCorruptingCatalog(
            self._catalog.derived_with(replacements), self._factors
        )


# ----------------------------------------------------------------------
# Reference order objective: the optimizer's delta costs, unmemoized
# ----------------------------------------------------------------------
#
# Written straight from Sections 3.3 / 3.5 over plain name sets, with no
# memo and no masks, in the canonical multiplication order the cost
# model promises: along the root -> parent path, at each node, joined
# children in declared order, then bitvector-checked (pseudo) children
# in declared order.  Equal arithmetic order means equal floats, so the
# optimizers must match this reference exactly, not approximately.


def _reference_m_eff(stats, relation, eps):
    return min(stats.m(relation) + eps, 1.0)


def _reference_survival(query, stats, node, joined, pseudo, eps):
    """``m_T`` of ``node``'s joined subtree (Section 3.3 recursion)."""
    children = query.children(node)
    factors = [_reference_survival(query, stats, child, joined, pseudo, eps)
               for child in children if child in joined]
    factors += [_reference_m_eff(stats, child, eps)
                for child in children if child in pseudo]
    m = 1.0 if node == query.root else stats.m(node)
    if not factors:
        return m
    product = 1.0
    for factor in factors:
        product *= factor
    fo = 1.0 if node == query.root else stats.fo(node)
    return m * (1.0 - (1.0 - product) ** fo)


def _reference_eq1(query, stats, parent, joined, pseudo, eps):
    """Equation (1), with bitvector pseudo children (Section 3.5)."""
    path = list(reversed(query.path_to_root(parent)))
    probes = stats.driver_size
    for node in path:
        if node != query.root:
            probes *= stats.m(node) * stats.fo(node)
        branches = [c for c in query.children(node) if c not in path]
        for child in branches:
            if child in joined:
                probes *= _reference_survival(query, stats, child, joined,
                                              pseudo, eps)
        for child in branches:
            if child in pseudo:
                probes *= _reference_m_eff(stats, child, eps)
    return probes


def _reference_stream(query, stats, joined):
    """STD's materialized stream: ``N * prod s`` in declared order."""
    product = 1.0
    for relation in query.non_root_relations:
        if relation in joined:
            product *= stats.selectivity(relation)
    return stats.driver_size * product


def reference_delta_cost(query, stats, joined, relation, mode, eps, weights):
    """Cost of joining ``relation`` after the name set ``joined``."""
    c = stats.probe_cost(relation)
    parent = query.parent(relation)
    if mode is ExecutionMode.STD:
        return _reference_stream(query, stats, joined) * c * weights.hash_probe
    if mode is ExecutionMode.COM:
        probes = _reference_eq1(query, stats, parent, joined, set(), eps)
        return probes * c * weights.hash_probe
    # BVP: every unjoined relation whose parent is joined has been checked
    pseudo = [r for r in query.non_root_relations
              if r not in joined and query.parent(r) in joined]
    if mode is ExecutionMode.BVP_COM:
        hash_probes = _reference_eq1(query, stats, parent, joined,
                                     set(pseudo), eps)
    else:
        hash_probes = _reference_stream(query, stats, joined)
        for checked in pseudo:
            hash_probes *= _reference_m_eff(stats, checked, eps)
    checks = sorted(query.children(relation), key=stats.m)
    bv_probes = 0.0
    if checks:
        after = joined | {relation}
        rest = [r for r in pseudo if r != relation]
        if mode is ExecutionMode.BVP_COM:
            alive = _reference_eq1(query, stats, relation, after, set(rest),
                                   eps)
        else:
            alive = _reference_stream(query, stats, after)
            for checked in rest:
                alive *= _reference_m_eff(stats, checked, eps)
        for child in checks:
            bv_probes += alive
            alive *= _reference_m_eff(stats, child, eps)
    return hash_probes * c * weights.hash_probe \
        + bv_probes * weights.bitvector_probe


def reference_optimum(query, stats, mode, eps=0.01, weights=CostWeights()):
    """``(order, cost)`` minimizing the summed reference deltas over the
    orders of ``all_orders()``.

    A reference delta depends only on the joined *set*, so the cheapest
    completion of a prefix does not depend on the prefix's order: each
    joined name set keeps only its cheapest prefix (the earlier one in
    ``all_orders()`` order on a tie), keyed by a ``frozenset``.  That
    is ``O(2^n)`` states instead of ``O(n!)`` orders, and the costs are
    summed left to right exactly as an enumeration would sum them.
    """
    position = {rel: i for i, rel in enumerate(query.non_root_relations)}
    # joined set -> (cost, order, order as all_orders() sort key)
    level = {frozenset([query.root]): (0.0, [], ())}
    for _ in query.non_root_relations:
        following = {}
        for joined, (cost, order, key) in level.items():
            for relation in query.eligible_next(order):
                total = cost + reference_delta_cost(
                    query, stats, joined, relation, mode, eps, weights
                )
                entry = (total, order + [relation],
                         key + (position[relation],))
                after = joined | {relation}
                held = following.get(after)
                if held is None or entry[0] < held[0] or (
                        entry[0] == held[0] and entry[2] < held[2]):
                    following[after] = entry
        level = following
    ((cost, order, _),) = level.values()
    return order, cost


# ----------------------------------------------------------------------
# Brute-force reference evaluator
# ----------------------------------------------------------------------


def brute_force_join(catalog, query):
    """Evaluate the join naively; returns sorted row-index tuples.

    Tuple component order follows ``query.relations``.  Exponential —
    only for small test inputs.
    """
    tables = {rel: catalog.table(rel) for rel in query.relations}
    rows = [{query.root: i} for i in range(len(tables[query.root]))]
    for edge in query.edges:
        parent_col = tables[edge.parent].column(edge.parent_attr)
        child_col = tables[edge.child].column(edge.child_attr)
        new_rows = []
        for partial in rows:
            value = parent_col[partial[edge.parent]]
            for j in np.nonzero(child_col == value)[0]:
                extended = dict(partial)
                extended[edge.child] = int(j)
                new_rows.append(extended)
        rows = new_rows
    return sorted(
        tuple(partial[rel] for rel in query.relations) for partial in rows
    )


def result_tuples(result, query):
    """Sorted row-index tuples from an ExecutionResult with output."""
    if result.output_rows is None:
        raise AssertionError("execute() was not asked to collect output")
    columns = [result.output_rows[rel].tolist() for rel in query.relations]
    return sorted(zip(*columns)) if columns and len(columns[0]) else []


def two_sweep_alive(factorized, masks=None):
    """The alive masks a whole-tree death propagation derives from
    ``masks`` (default: the factorized result's own), without touching
    the result — the reference :meth:`FactorizedResult.kill` answers to.

    Upward: a parent entry must have at least one alive child entry in
    every joined child node.  Downward: entries whose parent entry is
    dead are dead.  Two sweeps suffice because the structure is a tree.
    """
    query = factorized.query
    nodes = factorized.nodes
    if masks is None:
        masks = {rel: node.alive for rel, node in nodes.items()}
    masks = {rel: np.array(mask, dtype=bool) for rel, mask in masks.items()}
    joined = [rel for rel in query.preorder() if rel in nodes]
    for rel in reversed(joined):
        for child in query.children(rel):
            if child in nodes:
                counts = np.bincount(nodes[child].parent_ptr[masks[child]],
                                     minlength=len(nodes[rel]))
                masks[rel] &= counts > 0
    for rel in joined:
        if rel != query.root:
            parent = masks[query.parent(rel)]
            masks[rel] &= parent[nodes[rel].parent_ptr]
    return masks


def attach_node(factorized, relation, rows, parent_ptr):
    """``factorized.add_node`` with the per-parent-entry counts a probe
    of every parent entry would report — how the executor attaches a
    join's matches.  Children go under alive parent entries only: the
    executor kills a probe's misses, it never attaches under them."""
    parent = factorized.node(factorized.query.parent(relation))
    parent_ptr = np.asarray(parent_ptr, dtype=np.int64)
    assert parent.alive[parent_ptr].all(), "child under a dead parent entry"
    return factorized.add_node(
        relation, rows, parent_ptr,
        counts=np.bincount(parent_ptr, minlength=len(parent)))


def live_recount(factorized, relation):
    """``live`` of ``relation``'s node, recounted from the masks."""
    node = factorized.node(relation)
    parent = factorized.node(factorized.query.parent(relation))
    return np.bincount(node.parent_ptr[node.alive], minlength=len(parent))


class KillingWorkerPool:
    """Fault-injection wrapper: a worker pool that murders chosen workers.

    Behaves exactly like :class:`repro.distributed.WorkerPool` except
    that the first time a fragment is bound for a worker in ``victims``,
    the worker process is killed (a poison task calls ``os._exit``)
    before the fragment is submitted — so the fragment future surfaces
    ``BrokenProcessPool`` exactly as a mid-query death would.  Install
    via ``session._worker_pool_factory`` (partially applied over
    ``victims``) to exercise the sibling-retry path deterministically.
    """

    def __init__(self, *args, victims=(), **kwargs):
        from repro.distributed import WorkerPool

        self._pool = WorkerPool(*args, **kwargs)
        self.victims = set(victims)
        self.kills = 0

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def _submit(self, worker, fn, *args):
        from repro.distributed.workerpool import _execute_fragment

        if fn is _execute_fragment and worker in self.victims:
            self.victims.discard(worker)
            self.kills += 1
            executor = self._pool._executor(worker)
            # the poison pill: the worker process exits mid-"task", so
            # every later future on this executor breaks
            executor.submit(os._exit, 13)
        return self._pool._submit(worker, fn, *args)

    def run(self, *args, **kwargs):
        # delegate explicitly so WorkerPool.run's internal _submit calls
        # dispatch through this wrapper, not the wrapped pool
        from repro.distributed import WorkerPool

        return WorkerPool.run.__get__(self)(*args, **kwargs)


def killing_pool_factory(victims, **overrides):
    """A ``session._worker_pool_factory`` that kills ``victims`` once.

    ``overrides`` are forced onto the pool's constructor kwargs (e.g.
    ``max_retries=0`` to pin the no-retry failure path).
    """

    def factory(*args, **kwargs):
        kwargs.update(overrides)
        return KillingWorkerPool(*args, victims=victims, **kwargs)

    return factory


# ----------------------------------------------------------------------
# Checks on the planner's code: what every plan it produces satisfies.
# They run over the benchmark pools in tier-1, not on every request.
# ----------------------------------------------------------------------


def _undirected(rel_a, attr_a, rel_b, attr_b):
    """Direction-free key of an equality predicate."""
    ends = sorted([(rel_a, attr_a), (rel_b, attr_b)])
    return ends[0] + ends[1]


def stated_predicates(parsed):
    """The parsed join predicates, as an undirected multiset."""
    return Counter(_undirected(*p) for p in parsed.join_predicates)


def predicate_coverage(plan):
    """The plan's tree edges plus residuals, as an undirected multiset.

    Equal to :func:`stated_predicates` of the planned query exactly when
    no predicate is dropped (``PRED001``), covered twice (``PRED002``)
    or invented (``PRED003``).
    """
    return Counter(
        _undirected(*sides) for sides in plan.query.undirected_edges()
        + [residual.key for residual in plan.residuals]
    )


def unpushed_selections(plan, parsed):
    """``(alias, column)`` of every constant selection that some row of
    the plan's derived catalog violates (``PRED004``); a
    :class:`Contradiction` must have left its relation empty."""
    found = []
    for alias, predicate in sorted(parsed.selections.items()):
        table = plan.catalog.table(alias)
        for column, literal in sorted(predicate.items()):
            if isinstance(literal, Contradiction):
                holds = len(table) == 0
            else:
                holds = bool(np.all(table.column(column) == literal))
            if not holds:
                found.append((alias, column))
    return found


class _Probe:
    """A value no real plan or request holds — as a catalog (by its
    fingerprint), a residual (by its key) or a wcoj variable."""

    key = "__probe__"

    @staticmethod
    def fingerprint():
        return "__probe_catalog__"

    def __iter__(self):
        return iter((self.key,))


def _perturbed(value):
    """A value of the same shape as ``value`` that differs from it."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):  # ExecutionMode included
        return value + "~"
    if isinstance(value, tuple) and value:
        return value[:-1]
    return (_Probe(),)


def _bypassing_checks(obj, **changes):
    """A copy of a frozen dataclass with ``changes`` set directly, so no
    construction check runs — only the digest is of interest."""
    clone = copy.copy(obj)
    for name, value in changes.items():
        object.__setattr__(clone, name, value)
    return clone


def fingerprint_blind_fields(plan):
    """The plan parts :meth:`PhysicalPlan.fingerprint` ignores
    (``FP004``): the rooted tree, the catalog and each field the spec
    declares a *decision* are perturbed in turn, and a part whose
    perturbation leaves the digest unchanged is named."""
    baseline = plan.fingerprint()
    mutated = [("catalog", _bypassing_checks(plan, catalog=_Probe()))]
    if plan.query.num_relations >= 2:
        rerooted = plan.query.rerooted(plan.query.edges[0].child)
        mutated.append(("query", _bypassing_checks(plan, query=rerooted)))
    for spec_field in dataclasses.fields(plan.spec):
        if spec_field.metadata["role"] == "decision":
            value = _perturbed(getattr(plan.spec, spec_field.name))
            spec = _bypassing_checks(plan.spec, **{spec_field.name: value})
            mutated.append((spec_field.name,
                            _bypassing_checks(plan, spec=spec)))
    return [name for name, other in mutated
            if other.fingerprint() == baseline]


def unkeyed_planner_parameters():
    """Named ``Planner.__init__`` / ``Planner.plan`` parameters that are
    not :class:`~repro.options.PlanOptions` fields (``FP003``): a knob
    taken that way bypasses the plan-cache key."""
    from repro.options import PlanOptions
    from repro.planner import Planner

    allowed = {spec.name for spec in dataclasses.fields(PlanOptions)} \
        | {"self", "catalog", "stats_cache", "query"}
    return [
        name for func in (Planner.__init__, Planner.plan)
        for name, parameter in inspect.signature(func).parameters.items()
        if parameter.kind is not inspect.Parameter.VAR_KEYWORD
        and name not in allowed
    ]


def cache_token_disagreements():
    """Fields of a resolved request whose :meth:`cache_token` reaction
    disagrees with their declared key role (``FP003``): a keyed field
    the token ignores, or an exempt one it reacts to."""
    from repro.options import ResolvedOptions

    resolved = ResolvedOptions()
    baseline = resolved.cache_token()
    return [
        spec.name for spec in dataclasses.fields(resolved)
        if (dataclasses.replace(resolved, **{spec.name: _Probe()})
            .cache_token() != baseline) == (spec.metadata["key"] == "exempt")
    ]
