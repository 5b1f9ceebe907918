"""Large join-graph generators for the optimizer-scaling tests.

The paper's evaluation stops at ~20 relations — the exhaustive DP's
practical reach — but production workloads (e.g. the PostBOUND
harnesses over JOB / STATS) routinely optimize 30-60-relation join
graphs.  This module generates the three canonical shapes at that
scale, with controllable selectivities:

* :func:`chain_query` — a path with the driver at one end (the DP's
  *easy* case: connected prefixes are linear in ``n``);
* :func:`star_query` — driver plus ``n - 1`` independent dimensions
  (the DP's ``O(n 2^n)`` *worst* case: every subset is connected);
* :func:`random_tree_query` — random attachment trees between those
  extremes, with bounded branching.

Conventions match :mod:`repro.workloads.shapes`: the driver is ``R0``,
a child joins its parent on ``parent.k_<child> = child.k``.
:func:`large_query_stats` draws per-edge ``(m, fo)`` uniformly from
caller-controlled ranges, so one can dial the workload from highly
selective (``m * fo`` well below 1) to exploding intermediates.
"""

from __future__ import annotations

import numpy as np

from repro.core import EdgeStats, JoinEdge, JoinQuery, QueryStats
from repro.storage import Catalog


def _edge(parent, child):
    return JoinEdge(parent, child, f"k_{child}", "k")


def chain_query(num_relations, driver="R0"):
    """A chain of ``num_relations`` relations, driver at one end."""
    if num_relations < 2:
        raise ValueError("a chain query needs at least two relations")
    names = [driver] + [f"R{i}" for i in range(1, num_relations)]
    edges = [_edge(names[i], names[i + 1]) for i in range(num_relations - 1)]
    return JoinQuery(driver, edges)


def star_query(num_relations, driver="R0"):
    """A star: the driver joined with ``num_relations - 1`` dimensions."""
    if num_relations < 2:
        raise ValueError("a star query needs at least two relations")
    edges = [_edge(driver, f"R{i}") for i in range(1, num_relations)]
    return JoinQuery(driver, edges)


def random_tree_query(num_relations, seed=0, max_children=3, driver="R0"):
    """A random attachment tree with bounded branching.

    Each new relation picks a uniform-random parent among the nodes
    that still have fewer than ``max_children`` children, so the shape
    interpolates between chain (``max_children=1``) and star
    (``max_children >= num_relations``).
    """
    if num_relations < 2:
        raise ValueError("a random tree query needs at least two relations")
    if max_children < 1:
        raise ValueError(f"max_children must be >= 1, got {max_children}")
    rng = np.random.default_rng(seed)
    child_count = {driver: 0}
    edges = []
    for i in range(1, num_relations):
        open_nodes = [n for n, c in child_count.items() if c < max_children]
        parent = open_nodes[int(rng.integers(len(open_nodes)))]
        child = f"R{i}"
        edges.append(_edge(parent, child))
        child_count[parent] += 1
        child_count[child] = 0
    return JoinQuery(driver, edges)


#: shape name -> generator taking (num_relations, **kwargs)
LARGE_SHAPES = {
    "chain": chain_query,
    "star": star_query,
    "random_tree": random_tree_query,
}


def large_query_stats(
    query,
    m_range=(0.1, 0.9),
    fo_range=(1.0, 4.0),
    driver_size=1_000.0,
    seed=0,
):
    """Uniform-random :class:`QueryStats` with controllable selectivity.

    Per-edge match probability ``m`` and fanout ``fo`` are drawn
    uniformly from the given ranges (selectivity is ``m * fo``); narrow
    the ranges to pin the workload's blow-up behaviour.
    """
    rng = np.random.default_rng(seed)
    edge_stats = {
        relation: EdgeStats(
            m=float(rng.uniform(*m_range)),
            fo=float(rng.uniform(*fo_range)),
        )
        for relation in query.non_root_relations
    }
    return QueryStats(float(driver_size), edge_stats)


def large_join_catalog(query, rows_per_relation=256, key_domain=64, seed=0):
    """Random data backing a large join query's schema.

    Every relation gets :data:`rows_per_relation` rows; a non-root
    relation carries its join key column ``k`` and every relation
    carries one ``k_<child>`` column per child, all drawn uniformly
    from ``[0, key_domain)`` — so joins have realistic
    (many-to-many) match probabilities and fanouts that differ per
    probe direction.  This is what lets planner-level experiments
    (driver search, service benchmarks) run 40-relation queries
    against *actual data* instead of synthetic :class:`QueryStats`.
    """
    if rows_per_relation < 1:
        raise ValueError(
            f"rows_per_relation must be >= 1, got {rows_per_relation}"
        )
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    for relation in query.preorder():
        columns = {}
        if relation != query.root:
            columns[query.edge_to(relation).child_attr] = rng.integers(
                0, key_domain, rows_per_relation
            )
        for child in query.children(relation):
            columns[query.edge_to(child).parent_attr] = rng.integers(
                0, key_domain, rows_per_relation
            )
        if not columns:  # single-relation query: give the driver payload
            columns["k"] = rng.integers(0, key_domain, rows_per_relation)
        catalog.add_table(relation, columns)
    return catalog


def scaling_suite(sizes, shapes=("chain", "star", "random_tree"), seed=0,
                  **stats_kwargs):
    """Generate ``(shape, n, query, stats)`` cases for a scaling sweep.

    One case per (shape, size); the stats seed varies per case so
    sweeps do not accidentally reuse one selectivity draw.
    """
    cases = []
    for shape in shapes:
        build = LARGE_SHAPES[shape]
        for offset, n in enumerate(sizes):
            case_seed = seed + 1000 * len(cases) + offset
            if shape == "random_tree":
                query = build(n, seed=case_seed)
            else:
                query = build(n)
            stats = large_query_stats(query, seed=case_seed, **stats_kwargs)
            cases.append((shape, n, query, stats))
    return cases
