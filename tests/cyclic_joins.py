"""Cyclic join-graph generators for the joint tree+order tests.

The acyclic scaling generators (:mod:`tests.large_joins`) stop where
the paper does — trees.  The planner's joint spanning-tree + join-order
search needs data-backed cyclic instances to optimize against, so this
module generates the three canonical cyclic shapes as
:class:`~repro.core.parser.ParsedQuery` objects (trees cannot represent
them) up to ~40 relations:

* :func:`cycle_query` — a ring: ``n`` relations, ``n`` predicates, one
  residual whatever tree is chosen (the minimal cyclic shape);
* :func:`clique_query` — every pair joined: ``n(n-1)/2`` predicates,
  ``n(n-1)/2 - (n-1)`` residuals — the dense extreme, where tree choice
  matters most;
* :func:`grid_query` — a ``rows x cols`` lattice: ``(rows-1)(cols-1)``
  independent cycles, the structured middle ground.

Conventions follow :mod:`tests.large_joins`: relations are
``R0..R{n-1}`` and the edge between ``Ri`` and ``Rj`` joins on a shared
column name ``k_{i}_{j}``.  :func:`cyclic_catalog` backs a query with
data the way :func:`~tests.large_joins.large_join_catalog`
does for trees — uniform integer keys — but draws each edge's key
domain from a caller-controlled range, so edge selectivities are
heterogeneous and spanning-tree choice is a real decision.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

from repro.core.parser import Contradiction, ParsedQuery, Placeholder
from repro.storage import Catalog


def _edge(i, j):
    """The canonical predicate joining ``Ri`` and ``Rj``."""
    lo, hi = sorted((i, j))
    attr = f"k_{lo}_{hi}"
    return (f"R{lo}", attr, f"R{hi}", attr)


def _query(num_relations, edges):
    relations = {f"R{i}": f"R{i}" for i in range(num_relations)}
    return ParsedQuery(
        relations=relations,
        join_predicates=[_edge(i, j) for i, j in edges],
    )


def cycle_query(num_relations):
    """A ring of ``num_relations`` relations (one redundant edge)."""
    if num_relations < 3:
        raise ValueError("a cycle query needs at least three relations")
    edges = [(i, (i + 1) % num_relations) for i in range(num_relations)]
    return _query(num_relations, edges)


def clique_query(num_relations):
    """Every relation pair joined — ``n(n-1)/2`` predicates."""
    if num_relations < 3:
        raise ValueError("a clique query needs at least three relations")
    edges = [
        (i, j)
        for i in range(num_relations)
        for j in range(i + 1, num_relations)
    ]
    return _query(num_relations, edges)


def grid_query(num_rows, num_cols):
    """A ``num_rows x num_cols`` lattice of relations.

    Horizontal and vertical neighbours are joined; every unit square is
    an independent cycle, so a spanning tree leaves
    ``(num_rows - 1) * (num_cols - 1)`` residuals.
    """
    if num_rows < 1 or num_cols < 1:
        raise ValueError("grid dimensions must be positive")
    if num_rows * num_cols < 4 or min(num_rows, num_cols) < 2:
        raise ValueError("a cyclic grid needs at least 2 x 2 relations")

    def at(r, c):
        return r * num_cols + c

    edges = []
    for r in range(num_rows):
        for c in range(num_cols):
            if c + 1 < num_cols:
                edges.append((at(r, c), at(r, c + 1)))
            if r + 1 < num_rows:
                edges.append((at(r, c), at(r + 1, c)))
    return _query(num_rows * num_cols, edges)


def _grid_for(num_relations):
    """The most-square ``rows x cols >= 2 x 2`` grid of ``n`` relations."""
    for rows in range(int(math.isqrt(num_relations)), 1, -1):
        if num_relations % rows == 0:
            return grid_query(rows, num_relations // rows)
    raise ValueError(
        f"no 2-row-or-deeper grid has exactly {num_relations} relations; "
        f"pick a composite size"
    )


#: shape name -> generator taking one ``num_relations`` argument
CYCLIC_SHAPES = {
    "cycle": cycle_query,
    "clique": clique_query,
    "grid": _grid_for,
}


def cyclic_catalog(parsed, rows_per_relation=256, key_domain=(64, 512),
                   seed=0, skew=None):
    """Random data backing a cyclic query's schema.

    Every relation gets ``rows_per_relation`` rows with one key column
    per incident join predicate.  ``key_domain`` is either a fixed int
    or an inclusive ``(low, high)`` range from which each *edge* draws
    its own domain — a small domain makes the edge unselective (pair
    selectivity ``~1/domain``), so drawn domains give the heterogeneous
    selectivities that make the joint tree search a real decision.

    ``skew`` (default ``None`` — uniform keys, bit-identical to older
    releases for a fixed seed) draws each key column from a power law
    instead: key ``v`` has probability proportional to
    ``1 / (v + 1) ** skew``.  Skewed keys concentrate matches on a few
    heavy values, the regime where tree+filter plans materialize large
    intermediates and the worst-case-optimal strategy pays off.
    """
    if rows_per_relation < 1:
        raise ValueError(
            f"rows_per_relation must be >= 1, got {rows_per_relation}"
        )
    if skew is not None and skew <= 0:
        raise ValueError(f"skew must be positive (or None), got {skew}")

    def draw_keys(rng, domain):
        if skew is None:
            return rng.integers(0, domain, rows_per_relation)
        weights = 1.0 / np.arange(1, domain + 1, dtype=np.float64) ** skew
        return rng.choice(domain, size=rows_per_relation,
                          p=weights / weights.sum())

    rng = np.random.default_rng(seed)
    columns = {alias: {} for alias in parsed.relations}
    for rel_a, attr_a, rel_b, attr_b in parsed.join_predicates:
        if isinstance(key_domain, int):
            domain = key_domain
        else:
            low, high = key_domain
            domain = int(rng.integers(low, high + 1))
        for alias, attr in ((rel_a, attr_a), (rel_b, attr_b)):
            if attr not in columns[alias]:
                columns[alias][attr] = draw_keys(rng, domain)
    catalog = Catalog()
    for alias, table_name in parsed.relations.items():
        if not columns[alias]:  # isolated relation: payload column
            columns[alias]["k"] = rng.integers(0, 64, rows_per_relation)
        catalog.add_table(table_name, columns[alias])
    return catalog


def _literal_sql(literal):
    if isinstance(literal, Placeholder):
        return "?"
    if isinstance(literal, Contradiction):
        raise ValueError("a contradictory selection has no SQL rendering")
    if isinstance(literal, str):
        return f"'{literal}'"
    return str(literal)


def to_sql(parsed):
    """Render a :class:`ParsedQuery` back to the supported SQL dialect.

    Useful for pushing generated cyclic queries through the full text
    path (parser, normalized plan-cache keys, service front ends).
    """
    relations = ", ".join(
        name if alias == name else f"{name} as {alias}"
        for alias, name in parsed.relations.items()
    )
    conjuncts = [
        f"{rel_a}.{attr_a} = {rel_b}.{attr_b}"
        for rel_a, attr_a, rel_b, attr_b in parsed.join_predicates
    ]
    conjuncts.extend(
        f"{alias}.{column} = {_literal_sql(literal)}"
        for alias, predicate in parsed.selections.items()
        for column, literal in predicate.items()
    )
    sql = f"select * from {relations}"
    if conjuncts:
        sql += " where " + " and ".join(conjuncts)
    return sql


def cyclic_scaling_suite(sizes, shapes=("cycle", "clique", "grid"), seed=0,
                         rows_per_relation=256, key_domain=(64, 512),
                         skew=None):
    """Generate ``(shape, n, parsed, catalog)`` cases for a sweep.

    One data-backed case per (shape, size); the data seed varies per
    case so sweeps do not accidentally reuse one selectivity draw.
    Clique sizes grow ``O(n^2)`` predicates — pass smaller sizes for
    that shape.  ``skew`` is :func:`cyclic_catalog`'s.
    """
    cases = []
    for shape in shapes:
        build = CYCLIC_SHAPES[shape]
        for offset, n in enumerate(sizes):
            case_seed = seed + 1000 * len(cases) + offset
            parsed = build(n)
            catalog = cyclic_catalog(
                parsed, rows_per_relation=rows_per_relation,
                key_domain=key_domain, seed=case_seed, skew=skew,
            )
            cases.append((shape, n, parsed, catalog))
    return cases


def spanning_tree_cap(cap):
    """Cap the planner's joint tree + order search at ``cap`` candidate
    spanning trees for a ``with`` block (``1`` pins the greedy Kruskal
    tree); :data:`repro.core.cyclic.MAX_SPANNING_TREES` is the cap
    otherwise."""
    return mock.patch("repro.planner.MAX_SPANNING_TREES", cap)
