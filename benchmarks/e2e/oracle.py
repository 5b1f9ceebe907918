"""Independent answers to check the program against.

Result sizes are computed with NumPy alone, no ``repro`` engine code,
so an engine bug cannot hide in its own reference: :func:`join_size`
by leaf-to-root key-count message passing for acyclic queries,
:func:`cyclic_join_size` by a relation-at-a-time join that enforces
every predicate as soon as both sides are present.  (The program's own
interpreted tree+filter path cannot serve as the cyclic reference: on
the skewed dense shapes it overruns the 50M-tuple budget, which is the
reason the wcoj strategy exists.)  Only the distributed row checksums
come from the program — from a local, unpartitioned session.
"""

from __future__ import annotations

import numpy as np


def join_size(tables, query):
    """Result size of an acyclic :class:`gen.Query` over ``tables``.

    Roots the join tree at the first relation.  Each relation's rows
    carry a weight — the number of result tuples of the subtree below
    that row; a child sends its parent the weight sum per join key, the
    parent multiplies what its children send.  Selections zero the
    weight of rows that fail them.
    """
    neighbours = {relation: [] for relation in query.relations}
    for rel_a, col_a, rel_b, col_b in query.joins:
        neighbours[rel_a].append((col_a, rel_b, col_b))
        neighbours[rel_b].append((col_b, rel_a, col_a))
    if len(query.joins) != len(query.relations) - 1:
        raise ValueError("join_size needs a tree-shaped (acyclic) query")

    def weights(relation, came_from):
        columns = tables[relation]
        weight = np.ones(len(next(iter(columns.values()))), dtype=np.float64)
        for rel, col, constant in query.selections:
            if rel == relation:
                weight *= columns[col] == constant
        for own_col, other, other_col in neighbours[relation]:
            if other == came_from:
                continue
            child_weight = weights(other, relation)
            keys, inverse = np.unique(tables[other][other_col],
                                      return_inverse=True)
            per_key = np.bincount(inverse, weights=child_weight,
                                  minlength=len(keys))
            probe = columns[own_col]
            slot = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
            weight *= np.where(keys[slot] == probe, per_key[slot], 0.0)
        return weight

    # float64 sums are exact below 2**53, far above any size here
    return int(round(weights(query.relations[0], None).sum()))


def cyclic_join_size(tables, query):
    """Result size of any connected equi-join, cycles included.

    Joins the relations in the order the query lists them (each must
    share a predicate with the ones before it).  A new relation is
    matched on *all* its predicates with the joined set at once, as one
    composite key, so no intermediate holds a tuple that a later check
    of an already-present pair would discard.
    """
    first = query.relations[0]
    joined = {first: np.arange(len(next(iter(tables[first].values()))))}
    for relation in query.relations[1:]:
        links = []      # (new relation's column, joined relation, column)
        for rel_a, col_a, rel_b, col_b in query.joins:
            if rel_a == relation and rel_b in joined:
                links.append((col_a, rel_b, col_b))
            elif rel_b == relation and rel_a in joined:
                links.append((col_b, rel_a, col_a))
        if not links:
            raise ValueError(f"{relation} joins nothing listed before it")
        build = np.zeros(len(next(iter(tables[relation].values()))),
                         dtype=np.int64)
        probe = np.zeros(len(joined[first]), dtype=np.int64)
        radix = 1
        for own_col, other, other_col in links:
            own = tables[relation][own_col]
            theirs = tables[other][other_col][joined[other]]
            low = min(own.min(), theirs.min()) if len(theirs) else own.min()
            span = int(max(own.max(), theirs.max() if len(theirs) else low)
                       - low) + 1
            build = build * span + (own - low)
            probe = probe * span + (theirs - low)
            radix *= span
            if radix >= 2 ** 62:
                raise OverflowError("composite join key exceeds int64")
        order = np.argsort(build, kind="stable")
        keys = build[order]
        lo = np.searchsorted(keys, probe, side="left")
        counts = np.searchsorted(keys, probe, side="right") - lo
        repeat = np.repeat(np.arange(len(probe)), counts)
        starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
        matched = order[starts + np.arange(len(repeat))]
        joined = {name: rows[repeat] for name, rows in joined.items()}
        joined[relation] = matched
    return len(joined[first])


def apply_write(tables, op):
    """Apply one ``live_mutation`` write to plain column dicts."""
    if op[0] == "update":
        _, table, column, rows, values = op
        tables[table][column][rows] = values
    elif op[0] == "append":
        _, table, new_columns = op
        tables[table] = {
            column: np.concatenate([values, new_columns[column]])
            for column, values in tables[table].items()
        }
    else:
        raise ValueError(f"not a write: {op[0]!r}")


def rows_checksum(output_rows):
    """Order-independent 64-bit digest of a flat result's row ids.

    ``output_rows`` maps relation -> row-id array (one entry per result
    tuple).  Each tuple is mixed into one word and the words are
    summed, so two results agree exactly when they hold the same
    multiset of tuples.
    """
    if not output_rows:
        return 0
    mixed = None
    with np.errstate(over="ignore"):
        for relation in sorted(output_rows):
            ids = np.asarray(output_rows[relation]).astype(np.uint64)
            if mixed is None:
                mixed = np.zeros(len(ids), dtype=np.uint64)
            mixed = mixed * np.uint64(0x9E3779B97F4A7C15) + ids \
                + np.uint64(0x632BE59BD9B4E019)
            mixed ^= mixed >> np.uint64(29)
        return int(mixed.sum(dtype=np.uint64))


def local_checksums(workload):
    """{sql: checksum} of every pool query's rows in a local,
    unpartitioned session — what a distributed run must reproduce."""
    from repro import Catalog, QuerySession

    catalog = Catalog()
    for name, columns in workload.tables.items():
        catalog.add_table(name, columns)
    session = QuerySession(catalog)
    checksums = {}
    for query in workload.pool:
        report = session.execute(query.sql(), collect_output=True)
        if not report.ok:
            raise RuntimeError(f"local reference run failed: "
                               f"{report.error!r}")
        checksums[query.sql()] = rows_checksum(report.result.output_rows)
    return checksums
