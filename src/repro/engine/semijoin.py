"""Phase-1 semi-join full reduction (Sections 3.6 and 4.5).

The practical Yannakakis variant used by the paper: relations are
reduced bottom-up — each internal node keeps only tuples with a match
in every (already reduced) child — ending with a fully reduced driver.
Leaves are never reduced.  Phase 2 (the actual joins) then runs with
the reduced row sets and needs no further match checks from parents.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReductionResult", "full_reduction"]


class ReductionResult:
    """Outcome of the phase-1 reduction pass.

    Attributes
    ----------
    reduced_rows:
        Mapping relation -> int64 array of surviving row indices.
    semijoin_probes:
        Total semi-join probes performed (the phase-1 cost metric).
    """

    def __init__(self, query):
        self.query = query
        self.reduced_rows = {}
        self.semijoin_probes = 0
        self._reduced_indexes = {}

    def rows(self, relation):
        return self.reduced_rows[relation]

    def reduction_ratio(self, relation, original_size):
        """Fraction of the relation surviving phase 1."""
        if original_size == 0:
            return 1.0
        return len(self.reduced_rows[relation]) / original_size

    def reduced_index(self, catalog, relation, attribute):
        """Hash index on ``attribute`` over the *reduced* rows.

        Derived from the catalog's cached full index
        (:meth:`~repro.storage.hashindex.HashIndex.restricted`): the
        reduction's row sets are ascending, so nothing is re-sorted per
        execution, and an unreduced relation (every leaf) reuses the
        full index as is.
        """
        key = (relation, attribute)
        index = self._reduced_indexes.get(key)
        if index is None:
            index = catalog.hash_index(relation, attribute).restricted(
                self.reduced_rows[relation]
            )
            self._reduced_indexes[key] = index
        return index


def full_reduction(query, catalog, child_orders=None, kernels=None):
    """Run the bottom-up semi-join pass; return a :class:`ReductionResult`.

    ``child_orders`` optionally fixes, per internal relation, the order
    in which its children are semi-joined (the optimizer picks
    increasing adjusted match probability ``m'``; any order yields the
    same reduction, only the probe count differs).  ``kernels`` selects
    the execution kernels the membership probes run on (defaults to the
    vectorized set); index builds are structure work and stay shared.
    """
    if kernels is None:
        from .kernels import get_kernels

        kernels = get_kernels("vectorized")
    child_orders = child_orders or {}
    result = ReductionResult(query)
    for relation in query.postorder():
        table = catalog.table(relation)
        rows = np.arange(len(table), dtype=np.int64)
        children = query.children(relation)
        order = child_orders.get(relation, children)
        if sorted(order) != sorted(children):
            raise ValueError(
                f"child order {order} does not cover the children of "
                f"{relation!r} ({children})"
            )
        for child in order:
            if len(rows) == 0:
                break
            edge = query.edge_to(child)
            keys = table.column(edge.parent_attr)[rows]
            index = result.reduced_index(catalog, child, edge.child_attr)
            result.semijoin_probes += len(rows)
            rows = rows[kernels.contains(index, keys)]
        result.reduced_rows[relation] = rows
    return result
