"""Factorized intermediate results (the COM representation, Section 4).

A factorized result is a tree of per-relation entry arrays mirroring the
join tree.  Each :class:`FactorizedNode` holds, per entry:

* ``rows`` — the base-table row index the entry refers to;
* ``parent_ptr`` — the index of the entry of the *parent node* this
  entry was generated from (``-1`` for the driver); non-decreasing, so
  each parent entry's children are one contiguous run;
* ``alive`` — the selection vector: cleared when a probe fails, and
  propagated both upward (a parent entry with no surviving children in
  some evaluated child node is dead) and downward (entries under a dead
  parent entry are dead), so that later joins probe exactly the entries
  that Eq. (1) prices.

The flat result is recovered by :meth:`FactorizedResult.expand`, a
vectorized breadth-first expansion (Section 4.3's "Result Expansion",
breadth-first variant), or merely counted by
:meth:`FactorizedResult.count_rows` without materialization.  The
expansion pays one fan-out per joined node — a lineage pointer from
each output position to the position it extends — and composes those
pointers at the end, so every relation's ``rows`` is written once, by
one gather at final size, instead of re-repeating every column built
so far at every level.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FactorizedNode", "FactorizedResult"]


def _weight_bounded_batches(weights, batch_entries, max_rows):
    """``(begin, end)`` entry ranges capped by entry count and by weight.

    The greedy grouping: a batch takes entries while it holds fewer than
    ``batch_entries`` of them and their weights sum to at most
    ``max_rows``; a single entry above the cap gets a batch of its own.
    Weights are non-negative, so "the running sum still fits" is a
    prefix property of one cumulative sum — each batch end is a binary
    search, not a per-entry loop.
    """
    cumulative = np.cumsum(weights)
    num_entries = len(cumulative)
    begin = 0
    taken = 0  # weight of the entries before ``begin``
    while begin < num_entries:
        fits = int(np.searchsorted(cumulative, taken + max_rows,
                                   side="right"))
        end = min(max(fits, begin + 1), begin + batch_entries, num_entries)
        yield begin, end
        taken = cumulative[end - 1]
        begin = end


class FactorizedNode:
    """Entries of one relation inside a factorized result."""

    __slots__ = ("relation", "rows", "parent_ptr", "alive")

    def __init__(self, relation, rows, parent_ptr):
        self.relation = relation
        self.rows = np.asarray(rows, dtype=np.int64)
        self.parent_ptr = np.asarray(parent_ptr, dtype=np.int64)
        self.alive = np.ones(len(self.rows), dtype=bool)

    def __len__(self):
        return len(self.rows)

    @property
    def num_alive(self):
        return int(self.alive.sum())

    def alive_indices(self):
        return np.nonzero(self.alive)[0]

    def __repr__(self):
        return (
            f"FactorizedNode({self.relation!r}, entries={len(self)}, "
            f"alive={self.num_alive})"
        )


class FactorizedResult:
    """A factorized (compressed) intermediate or final query result.

    Nodes are added in join order by the executor; the driver node is
    created at scan time.  ``materialized_children`` tracks which join
    tree children of each node have been joined so far.
    """

    def __init__(self, query, driver_rows):
        self.query = query
        driver = FactorizedNode(
            query.root,
            driver_rows,
            np.full(len(driver_rows), -1, dtype=np.int64),
        )
        self.nodes = {query.root: driver}
        #: join order so far (relations with materialized nodes)
        self.joined = [query.root]

    def node(self, relation):
        try:
            return self.nodes[relation]
        except KeyError:
            raise KeyError(
                f"relation {relation!r} has not been joined yet; "
                f"joined so far: {self.joined}"
            ) from None

    def add_node(self, relation, rows, parent_ptr):
        """Attach a freshly joined relation's entries.

        ``parent_ptr`` must be non-decreasing — entries grouped by parent
        entry, in parent order, which is how the executor attaches
        matches (in probe order).  Expansion reads each parent entry's
        children as one contiguous run and relies on it.
        """
        if relation in self.nodes:
            raise ValueError(f"relation {relation!r} already joined")
        node = FactorizedNode(relation, rows, parent_ptr)
        if (node.parent_ptr[1:] < node.parent_ptr[:-1]).any():
            raise ValueError(
                f"parent_ptr of {relation!r} decreases: entries must be "
                "grouped by parent entry, in parent order"
            )
        self.nodes[relation] = node
        self.joined.append(relation)
        return node

    # ------------------------------------------------------------------
    # Death propagation
    # ------------------------------------------------------------------

    def _materialized_children(self, relation):
        return [c for c in self.query.children(relation) if c in self.nodes]

    def propagate_deaths(self):
        """Restore up/down consistency of the alive masks.

        Upward: a parent entry must have at least one alive child entry
        in every *materialized* child node.  Downward: entries whose
        parent entry is dead are dead.  Two sweeps suffice because the
        structure is a tree.
        """
        # Upward sweep: children before parents.
        for relation in reversed(self._joined_preorder()):
            node = self.nodes[relation]
            for child_rel in self._materialized_children(relation):
                child = self.nodes[child_rel]
                counts = np.bincount(
                    child.parent_ptr[child.alive], minlength=len(node)
                )
                node.alive &= counts > 0
        # Downward sweep: parents before children.
        for relation in self._joined_preorder():
            node = self.nodes[relation]
            if relation == self.query.root:
                continue
            parent = self.nodes[self.query.parent(relation)]
            node.alive &= parent.alive[node.parent_ptr]

    def _joined_preorder(self):
        """Materialized relations, parents before children."""
        return [rel for rel in self.query.preorder() if rel in self.nodes]

    # ------------------------------------------------------------------
    # Counting and expansion
    # ------------------------------------------------------------------

    def subtree_weights(self):
        """Per-entry count of flat result tuples below each entry.

        ``weights[rel][i]`` is the number of flat tuples the subtree of
        entry ``i`` of node ``rel`` represents (0 for dead entries).
        One bottom-up pass over every node; :meth:`count_rows` and a
        row-capped :meth:`expand` both need it, so a caller doing both
        computes it once and hands it to each.
        """
        weights = {}
        for relation in reversed(self._joined_preorder()):
            node = self.nodes[relation]
            w = node.alive.astype(np.float64)
            for child_rel in self._materialized_children(relation):
                child = self.nodes[child_rel]
                child_sums = np.bincount(
                    child.parent_ptr,
                    weights=weights[child_rel],
                    minlength=len(node),
                )
                w *= child_sums
            weights[relation] = w
        return weights

    def count_rows(self, weights=None):
        """Number of flat result tuples, without materializing them
        (``weights``: a current :meth:`subtree_weights` result)."""
        if weights is None:
            weights = self.subtree_weights()
        return int(round(weights[self.query.root].sum()))

    def total_entries(self):
        """Total factorized entries (the compressed size)."""
        return sum(len(node) for node in self.nodes.values())

    def expand(self, batch_entries=None, max_rows=None, kernels=None,
               weights=None):
        """Yield flat result batches as ``{relation: row_index_array}``.

        Breadth-first expansion: driver entries are processed in batches
        (``batch_entries`` alive driver entries per batch) and each
        batch is crossed with every joined node in pre-order.  The
        concatenation of batches is the full flat join result, one
        row-index per relation per output tuple, in the order of
        :meth:`expand_depth_first`.  Crossing a node is one fan-out into
        a lineage pointer; the pointers are composed after the last node
        and each relation's rows gathered through them once, at final
        size.

        ``max_rows`` additionally caps the *output rows* per batch:
        driver entries are grouped so that each batch expands to at most
        ``max_rows`` tuples (single entries exceeding the cap get a
        batch of their own), bounding peak memory during expansion.
        ``weights`` optionally supplies a current
        :meth:`subtree_weights` result for that grouping.

        ``kernels`` selects the execution kernels the fan-outs run on
        (defaults to the vectorized set); the one-time grouping of child
        entries by parent pointer is structure work and stays shared.
        """
        if kernels is None:
            from .kernels import get_kernels

            kernels = get_kernels("vectorized")
        driver = self.nodes[self.query.root]
        alive_driver = driver.alive_indices()
        if len(alive_driver) == 0:
            return
        if batch_entries is None:
            batch_entries = max(1, len(alive_driver))
        if max_rows is None:
            bounds = (
                (begin, begin + batch_entries)
                for begin in range(0, len(alive_driver), batch_entries)
            )
        else:
            if weights is None:
                weights = self.subtree_weights()
            bounds = _weight_bounded_batches(
                weights[self.query.root][alive_driver], batch_entries,
                max_rows,
            )
        levels = self._expansion_levels()
        for begin, end in bounds:
            yield self._expand_batch(alive_driver[begin:end], levels,
                                     kernels)

    def _expansion_levels(self):
        """One ``(relation, parent, entries, starts, counts)`` per joined
        non-root node, in pre-order: its alive entries grouped by parent
        entry, and where each parent entry's group starts in them and
        how long it is.  ``parent_ptr`` is non-decreasing
        (:meth:`add_node`), so the alive entries already are grouped."""
        levels = []
        for relation in self._joined_preorder():
            if relation == self.query.root:
                continue
            node = self.nodes[relation]
            parent = self.query.parent(relation)
            entries = node.alive_indices()
            counts = np.bincount(node.parent_ptr.take(entries),
                                 minlength=len(self.nodes[parent]))
            levels.append(
                (relation, parent, entries, np.cumsum(counts) - counts, counts)
            )
        return levels

    def _expand_batch(self, driver_entries, levels, kernels):
        """Cross one batch of driver entries with every joined node.

        Each level fans the frame out once: ``kernels.fan_out`` returns
        its lineage (output position → position in the previous frame)
        and the positions of the child entries.  Only columns a later
        level probes from are carried forward, by a gather through the
        lineage; any other column is parked as ``rows`` at the size it
        had.  At the end the lineages are composed from the last level
        back, and each parked relation's ``rows`` is gathered once, at
        final size.
        """
        last_probe = {parent: level
                      for level, (_, parent, *_) in enumerate(levels)}
        frame = {self.query.root: driver_entries}
        parked = []  # (level, relation, rows sized before that level)
        lineages = []
        for level, (relation, parent, entries, starts, counts) in \
                enumerate(levels):
            parent_entries = frame[parent]
            lineage, positions = kernels.fan_out(starts.take(parent_entries),
                                                 counts.take(parent_entries))
            lineages.append(lineage)
            carried = {}
            for rel, column in frame.items():
                if last_probe.get(rel, -1) > level:
                    carried[rel] = column.take(lineage)
                else:
                    parked.append(
                        (level, rel, self.nodes[rel].rows.take(column)))
            carried[relation] = entries.take(positions)
            frame = carried
        out = {rel: self.nodes[rel].rows.take(column)
               for rel, column in frame.items()}
        pointer = None  # final position -> position before ``lineages``
        for level, rel, rows in reversed(parked):
            while len(lineages) > level:
                lineage = lineages.pop()
                pointer = lineage if pointer is None else lineage.take(pointer)
            out[rel] = rows.take(pointer)
        return {rel: out[rel]
                for rel in (self.query.root, *(level[0] for level in levels))}

    def expand_all(self):
        """Materialize the full flat result as ``{relation: rows}``."""
        batches = list(self.expand())
        if not batches:
            return {rel: np.empty(0, dtype=np.int64) for rel in self.joined}
        return {
            rel: np.concatenate([batch[rel] for batch in batches])
            for rel in batches[0]
        }

    def expand_depth_first(self):
        """Yield flat result tuples one at a time, depth-first.

        This is the paper's prototype expansion (Section 4.3): for each
        driver entry, walk the factorized tree with a row-index vector
        tracking the expansion state, backtracking after emitting each
        tuple.  Memory-optimal (one partial tuple at a time) but
        tuple-at-a-time — the vectorized breadth-first :meth:`expand`
        is the fast path; this generator exists for fidelity, for
        streaming consumers, and as a cross-check in tests.

        Yields ``{relation: row_index}`` dicts in depth-first order.
        """
        order = self._joined_preorder()
        children_of = {
            rel: [c for c in order if c != self.query.root
                  and self.query.parent(c) == rel]
            for rel in order
        }
        # Pre-group alive child entries by parent entry (python lists:
        # this path is deliberately tuple-at-a-time).
        grouped = {}
        for rel in order:
            if rel == self.query.root:
                continue
            node = self.nodes[rel]
            buckets = {}
            for entry in node.alive_indices().tolist():
                buckets.setdefault(int(node.parent_ptr[entry]), []).append(entry)
            grouped[rel] = buckets

        def emit(frame, remaining):
            if not remaining:
                yield {
                    rel: int(self.nodes[rel].rows[entry])
                    for rel, entry in frame.items()
                }
                return
            relation = remaining[0]
            parent_rel = self.query.parent(relation)
            parent_entry = frame[parent_rel]
            for entry in grouped[relation].get(parent_entry, []):
                frame[relation] = entry
                # Descend into this relation's subtree before moving on
                # to the next sibling relation (depth-first).
                yield from emit(frame, remaining[1:])
                del frame[relation]

        expansion_order = []

        def schedule(rel):
            for child in children_of[rel]:
                expansion_order.append(child)
                schedule(child)

        schedule(self.query.root)
        driver = self.nodes[self.query.root]
        for driver_entry in driver.alive_indices().tolist():
            yield from emit({self.query.root: driver_entry}, expansion_order)

    def __repr__(self):
        return (
            f"FactorizedResult(joined={self.joined}, "
            f"entries={self.total_entries()})"
        )
