"""Join statistics: match probabilities and fanouts.

Section 3.1 of the paper splits the classical join selectivity ``s``
into a *match probability* ``m`` (chance that an input tuple finds at
least one match) and a *fanout* ``fo`` (average number of matches for a
tuple that does match), with ``s = m * fo``.  :class:`EdgeStats` holds
that pair for one parent->child join; :class:`QueryStats` maps every
non-root relation of a :class:`~repro.core.query.JoinQuery` to its
stats, plus the driver cardinality and per-operator probe costs.

This is also the one module that knows how statistics are *measured*
and *keyed*.  Both numbers belong to a directed join predicate: they
depend on the two relations' contents and the two join attributes —
not on the query, rooting, spanning tree or shard count the predicate
shows up in.  The statistics store (an
:class:`~repro.core.lru.LRUCache`) therefore holds one entry per
directed predicate (and one per column statistic), and a
:class:`StatsReader` *assembles* what each consumer needs — the
:class:`QueryStats` of a rooting or candidate spanning tree, distinct
counts — from those entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Hashable, Mapping, Optional, Tuple,
                    TypeVar)

import numpy as np

from .lru import LRUCache

__all__ = [
    "EdgeStats",
    "QueryStats",
    "StatsReader",
    "query_signature",
    "relation_tokens",
    "stats_from_data",
]

T = TypeVar("T")


@dataclass(frozen=True)
class EdgeStats:
    """Match probability and fanout for probing a parent into a child."""

    m: float
    fo: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.m <= 1.0:
            raise ValueError(f"match probability must be in [0, 1], got {self.m}")
        if self.fo < 0.0:
            raise ValueError(f"fanout must be non-negative, got {self.fo}")

    @property
    def selectivity(self) -> float:
        """Classical join selectivity ``s = m * fo`` (Section 3.1)."""
        return self.m * self.fo

    def scaled(self, factor: float) -> "EdgeStats":
        """Stats with the match probability scaled (clamped to [0, 1])."""
        return EdgeStats(m=min(max(self.m * factor, 0.0), 1.0), fo=self.fo)


class QueryStats:
    """Statistics for every join operator of a query.

    Parameters
    ----------
    driver_size:
        Cardinality of the driver relation after selections (``N``).
    edge_stats:
        Mapping from non-root relation name to :class:`EdgeStats` for
        the probe *from its parent into it*.
    probe_costs:
        Optional mapping from relation name to the cost of a single
        probe into that relation's join operator (``c_i``; default 1.0).
    relation_sizes:
        Optional mapping from relation name to cardinality; needed by
        the semi-join cost model (phase-1 probes scan whole relations).
        Missing sizes default to ``driver_size`` (the paper's Figure 13
        simulation uses equal-size relations).
    """

    def __init__(
        self,
        driver_size: float,
        edge_stats: Mapping[str, EdgeStats],
        probe_costs: Optional[Mapping[str, float]] = None,
        relation_sizes: Optional[Mapping[str, float]] = None,
    ) -> None:
        if driver_size < 0:
            raise ValueError(f"driver_size must be non-negative, got {driver_size}")
        self.driver_size = float(driver_size)
        self.edge_stats = dict(edge_stats)
        self.probe_costs = dict(probe_costs or {})
        self.relation_sizes = dict(relation_sizes or {})

    def stats(self, relation: str) -> EdgeStats:
        """EdgeStats for probing from the parent into ``relation``."""
        try:
            return self.edge_stats[relation]
        except KeyError:
            raise KeyError(
                f"no statistics for relation {relation!r}; "
                f"known: {sorted(self.edge_stats)}"
            ) from None

    def m(self, relation: str) -> float:
        return self.stats(relation).m

    def fo(self, relation: str) -> float:
        return self.stats(relation).fo

    def selectivity(self, relation: str) -> float:
        return self.stats(relation).selectivity

    def probe_cost(self, relation: str) -> float:
        return self.probe_costs.get(relation, 1.0)

    def relation_size(self, relation: str) -> float:
        """Cardinality of ``relation`` (defaults to the driver size)."""
        return float(self.relation_sizes.get(relation, self.driver_size))

    def with_edge(self, relation: str, stats: EdgeStats) -> "QueryStats":
        """A copy with one relation's stats replaced."""
        new_stats = dict(self.edge_stats)
        new_stats[relation] = stats
        return QueryStats(
            self.driver_size, new_stats, self.probe_costs, self.relation_sizes
        )

    def perturbed(self, error_fraction: float, rng: Any = None) -> "QueryStats":
        """Simulate estimation error (Section 3.7 / Figure 6).

        Each ``m`` and ``fo`` is multiplied independently by a factor
        drawn uniformly from ``[1 - e, 1 + e]``; ``m`` is clamped to
        ``(0, 1]`` and ``fo`` to ``>= 1`` minimum of its perturbed value.
        """
        rng = np.random.default_rng(rng)
        new_stats = {}
        for relation, stats in self.edge_stats.items():
            m_factor = 1.0 + rng.uniform(-error_fraction, error_fraction)
            fo_factor = 1.0 + rng.uniform(-error_fraction, error_fraction)
            m = min(max(stats.m * m_factor, 1e-9), 1.0)
            fo = max(stats.fo * fo_factor, 1.0)
            new_stats[relation] = EdgeStats(m=m, fo=fo)
        return QueryStats(
            self.driver_size, new_stats, self.probe_costs, self.relation_sizes
        )

    def __repr__(self) -> str:
        return (
            f"QueryStats(N={self.driver_size:g}, "
            f"edges={{{', '.join(sorted(self.edge_stats))}}})"
        )


def query_signature(query: Any) -> Tuple[Any, ...]:
    """A hashable structural signature of a rooted join query.

    Two :class:`~repro.core.query.JoinQuery` instances with the same
    driver and the same directed edges produce the same signature
    (edge declaration order is canonicalized away), so caches keyed on
    it survive re-parsing / re-construction.
    """
    return (
        query.root,
        tuple(sorted(
            (edge.parent, edge.child, edge.parent_attr, edge.child_attr)
            for edge in query.edges
        )),
    )


def relation_tokens(catalog: Any, query: Any) -> Dict[str, Hashable]:
    """The store-key component of each relation of ``query``.

    Maps alias -> ``(base table fingerprint, sorted selection items)``
    against the *base* ``catalog`` (``query`` is a
    :class:`~repro.core.parser.ParsedQuery`, or a
    :class:`~repro.core.query.JoinQuery` whose relations are table
    names).  Both parts are already-cached values — no data is hashed
    here unless a table changed since its last fingerprint.
    """
    names = query.relations
    if not isinstance(names, dict):
        names = {name: name for name in names}
    selections = getattr(query, "selections", {})
    return {
        alias: (
            catalog.table(name).fingerprint(),
            tuple(sorted(selections.get(alias, {}).items())),
        )
        for alias, name in names.items()
    }


def _measure_edge(catalog: Any, parent: str, parent_attr: str, child: str,
                  child_attr: str) -> EdgeStats:
    """``EdgeStats`` for probing ``parent`` into ``child``.

    The single producer of planning statistics.  ``probe_stats``
    returns the two integer summaries (keys matched, total matches)
    without materializing match rows.  Both are counts over key groups,
    which re-clustering a hash-partitioned relation does not change, so
    statistics never depend on the physical layout.
    """
    parent_keys = catalog.table(parent).column(parent_attr)
    index = catalog.hash_index(child, child_attr)
    num_parents = len(parent_keys)
    matched, total_matches = index.probe_stats(parent_keys)
    m = matched / num_parents if num_parents else 0.0
    fo = float(total_matches) / matched if matched else 1.0
    return EdgeStats(m=m, fo=fo)


class StatsReader:
    """Assembles one query's statistics from per-predicate measurements.

    Parameters
    ----------
    catalog:
        The catalog measurements read: selections already pushed down,
        relations registered under the names the query uses.  ``None``:
        a *frozen* reader, raising :class:`LookupError` beyond ``values``.
    store, tokens:
        An optional shared statistics store (an
        :class:`~repro.core.lru.LRUCache`) and the
        :func:`relation_tokens` of the query, which key it.  With or
        without a store, each value is read at most once per reader, so
        the rootings and candidate trees of one ``plan()`` share work
        and the store's counters count reuse *across* plans.
    values:
        Values already known, keyed as the reader keys them (a directed
        predicate, ``(relation, attr, statistic)`` or ``(relation,)``).

    One store entry is one *measurement*, keyed on the data it read:
    a directed predicate ``(parent token, parent_attr, child token,
    child_attr)`` -> :class:`EdgeStats`, or a column statistic
    ``(relation token, attr, "distinct")`` -> ``int``, prefixed by the
    fingerprints of the tables read, so a write to one table reclaims
    exactly the entries that read it
    (:meth:`~repro.core.lru.LRUCache.reclaim`).  A token is found
    again by any query, rooting, spanning tree, alias or shard count
    over the same table contents.  The store's capacity counts
    measurements, not queries: an ``n``-relation ``driver="auto"``
    plan reads ``2 * (n - 1)`` of them.  Sizes are read per reader,
    never stored.
    """

    def __init__(self, catalog: Any = None, store: Optional[LRUCache] = None,
                 tokens: Optional[Mapping[str, Hashable]] = None,
                 values: Optional[Mapping[Hashable, Any]] = None) -> None:
        self._catalog = catalog
        self._store = store
        self._tokens = tokens
        self._seen: Dict[Hashable, Any] = dict(values or {})

    @classmethod
    def holding(cls, rooted: Any, stats: QueryStats) -> "StatsReader":
        """A frozen reader whose :meth:`rooted_stats` of ``rooted``
        assembles ``stats`` (edges and sizes; probe costs are not a
        reader's), e.g. hand-built ones, to decide over given statistics;
        anything else raises ``LookupError``."""
        values: Dict[Hashable, Any] = {
            (relation,): stats.relation_size(relation)
            for relation in rooted.relations}
        values.update(((e.parent, e.parent_attr, e.child, e.child_attr),
                       stats.stats(e.child)) for e in rooted.edges)
        return cls(values=values)

    def frozen(self) -> "StatsReader":
        """A picklable copy holding exactly what this reader has read."""
        return StatsReader(values=self._seen)

    def _read(self, key: Tuple[Any, ...], measure: Callable[[], T],
              relation_slots: Tuple[int, ...] = (0,)) -> T:
        """The value named ``key``, measured at most once per reader; in
        the store the aliases at ``relation_slots`` become tokens."""
        value: Optional[T] = self._seen.get(key)
        if value is None:
            if self._catalog is None:
                raise LookupError(f"frozen statistics hold no {key!r}")
            if self._store is None or self._tokens is None:
                value = measure()
            else:
                shared = list(key)
                for slot in relation_slots:
                    shared[slot] = self._tokens[key[slot]]
                reads = tuple(shared[slot][0] for slot in relation_slots)
                value = self._store.get_or_compute((reads, tuple(shared)),
                                                   measure)
            self._seen[key] = value
        return value

    def edge(self, parent: str, parent_attr: str, child: str,
             child_attr: str) -> EdgeStats:
        """``(m, fo)`` of the directed predicate ``parent -> child``."""
        return self._read(
            (parent, parent_attr, child, child_attr),
            lambda: _measure_edge(self._catalog, parent, parent_attr, child,
                                  child_attr),
            relation_slots=(0, 2),
        )

    def distinct(self, relation: str, attr: str) -> int:
        """Number of distinct ``attr`` values in ``relation``."""
        return self._read((relation, attr, "distinct"), lambda: int(
            self._catalog.table(relation).distinct_count(attr)
        ))

    def sizes(self, relations: Any) -> Dict[str, int]:
        """Cardinality (after selections) of each of ``relations``."""
        seen, sizes = self._seen, {}
        for relation in relations:
            size = seen.get((relation,))
            if size is None:
                if self._catalog is None:
                    raise LookupError(
                        f"frozen statistics hold no size of {relation!r}")
                size = seen[relation,] = len(self._catalog.table(relation))
            sizes[relation] = size
        return sizes

    def rooted_stats(self, rooted: Any) -> QueryStats:
        """The :class:`QueryStats` of one rooted join tree.

        Serves a fixed driver, every ``driver="auto"`` rooting and every
        rooting of every candidate spanning tree alike: rerooting or
        swapping a tree edge only changes *which* directed predicates
        are read, never how one is measured.
        """
        edge_stats = {
            edge.child: self.edge(edge.parent, edge.parent_attr, edge.child,
                                  edge.child_attr)
            for edge in rooted.edges
        }
        sizes = self.sizes(rooted.relations)
        return QueryStats(sizes[rooted.root], edge_stats,
                          relation_sizes=sizes)


def stats_from_data(catalog: Any, query: Any) -> QueryStats:
    """Measure the true ``(m, fo)`` for every edge of ``query``.

    For each edge ``p -> c``, every tuple of ``p`` is (conceptually)
    probed into ``c``: ``m`` is the fraction that find at least one
    match and ``fo`` the average match count among those that do.
    This is the ground truth that estimators (Section 3.2) approximate
    and that the cost-model validation (Figure 14) uses.

    The uncached entry point: the same assembly the planner runs
    through its statistics store, with no store behind it.
    """
    return StatsReader(catalog).rooted_stats(query)
