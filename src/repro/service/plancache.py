"""LRU plan cache keyed on normalized query structure + the tables read.

The cache key has three parts:

* a **normalized query key** — a canonical, hashable rendering of the
  query's structure (relations, join predicates in a fixed orientation
  and order, selection constants), so two SQL texts that differ only in
  whitespace, predicate order or join-predicate direction share one
  entry;
* the **tables the query reads**: the sorted ``(table name,
  Table.fingerprint())`` pairs of the data the plan was built against,
  so a change to one of them misses while a write to any other table
  leaves the entry servable; :meth:`PlanCache.reclaim` drops the
  superseded entries eagerly instead of letting them pin old data
  until LRU churn;
* the **planning options** (mode / *resolved* optimizer algorithm /
  driver and the planner's weights and eps), since they change the
  chosen plan.  The optimizer component is the algorithm
  that actually runs — ``"auto"`` is resolved by relation count before
  keying (:meth:`repro.planner.Planner.resolve_optimizer`), so an
  auto-planned query shares its entry with an explicit request for the
  same algorithm.
"""

from __future__ import annotations

from ..core.lru import LRUCache
from ..core.parser import ParsedQuery, Placeholder, parse_query
from ..core.query import JoinQuery
from ..core.stats import query_signature

__all__ = ["PlanCache", "normalized_query_key"]


def _literal_key(literal):
    """A canonical, type-discriminating rendering of a selection literal."""
    if isinstance(literal, Placeholder):
        return ("?", literal.index)
    return (type(literal).__name__, literal)


def normalized_query_key(query):
    """A canonical hashable key for a query's *structure*.

    Accepts SQL text, a :class:`~repro.core.parser.ParsedQuery` or a
    rooted :class:`~repro.core.query.JoinQuery`.  For parsed queries the
    key is independent of predicate order and join-predicate direction
    but keeps the first FROM relation: that is the implicit driver
    (:meth:`ParsedQuery.to_join_query` roots there), and under
    ``driver="fixed"`` two FROM orders genuinely plan different
    drivers.  For join queries the rooting is likewise part of the
    structure.
    """
    if isinstance(query, str):
        query = parse_query(query)
    if isinstance(query, ParsedQuery):
        joins = tuple(sorted(
            tuple(sorted([(alias_a, attr_a), (alias_b, attr_b)]))
            for alias_a, attr_a, alias_b, attr_b in query.join_predicates
        ))
        selections = tuple(sorted(
            (alias, column, _literal_key(literal))
            for alias, predicate in query.selections.items()
            for column, literal in predicate.items()
        ))
        return (
            "parsed",
            next(iter(query.relations), None),  # implicit driver
            tuple(sorted(query.relations.items())),
            joins,
            selections,
        )
    if isinstance(query, JoinQuery):
        return ("join", *query_signature(query))
    raise TypeError(
        f"query must be SQL text, ParsedQuery or JoinQuery; "
        f"got {type(query).__name__}"
    )


class PlanCache:
    """An LRU cache of :class:`~repro.planner.PhysicalPlan` objects."""

    def __init__(self, capacity=128):
        self._cache = LRUCache(capacity)

    @property
    def stats(self):
        """Hit/miss/eviction counters (:class:`repro.core.lru.CacheStats`)."""
        return self._cache.stats

    @property
    def capacity(self):
        return self._cache.capacity

    def __len__(self):
        return len(self._cache)

    @staticmethod
    def key(query, tables, options=()):
        """Build the full cache key for a query against some data;
        ``tables`` is the sorted ``(name, fingerprint)`` pairs it reads."""
        return (normalized_query_key(query), tuple(tables), tuple(options))

    def get(self, key):
        """The cached plan for ``key``, or ``None`` (counts hit/miss)."""
        return self._cache.get(key)

    def peek(self, key):
        """Whether ``key`` is cached — no counters touched, no recency
        refresh.

        Admission layers use this to *route* (cache hit -> straight to
        execution, miss -> a planning worker) without double-counting
        the hit the eventual :meth:`get` will record.
        """
        return key in self._cache

    def put(self, key, plan):
        return self._cache.put(key, plan)

    def clear(self):
        """Drop all cached plans."""
        self._cache.clear()

    def reclaim(self, fingerprints):
        """Drop the plans that read a table whose fingerprint is no
        longer ``fingerprints[name]`` (counted as invalidations)."""
        self._cache.discard(lambda key: any(
            fingerprints.get(name) != digest for name, digest in key[1]
        ))

    def __repr__(self):
        return f"PlanCache({self._cache!r})"
