"""The plan-cache key: the tables read + normalized query structure.

The session's plan cache is an :class:`~repro.core.lru.LRUCache` of
:class:`~repro.planner.PhysicalPlan` objects whose key has three parts:

* the **tables the query reads**: the
  :meth:`~repro.storage.table.Table.fingerprint` s of the tables it
  reads, in table-name order, so a change to one of them misses while a
  write to any other table leaves the entry servable; they come first,
  so :meth:`~repro.core.lru.LRUCache.reclaim` drops the superseded
  entries eagerly instead of letting them pin old data until LRU churn;
* a **normalized query key** — a canonical, hashable rendering of the
  query's structure (relations, join predicates in a fixed orientation
  and order, selection constants), so two SQL texts that differ only in
  whitespace, predicate order or join-predicate direction share one
  entry;
* the **planning options** (mode / *resolved* optimizer algorithm /
  driver and the planner's weights and eps), since they change the
  chosen plan.  The optimizer component is the algorithm
  that actually runs — ``"auto"`` is resolved by relation count before
  keying (:meth:`repro.planner.Planner.resolve_optimizer`), so an
  auto-planned query shares its entry with an explicit request for the
  same algorithm.
"""

from __future__ import annotations

from ..core.parser import ParsedQuery, Placeholder, parse_query
from ..core.query import JoinQuery
from ..core.stats import query_signature

__all__ = ["normalized_query_key"]


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
