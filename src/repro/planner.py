"""End-to-end planner: SQL (or JoinQuery) in, executable plan out.

1. :class:`Planner` parses the query, pushes constant selections down
   (Section 2.1's assumption) and opens a
   :class:`repro.core.stats.StatsReader`, which measures each directed
   predicate's ``m`` and ``fo`` (Section 3.1) once per statistics store;
2. :func:`decide` — a function of those statistics alone — picks the
   driver, the join order (Algorithm 1 or a greedy heuristic) and the
   strategy (the cost model prices all six: "our cost model ... can be
   used for making optimization decisions among the competing
   approaches") and returns a catalog-free :class:`PlanSpec`;
3. :meth:`Planner.bind` binds it to the data as a :class:`PhysicalPlan`
   that executes on the engine and can ``explain()`` itself.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import time
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from operator import attrgetter

import numpy as np

from .core.costmodel import (
    CostMemo,
    CostWeights,
    cost_lower_bound,
    expected_output_size,
    order_invariant_floor,
    plan_cost,
)
from .core.cyclic import (
    MAX_SPANNING_TREES,
    CyclicPlan,
    ResidualPredicate,
    _rooted_tree,
    edge_pair_selectivity,
    enumerate_spanning_trees,
    execute_cyclic,
    log_pair_weight,
    residual_filter_cost,
    tree_query_from_residuals,
    wcoj_cost,
)
from .core.lru import LRUCache
from .core.bounds import (
    REGRET_FACTOR,
    ROBUSTNESS_CHOICES,
    prefix_cardinality_bounds,
)
from .core.optimizer import (
    PlanningBudgetExceeded,
    beam_order,
    exhaustive_optimal,
    greedy_order,
    idp_order,
    optimize_sj,
    worst_case_cost,
)
from .core.parser import Contradiction, ParsedQuery, parse_query
from .core.query import JoinQuery
from .core.stats import (
    QueryStats,
    StatsReader,
    relation_tokens,
)
from .engine.executor import _shards_used, execute
from .engine.wcoj import execute_wcoj, plan_variable_order, variable_classes
from .modes import ExecutionMode
from .options import PlanOptions, ResolvedOptions, resolve_optimizer
from .storage.partition import partitioned_relation
from .storage.table import Catalog, Table

__all__ = ["PhysicalPlan", "PlanSpec", "Planner", "SearchTally",
           "filtered_table", "push_down_selections"]


def filtered_table(table, alias, predicate):
    """A :class:`Table` named ``alias`` holding the rows matching
    ``predicate`` ({column: literal} constant selections).

    A :class:`~repro.core.parser.Contradiction` literal (distinct
    constants required of one column) matches no row.  With no selection
    the result is ``table.renamed(alias)``, which shares the table's
    arrays, layout and cached indexes.  A filtered result is always in
    *base* row order (a hash-partitioned table is filtered through
    :meth:`~repro.storage.table.Table.original_rows` /
    :meth:`~repro.storage.table.Table.gather`), so row ids stay
    layout-independent.
    """
    if not predicate:
        return table.renamed(alias)
    mask = np.ones(len(table), dtype=bool)
    for column, literal in predicate.items():
        if isinstance(literal, Contradiction):
            mask[:] = False
            break
        mask &= table.column(column) == literal
    if getattr(table, "num_shards", 1) > 1:
        base_rows = np.sort(table.original_rows(np.flatnonzero(mask)))
        columns = table.gather(base_rows)
    else:
        columns = {
            name: values[mask] for name, values in table.columns.items()
        }
    return Table(alias, columns)


def push_down_selections(catalog, parsed):
    """Materialize constant selections into a derived catalog.

    Returns a catalog derived from ``catalog`` (:meth:`Catalog.derive`)
    holding one table per query alias, so aliased self-references of
    the same base table stay distinct: each selected relation's
    filtered rows, and a zero-copy rename of every unselected one,
    which shares the base table's indexes.
    """
    return catalog.derive(
        filtered_table(catalog.table(table_name), alias,
                       parsed.selections.get(alias, {}))
        for alias, table_name in parsed.relations.items()
    )


@dataclass
class SearchTally:
    """What finding a plan took and what spared it the rest: exact
    counts from :func:`_search`, summed over a cyclic plan's
    candidate trees.  Observational — never fingerprinted, shipped in a
    :class:`PlanSpec` or cache-keyed."""

    rootings: int = 0            #: candidate rootings seen
    rootings_floored: int = 0    #: dropped unranked by their lower bound
    proxies: int = 0             #: width-1 beam proxies run to rank them
    modes_floored: int = 0       #: strategies skipped by their floor
    searches_pruned: int = 0     #: order searches the bound pruned out
    searches_completed: int = 0  #: order searches that returned an order
    sj_pricings: int = 0         #: SJ strategies ordered + priced at once
    trees_floored: int = 0       #: cyclic trees the wcoj price left unsearched

    @property
    def order_searches(self):
        return (self.searches_pruned + self.searches_completed
                + self.sj_pricings)


#: the roles a :class:`PlanSpec` field plays (see :func:`_spec_field`)
_ROLES = ("anchor", "decision", "derived")


def _spec_field(role, canonical=None, **kwargs):
    """A :class:`PlanSpec` field, declared with its role.

    ``"decision"``: what the optimizer decided — hashed by
    :meth:`PhysicalPlan.fingerprint` (as ``canonical(value)`` when a
    canonicalizer is given) and shipped.  ``"derived"``: shipped, never
    hashed — fixed by the decisions plus the cost model.  ``"anchor"``:
    pins a shipped spec to its tree and base catalog, which the
    fingerprint hashes directly.
    """
    return field(metadata={"role": role, "canonical": canonical}, **kwargs)


class _RoleDeclared:
    """Base of :class:`PlanSpec`: a field declared without a
    :func:`_spec_field` role fails when its class is defined."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in vars(cls).get("__annotations__", {}):
            role = getattr(vars(cls).get(name), "metadata", {}).get("role")
            if role not in _ROLES:
                raise TypeError(f"{cls.__name__}.{name} is declared without "
                                f"a role (one of {_ROLES})")


#: legal values of a spec's enumerated knobs (resolved: never "auto")
_KNOB_CHOICES = (
    ("cyclic_strategy", ("tree_filter", "wcoj")),
    ("robustness", ROBUSTNESS_CHOICES),
)


@dataclass(frozen=True, kw_only=True)
class PlanSpec(_RoleDeclared):
    """Everything the optimizer decided for one query — the one
    declaration of a plan; picklable and catalog-free.

    :func:`decide` returns one; a :class:`PhysicalPlan` is a spec bound
    to its derived catalog, rooted join tree and request
    (:meth:`Planner.bind`), which supply the binding facts — shard
    count, kernel plane, placement, workers — no spec holds.  Each field
    declares its role once (:func:`_spec_field`).  Construction checks
    knob legality (mode, cyclic strategy, robustness) plus the facts a
    spec states alone: residual selectivities aligned with the
    residuals, one finite non-negative bound per join step exactly when
    robust, and a wcoj plan with residuals and a variable order.
    ``order`` and ``child_orders`` are stored canonically.

    ``catalog_fingerprint`` is the base-catalog digest a shipped spec
    was planned against (``None`` until :meth:`PhysicalPlan.to_spec`):
    rehydration refuses a stale one.  For a cyclic query ``root`` and
    ``residuals`` identify the spanning tree — the query's predicates
    minus the residuals
    (:func:`~repro.core.cyclic.tree_query_from_residuals`).
    """

    root: str = _spec_field("anchor")  # the driver
    order: tuple = _spec_field("decision", tuple)
    mode: ExecutionMode = _spec_field("decision", str)
    #: semi-join child orders, ``((relation, (child, ...)), ...)``
    child_orders: tuple = _spec_field("decision", default=())
    #: residual predicates of a cyclic plan, in application order
    residuals: tuple = _spec_field(
        "decision", lambda residuals: tuple(r.key for r in residuals),
        default=())
    #: always "tree_filter" for acyclic plans
    cyclic_strategy: str = _spec_field("decision", default="tree_filter")
    #: a wcoj plan's variables, each a tuple of (relation, attribute)
    wcoj_variable_order: tuple = _spec_field(
        "decision", lambda order: tuple(tuple(var) for var in order),
        default=())
    robustness: str = _spec_field("decision", default="off")
    stats: QueryStats = _spec_field("derived")
    predicted_cost: float = _spec_field("derived")
    weights: CostWeights = _spec_field("derived", default_factory=CostWeights)
    #: estimated selectivity per residual
    residual_selectivities: tuple = _spec_field("derived", default=())
    #: robust plans: guaranteed cardinality bound after each join of
    #: ``order`` and the guaranteed worst-case probe work of running it
    prefix_bounds: tuple = _spec_field("derived", default=())
    worst_case_bound: float = _spec_field("derived", default=0.0)
    catalog_fingerprint: str | None = _spec_field("anchor", default=None)

    def __post_init__(self):
        pin, child_orders = object.__setattr__, self.child_orders
        pin(self, "mode", ExecutionMode(self.mode))
        pin(self, "order", tuple(self.order))
        if isinstance(child_orders, dict):
            child_orders = child_orders.items()
        pin(self, "child_orders", tuple(sorted(
            (relation, tuple(children)) for relation, children in child_orders
        )))
        for name, choices in _KNOB_CHOICES:
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, got "
                                 f"{getattr(self, name)!r}")
        if self.cyclic_strategy == "tree_filter" and self.wcoj_variable_order:
            raise ValueError("a tree_filter plan has no wcoj variable order")
        if self.cyclic_strategy == "wcoj" and not (
                self.residuals and self.wcoj_variable_order):
            raise ValueError("WCOJ003: a wcoj plan needs residuals and a "
                             "non-empty variable order")
        if self.residual_selectivities and \
                len(self.residual_selectivities) != len(self.residuals):
            raise ValueError(
                f"PLAN004: {len(self.residual_selectivities)} residual "
                f"selectivities for {len(self.residuals)} residuals")
        bounds = self.prefix_bounds
        if self.robustness == "off" and (bounds or self.worst_case_bound):
            raise ValueError("BOUND002: an off-mode plan carries no bound "
                             "annotations")
        if self.robustness != "off" and len(bounds) != len(self.order):
            raise ValueError(
                f"BOUND002: a robust plan carries one prefix bound per "
                f"join step: {len(bounds)} for {len(self.order)} joins")
        if not all(math.isfinite(bound) and bound >= 0
                   for bound in (*bounds, self.worst_case_bound)):
            raise ValueError(
                f"BOUND003: bounds must be finite and non-negative, got "
                f"{bounds!r} and worst case {self.worst_case_bound!r}")

    def __repr__(self):
        residuals = (
            f", residuals={len(self.residuals)}" if self.residuals else ""
        )
        return (
            f"PlanSpec(driver={self.root!r}, mode={self.mode}, "
            f"order={list(self.order)}, "
            f"cost={self.predicted_cost:.4g}{residuals})"
        )


#: ``(name, canonicalizer)`` of every decision field, in declaration
#: order — what :meth:`PhysicalPlan.fingerprint` hashes
_DECISIONS = tuple(
    (spec_field.name, spec_field.metadata["canonical"])
    for spec_field in fields(PlanSpec)
    if spec_field.metadata["role"] == "decision"
)


@dataclass(frozen=True)
class PhysicalPlan:
    """An optimized, executable plan: a :class:`PlanSpec` bound to the
    derived ``catalog`` it executes against, the rooted ``query`` and
    the request's resolved ``options``.

    Every non-anchor spec field reads as a read-only plan attribute
    (``order`` / ``child_orders`` as the list / dict the engine takes),
    as do the binding facts: ``num_shards``, read off ``catalog``, and,
    from ``options``, ``execution``, ``placement`` and ``num_workers``.
    Decisions are immutable — a changed plan is a new plan — so a cached
    plan serves any number of callers.  ``search_tally`` (``None`` on a
    rehydrated plan) is observational: never fingerprinted or shipped.

    Construction checks the spec against the tree and the catalog: the
    order respects precedence, ``child_orders`` permute each relation's
    children, a wcoj variable order covers exactly the endpoints of the
    tree edges and residuals, and every relation and predicate column
    exists.  A cyclic plan's ``query`` is the spanning tree the joint
    search selected, ``residuals`` the predicates left to filter (most
    selective first); ``predicted_cost`` includes their filter cost.
    """

    spec: PlanSpec
    catalog: Catalog
    query: JoinQuery
    options: ResolvedOptions
    search_tally: SearchTally | None = None

    def __post_init__(self):
        spec, query, catalog = self.spec, self.query, self.catalog
        if not query.is_valid_order(spec.order):
            raise ValueError(
                f"PLAN002: order {list(spec.order)} is not a precedence-"
                f"respecting permutation of {query.non_root_relations} "
                f"under root {query.root!r}")
        # relation -> the attributes its tree edges and residuals join on
        endpoints = {query.root: set()}
        for rel_a, attr_a, rel_b, attr_b in query.undirected_edges() + [
                residual.key for residual in spec.residuals]:
            endpoints.setdefault(rel_a, set()).add(attr_a)
            endpoints.setdefault(rel_b, set()).add(attr_b)
        for relation, children in spec.child_orders:
            if relation not in endpoints or \
                    sorted(children) != sorted(query.children(relation)):
                raise ValueError(
                    f"PLAN003: child_orders[{relation!r}] = "
                    f"{list(children)} does not permute {relation!r}'s "
                    f"children in the rooted tree")
        for relation, attrs in endpoints.items():
            if relation not in catalog:
                raise ValueError(f"SCHEMA001: relation {relation!r} is "
                                 f"missing from the plan catalog")
            absent = attrs.difference(catalog.table(relation).columns)
            if absent:
                raise ValueError(f"SCHEMA002: {relation!r} has no column "
                                 f"{sorted(absent)}")
        if spec.cyclic_strategy == "wcoj":
            members = [tuple(member) for variable in spec.wcoj_variable_order
                       for member in variable]
            expected = {(relation, attr) for relation, attrs
                        in endpoints.items() for attr in attrs}
            if len(members) != len(expected) or set(members) != expected:
                raise ValueError(
                    f"WCOJ002: wcoj variable members {members} are not the "
                    f"predicate attributes {sorted(expected)}, once each")

    # the spec's fields read through as plan attributes (a test keeps
    # this list complete); order / child_orders as the engine takes them
    mode = property(attrgetter("spec.mode"))
    residuals = property(attrgetter("spec.residuals"))
    cyclic_strategy = property(attrgetter("spec.cyclic_strategy"))
    wcoj_variable_order = property(attrgetter("spec.wcoj_variable_order"))
    robustness = property(attrgetter("spec.robustness"))
    stats = property(attrgetter("spec.stats"))
    predicted_cost = property(attrgetter("spec.predicted_cost"))
    weights = property(attrgetter("spec.weights"))
    residual_selectivities = property(
        attrgetter("spec.residual_selectivities"))
    prefix_bounds = property(attrgetter("spec.prefix_bounds"))
    worst_case_bound = property(attrgetter("spec.worst_case_bound"))
    # and the request's binding facts
    execution = property(attrgetter("options.execution"))
    placement = property(attrgetter("options.placement"))
    num_workers = property(attrgetter("options.num_workers"))

    @property
    def order(self):
        return list(self.spec.order)

    @property
    def child_orders(self):
        return {relation: list(children)
                for relation, children in self.spec.child_orders}

    @property
    def is_cyclic(self):
        return bool(self.residuals)

    @cached_property
    def num_shards(self):
        """Hash-shard fan-out of ``catalog``'s probe targets (1 = off)."""
        return _shards_used(self.query, self.catalog)

    def execute(self, flat_output=True, collect_output=False,
                max_intermediate_tuples=50_000_000, driver_rows=None):
        """Run the plan on the engine, always in-process (the session
        routes distributed plans; its workers call this).

        Cyclic plans route by ``cyclic_strategy``: ``tree_filter`` runs
        :func:`~repro.core.cyclic.execute_cyclic` (tree join + residual
        filters), ``wcoj`` :func:`~repro.engine.wcoj.execute_wcoj` over
        ``wcoj_variable_order``; their output is always flat.
        ``driver_rows`` restricts the run to a subset of root rows (the
        distributed scatter path).
        """
        shared = dict(collect_output=collect_output, execution=self.execution,
                      max_intermediate_tuples=max_intermediate_tuples)
        if self.residuals:
            cyclic = CyclicPlan(self.query, list(self.residuals))
            if self.cyclic_strategy != "wcoj":
                _, result, _ = execute_cyclic(
                    self.catalog, cyclic, mode=self.mode, order=self.order,
                    child_orders=self.child_orders or None,
                    driver_rows=driver_rows, **shared,
                )
            elif driver_rows is not None:
                raise ValueError(
                    "wcoj plans are not driver-decomposable; "
                    "driver_rows is only supported for tree pipelines"
                )
            else:
                _, result, _ = execute_wcoj(
                    self.catalog, cyclic, mode=self.mode, order=self.order,
                    variable_order=self.wcoj_variable_order or None,
                    **shared,
                )
            return result
        return execute(
            self.catalog, self.query, self.order, self.mode,
            flat_output=flat_output, child_orders=self.child_orders or None,
            driver_rows=driver_rows, **shared,
        )

    def fingerprint(self):
        """A stable content digest of the resolved plan (hex string).

        Covers the rooted tree (driver and edges), every decision field
        of the spec (:data:`_DECISIONS`, in declaration order) and the
        bound catalog's content, so two planning passes that resolved
        identically (e.g. a cache hit and the plan it was seeded from,
        or a worker-planned spec and its rehydration) fingerprint
        identically.  No binding fact is covered: a shard layout shows
        in the catalog digest, and the rest decide nothing.
        """
        spec = self.spec
        payload = (
            self.query.root,
            tuple(sorted(
                (edge.parent, edge.child, edge.parent_attr, edge.child_attr)
                for edge in self.query.edges
            )),
            *(getattr(spec, name) if canonical is None
              else canonical(getattr(spec, name))
              for name, canonical in _DECISIONS),
            self.catalog.fingerprint(),
        )
        return hashlib.blake2b(repr(payload).encode(),
                               digest_size=16).hexdigest()

    def explain(self):
        """A human-readable plan tree with per-join statistics."""
        from .core.costmodel import com_probes_per_join, std_probes_per_join

        if self.mode.factorized:
            probes = com_probes_per_join(self.query, self.stats, self.order)
        else:
            probes = std_probes_per_join(self.query, self.stats, self.order)
        shards = f" shards={self.num_shards}" if self.num_shards > 1 else ""
        cost = f"predicted_cost={self.predicted_cost:,.0f}{shards}"
        tree = f"mode={self.mode} driver={self.query.root}"
        lines = [f"PhysicalPlan {tree} {cost}"]
        if self.cyclic_strategy == "wcoj":
            lines = [f"PhysicalPlan strategy=wcoj {cost}",
                     f"  recorded spanning tree (the residual split, not "
                     f"executed): {tree}"]
        lines.append(f"  SCAN {self.query.root} "
                     f"(N={self.stats.driver_size:,.0f})")
        for position, relation in enumerate(self.order, start=1):
            edge = self.query.edge_to(relation)
            stats = self.stats.stats(relation)
            bound = ""
            if position <= len(self.prefix_bounds):
                bound = f" ub={self.prefix_bounds[position - 1]:,.0f}"
            lines.append(
                f"  {position}. JOIN {relation} ON "
                f"{edge.parent}.{edge.parent_attr} = "
                f"{edge.child}.{edge.child_attr}  "
                f"[m={stats.m:.3f} fo={stats.fo:.2f} "
                f"est_probes={probes[relation]:,.0f}{bound}]"
            )
        if self.robustness != "off":
            lines.append(
                f"  ROBUSTNESS {self.robustness} "
                f"worst_case_bound={self.worst_case_bound:,.0f}"
            )
        if self.child_orders:
            lines.append(f"  semi-join child orders: {self.child_orders}")
        for residual, selectivity in zip(
            self.residuals,
            self.residual_selectivities or [None] * len(self.residuals),
        ):
            estimated = (
                f"  [s={selectivity:.4g}]" if selectivity is not None else ""
            )
            lines.append(
                f"  RESIDUAL {residual.relation_a}.{residual.attr_a} = "
                f"{residual.relation_b}.{residual.attr_b}{estimated}"
            )
        if self.cyclic_strategy == "wcoj":
            rendered = " -> ".join(
                "{" + ", ".join(f"{rel}.{attr}" for rel, attr in members)
                + "}"
                for members in self.wcoj_variable_order
            )
            lines.append(f"  STRATEGY wcoj variables: {rendered}")
        if self.search_tally is not None:
            lines.append("  SEARCH " + " ".join(
                f"{name}={count}"
                for name, count in vars(self.search_tally).items()
            ))
        return "\n".join(lines)

    def to_spec(self, catalog_fingerprint):
        """The plan's :class:`PlanSpec`, pinned for shipping.

        ``catalog_fingerprint`` is the *base* catalog's content digest
        at planning time — the address a rehydrating process checks
        before trusting the spec.
        """
        return replace(self.spec, catalog_fingerprint=catalog_fingerprint)

    def __repr__(self):
        residuals = (
            f", residuals={len(self.residuals)}" if self.residuals else ""
        )
        return (
            f"PhysicalPlan(mode={self.mode}, driver={self.query.root!r}, "
            f"order={self.order}, cost={self.predicted_cost:.4g}{residuals})"
        )


def _parsed(query):
    """SQL text parsed; a ParsedQuery / JoinQuery as given."""
    if isinstance(query, str):
        return parse_query(query)
    if isinstance(query, (ParsedQuery, JoinQuery)):
        return query
    raise TypeError(
        f"query must be SQL text, ParsedQuery or JoinQuery; "
        f"got {type(query).__name__}"
    )


@dataclass
class _Choice:
    """:func:`_search`'s incumbent, priced; becomes a :class:`PlanSpec`
    once the search is over."""

    predicted_cost: float
    query: JoinQuery
    stats: QueryStats
    order: list
    mode: ExecutionMode
    child_orders: dict
    search_tally: SearchTally
    residuals: tuple = ()
    residual_selectivities: tuple = ()


# ----------------------------------------------------------------------
# Deciding: statistics in, a PlanSpec out
# ----------------------------------------------------------------------

#: anytime fallback order per starting algorithm: an order search that
#: overruns its deadline falls to the next rung; beam search is the
#: floor (linear time, never deadline-checked)
_LADDER = {
    "exhaustive": ("exhaustive", "idp", "beam"),
    "idp": ("idp", "beam"),
    "beam": ("beam",),
}


def _order_for_mode(query, stats, mode, options, memo=None, upper_bound=None):
    """Best order for one non-semi-join strategy.

    ``options.optimizer`` picks the algorithm, ``options.deadline`` arms
    the anytime ladder (an overrunning DP falls to the next cheaper
    rung).  ``memo`` is a shared :class:`~repro.core.costmodel.CostMemo`
    for this (query, stats, eps).  ``upper_bound`` (in the search
    objective's units) prunes against an incumbent: ``None`` is returned
    when every candidate order was pruned.
    """
    shared = dict(mode=mode, eps=options.eps, weights=options.weights)
    rungs = _LADDER.get(options.optimizer)
    if rungs is None:
        return greedy_order(query, stats, options.optimizer, **shared).order
    shared.update(memo=memo, upper_bound=upper_bound)
    deadline = options.deadline
    if deadline is None:
        rungs = rungs[:1]  # nothing can overrun: no fallback needed
    searches = {
        "exhaustive": (exhaustive_optimal, {"deadline": deadline}),
        "idp": (idp_order, {"deadline": deadline,
                            "block_size": options.idp_block_size}),
        "beam": (beam_order, {"beam_width": options.beam_width}),
    }
    for rung in rungs:
        search, own = searches[rung]
        try:
            plan = search(query, stats, **shared, **own)
        except PlanningBudgetExceeded:
            continue  # fall down the ladder
        # None: pruned out, the incumbent is at least as good
        return plan.order if plan is not None else None


def _cost(query, stats, order, mode, flat_output, options, memo=None):
    return plan_cost(query, stats, order, mode, eps=options.eps,
                     flat_output=flat_output,
                     memo=memo).total(options.weights)


def _search(rootings, stats_for, options, flat_output, best=None,
            incumbent=math.inf, residual_selectivities=(), residuals=()):
    """The cheapest (rooting, mode, order) among ``rootings``.

    The one search behind a fixed driver, the ``driver="auto"`` sweep
    and every candidate spanning tree of a cyclic query (whose
    ``residuals`` ride on its :class:`_Choice`); ``stats_for(rooted)``
    supplies a rooting's statistics.  Returns a :class:`_Choice`, or the
    ``best`` handed in when nothing beats both its cost and
    ``incumbent`` (e.g. another operator's price); the first of equally
    cheap choices wins.

    *Floor -> lazy proxy -> bounded search.*  Rootings wait in a heap
    keyed by the least ``costmodel.cost_lower_bound`` over the requested
    strategies; one popped while that bound reaches the incumbent is
    dropped (the incumbent only gets cheaper).  Otherwise it gets its
    :class:`~repro.core.costmodel.CostMemo` and a width-1 beam proxy and
    re-enters keyed by the proxy's full cost, which is never below the
    bound — so rootings are searched exactly as if all had been ranked
    by ``(proxy cost, position)`` up front.  Each strategy's search is
    bounded by the incumbent minus ``costmodel.order_invariant_floor``
    (times the largest probe cost, which only the search objective
    multiplies in); a floor that alone reaches the incumbent skips the
    strategy.  One rooting, or SJ-only strategies, are searched in the
    given order.  A cyclic tree's ``residual_selectivities`` add the
    residual-filter cost of the first-ranked rooting's expected output
    to every candidate.
    """
    eps, weights = options.eps, options.weights
    tally = best.search_tally if best is not None else SearchTally()
    if best is not None:
        incumbent = min(incumbent, best.predicted_cost)
    tally.rootings += len(rootings)
    proxy_mode = None
    if len(rootings) > 1:
        proxy_mode = next(
            (mode for mode in options.modes if not mode.uses_semijoin), None)
    heap = []
    for position, rooted in enumerate(rootings):
        stats = stats_for(rooted)
        expected = expected_output_size(rooted, stats)
        if proxy_mode is None:
            key, memo = 0.0, CostMemo(rooted, stats, eps)
        else:
            key, memo = min(
                cost_lower_bound(rooted, stats, mode, weights, flat_output,
                                 expected)
                for mode in options.modes
            ), None
        heap.append((key, position, rooted, stats, expected, memo))
    heapq.heapify(heap)
    fixed_cost = None  # known once the first-ranked rooting is
    while heap:
        key, position, rooted, stats, expected, memo = heapq.heappop(heap)
        if memo is None:
            if fixed_cost is not None and key + fixed_cost >= incumbent:
                tally.rootings_floored += 1
                continue
            memo = CostMemo(rooted, stats, eps)
            greedy = beam_order(rooted, stats, mode=proxy_mode, eps=eps,
                                weights=weights, beam_width=1, memo=memo)
            tally.proxies += 1
            key = _cost(rooted, stats, greedy.order, proxy_mode, flat_output,
                        options, memo)
            heapq.heappush(heap, (key, position, rooted, stats, expected, memo))
            continue
        if fixed_cost is None:
            fixed_cost = residual_filter_cost(
                expected, residual_selectivities, weights)
        probe_scale = max([1.0, *stats.probe_costs.values()])
        for mode in options.modes:
            upper_bound = None
            if incumbent < math.inf:
                upper_bound = incumbent - (
                    fixed_cost + order_invariant_floor(
                        rooted, stats, mode, weights, flat_output, expected))
                if upper_bound <= 0.0:
                    tally.modes_floored += 1
                    continue
                upper_bound *= probe_scale
            if mode.uses_semijoin:
                found = optimize_sj(rooted, stats, mode.factorized, weights,
                                    flat_output, memo)
                tally.sj_pricings += 1
                order, cost = found.order, found.cost
                child_orders = found.child_orders
            else:
                order = _order_for_mode(rooted, stats, mode, options, memo,
                                        upper_bound)
                if order is None:
                    tally.searches_pruned += 1
                    continue
                tally.searches_completed += 1
                cost = _cost(rooted, stats, order, mode, flat_output, options,
                             memo)
                child_orders = {}
            cost += fixed_cost
            if cost < incumbent or best is None and incumbent == math.inf:
                incumbent = cost
                best = _Choice(cost, rooted, stats, order, mode, child_orders,
                               tally, residuals, residual_selectivities)
    return best


def _spec(choice, options):
    """The :class:`PlanSpec` of a search winner — built once per
    decision, after the search."""
    return PlanSpec(
        root=choice.query.root, order=choice.order, mode=choice.mode,
        child_orders=choice.child_orders, residuals=choice.residuals,
        stats=choice.stats, predicted_cost=choice.predicted_cost,
        weights=options.weights,
        residual_selectivities=choice.residual_selectivities,
    )


def _apply_robustness(spec, rooted, reader, options, flat_output,
                      extra_cost=0.0):
    """Annotate and (possibly) re-order a winning plan's spec over the
    rooted tree ``rooted``; ``robustness="off"`` leaves it untouched.

    1. Read bound statistics and find the **bound-optimal** order (the
       order search under ``ExecutionMode.STD`` minimizes the worst-case
       objective exactly, see :mod:`repro.core.bounds`).
    2. The bounded-regret gate: if the estimated-optimal order's
       worst-case cost exceeds :data:`~repro.core.bounds.REGRET_FACTOR`
       times the bound-optimal one's, swap to the bound-optimal order,
       re-priced under the *estimated* statistics across the requested
       non-semi-join modes (SJ-only requests keep their plan: their
       child orders come from their own phase-1 search).
    3. Annotate the final order with its per-prefix cardinality bounds
       and worst-case cost.

    So the worst-case cost is at most ``REGRET_FACTOR`` times the best
    achievable, however wrong the estimates.  ``extra_cost`` is an
    order-invariant term of the predicted cost (a cyclic winner's
    residual filters).
    """
    if options.robustness == "off":
        return spec
    eps, weights = options.eps, options.weights
    bound_stats = reader.bound_stats(rooted)
    memo_bound = CostMemo(rooted, bound_stats, eps)
    current_bound = worst_case_cost(rooted, bound_stats, spec.order, eps=eps,
                                    weights=weights, memo=memo_bound)
    robust_order = _order_for_mode(rooted, bound_stats, ExecutionMode.STD,
                                   options, memo_bound)
    optimal_bound = min(current_bound, worst_case_cost(
        rooted, bound_stats, robust_order, eps=eps, weights=weights,
        memo=memo_bound,
    ))
    swap_modes = [m for m in options.modes if not m.uses_semijoin]
    swapped = {}
    if swap_modes and current_bound > REGRET_FACTOR * optimal_bound:
        best_mode = best_cost = None
        memo = CostMemo(rooted, spec.stats, eps)
        for candidate_mode in swap_modes:
            cost = _cost(rooted, spec.stats, robust_order, candidate_mode,
                         flat_output, options, memo)
            if best_cost is None or cost < best_cost:
                best_mode, best_cost = candidate_mode, cost
        swapped = dict(order=robust_order, mode=best_mode, child_orders=(),
                       predicted_cost=best_cost + extra_cost)
        current_bound = optimal_bound
    return replace(
        spec, **swapped, robustness=options.robustness,
        prefix_bounds=prefix_cardinality_bounds(
            bound_stats, swapped.get("order", spec.order)),
        worst_case_bound=current_bound,
    )


def decide(query, reader, options):
    """The optimizer: ``(PlanSpec, rooted tree, SearchTally)`` for
    ``query`` from the statistics ``reader`` serves.

    A pure function of statistics, as the paper's cost model and
    Algorithm 1 are: it holds no catalog and reads data only through
    the :class:`~repro.core.stats.StatsReader` methods ``sizes``,
    ``edge``, ``distinct``, ``rooted_stats``, ``bound_stats`` and
    ``max_frequency`` — so a frozen reader decides in a process that
    holds no data.  ``query`` is a rooted :class:`JoinQuery`, or a
    cyclic :class:`ParsedQuery`, whose spanning tree the joint search
    picks (:attr:`_PreparedQuery.searched`); ``options`` the request's
    :meth:`~repro.options.PlanOptions.resolved` record, whose
    ``deadline`` is an instant on this process's ``perf_counter``.
    """
    if isinstance(query, ParsedQuery):
        return _decide_cyclic(query, reader, options)
    return _decide_acyclic(query, reader, options)


def _decide_acyclic(join_query, reader, options):
    """Order + strategy search over the query's given rooting or, with
    ``driver="auto"``, over every relation as the driver: rerooting only
    flips edge directions, so the reader assembles each rooting's
    statistics from predicates measured once, and :func:`_search`
    searches few of them."""
    rootings = [join_query]
    if options.driver == "auto" and join_query.num_relations > 1:
        rootings = [join_query.rerooted(root)
                    for root in join_query.relations]
    best = _search(rootings, reader.rooted_stats, options, options.flat_output)
    spec = _apply_robustness(_spec(best, options), best.query, reader,
                             options, options.flat_output)
    return spec, best.query, best.search_tally


def _decide_cyclic(parsed, reader, options):
    """Joint spanning-tree + join-order search for a cyclic query.

    :func:`_decide_acyclic` one level up: tree edges and residuals are
    directed predicates the reader measures once each; spanning trees
    stream in approximately ascending estimated tree-output order (the
    greedy Kruskal minimum first, so the search only matches or beats
    greedy); one incumbent runs through every tree's :func:`_search`,
    where the tree's residual-filter term rides on the cost floor.
    Every tree is priced by the *total* cost model — tree join (flat
    output) plus :func:`~repro.core.cyclic.residual_filter_cost`.
    ``driver="auto"`` re-roots each tree; a ``deadline`` bounds the
    sweep after the greedy tree, which is always evaluated.

    ``cyclic_execution`` arbitrates the *strategy*: ``"auto"`` keeps the
    cheaper of the winning tree+filter plan and the worst-case-optimal
    operator (:func:`~repro.core.cyclic.wcoj_cost` over the greedy
    variable order); ``"wcoj"`` / ``"tree_filter"`` force one side.
    Unless ``tree_filter`` is forced, that price is computed once,
    *before* the sweep, and is an incumbent from the second tree on — a
    floored tree costs more than the price, so it could only have won
    the sweep to lose the arbitration.  A wcoj plan records the greedy
    tree unless some tree beat the price (its residual split is what
    rehydration keys on) but executes every predicate
    attribute-at-a-time.
    """
    deadline, weights = options.deadline, options.weights
    predicates = list(parsed.join_predicates)
    relations = list(parsed.relations)
    sizes = reader.sizes(relations)
    pair_sels = [
        edge_pair_selectivity(reader.edge(*predicate), sizes[predicate[2]])
        for predicate in predicates
    ]
    tree_weights = [log_pair_weight(s) for s in pair_sels]
    roots = (
        relations if options.driver == "auto" and len(relations) > 1
        else relations[:1]
    )
    wcoj_bound = math.inf
    if options.cyclic_execution != "tree_filter":
        classes = variable_classes(predicates)
        distincts = {member: reader.distinct(*member)
                     for members in classes for member in members}
        variable_order = plan_variable_order(classes, distincts)
        strategy_cost = wcoj_cost(variable_order, distincts, sizes, weights)
        # the arbitration below keeps a tree that exactly ties the price
        # (strict <), so such a tree must survive the sweep: only a tree
        # costing *more* than the price may be floored
        wcoj_bound = math.nextafter(strategy_cost, math.inf)
    best = None
    candidate_trees = enumerate_spanning_trees(
        relations, predicates, tree_weights, max_trees=MAX_SPANNING_TREES,
    )
    for tree_index, tree in enumerate(candidate_trees):
        if tree_index and deadline is not None \
                and time.perf_counter() > deadline:
            break  # anytime: the greedy tree is always evaluated
        in_tree = set(tree)
        tree_predicates = [predicates[index] for index in tree]
        # applied most-reducing first, matching residual_filter_cost
        residual_pairs = sorted(
            (pair_sels[index], index)
            for index in range(len(predicates))
            if index not in in_tree
        )
        residual_sels = tuple(sel for sel, _ in residual_pairs)
        # root the already-materialized tree edges directly; the
        # predicate-multiset subtraction behind tree_query_from_residuals
        # is root-independent and would be redone once per rooting
        # (cyclic output is always flat)
        searched = best.search_tally.order_searches if tree_index else -1
        best = _search(
            [_rooted_tree(relations, tree_predicates, root) for root in roots],
            reader.rooted_stats, options, True, best,
            wcoj_bound if tree_index else math.inf, residual_sels,
            tuple(ResidualPredicate(*predicates[index])
                  for _, index in residual_pairs),
        )
        if best.search_tally.order_searches == searched \
                and wcoj_bound < best.predicted_cost:
            best.search_tally.trees_floored += 1
    # Gate the winning *tree* order before strategy arbitration (wcoj
    # keeps the tree order; only the strategy flag and cost change after
    # this).  The residual-filter term is order-invariant for the
    # winning tree, so it rides along as extra cost when the gate
    # re-prices a swapped order.
    spec = _apply_robustness(
        _spec(best, options), best.query, reader, options, True,
        extra_cost=residual_filter_cost(
            expected_output_size(best.query, best.stats),
            best.residual_selectivities, weights,
        ),
    )
    if options.cyclic_execution != "tree_filter" and spec.residuals and (
            options.cyclic_execution == "wcoj"
            or strategy_cost < spec.predicted_cost):
        spec = replace(spec, cyclic_strategy="wcoj",
                       wcoj_variable_order=variable_order,
                       predicted_cost=strategy_cost)
    return spec, best.query, best.search_tally


# ----------------------------------------------------------------------
# Binding: a decision on this planner's data
# ----------------------------------------------------------------------


@dataclass
class _PreparedQuery:
    """One request as :meth:`Planner._prepare` derives it: what
    :func:`decide` reads and what :meth:`Planner.bind` binds to."""

    query: object  #: the parsed query (or the JoinQuery as given)
    #: the rooted tree; ``None`` for a cyclic query until decide picks it
    join_query: JoinQuery
    #: selections pushed down; partitioned once the tree is known
    catalog: Catalog
    options: object  #: the request's resolved options
    #: alias -> relation token (:func:`~repro.core.stats.relation_tokens`)
    #: against the base catalog, which the caches key on
    tokens: dict = None
    reader: StatsReader = None  #: the statistics decide reads
    #: base-catalog digest a :meth:`Planner.measure` d request was read
    #: against (``None``: decided and bound in one call)
    fingerprint: str | None = None

    @property
    def searched(self):
        """What :func:`decide` takes: the tree, or the cyclic query."""
        return self.query if self.join_query is None else self.join_query


class Planner:
    """Query planner over a catalog.

    Parameters
    ----------
    catalog:
        The :class:`~repro.storage.Catalog` holding base tables.
    stats_cache:
        Optional statistics store: an :class:`~repro.core.lru.LRUCache`
        (or ``True`` for one of 4096 entries).  When set, every directed
        join predicate (and column statistic) is measured once per (the
        two tables' contents, pushed-down selections) and found again by
        any later ``plan()`` — whatever its query, rooting, spanning
        tree or shard count; a changed table re-measures only the
        predicates touching it, and :meth:`reclaim` drops the
        measurements it superseded.
    **knobs:
        The fields of :class:`~repro.options.PlanOptions` — the one
        place every planning knob is declared and documented.  Held as
        :attr:`options`; each knob also reads (read-only) as a planner
        attribute, e.g. ``planner.beam_width``.

    The planner owns the data side — push-down, partitioning, the
    statistics store — and leaves the decision to :func:`decide`.
    """

    resolve_optimizer = staticmethod(resolve_optimizer)

    def __init__(self, catalog, stats_cache=None, **knobs):
        self.catalog = catalog
        self.options = PlanOptions(**knobs)
        if stats_cache is True:
            stats_cache = LRUCache(4096)
        self.stats_cache = stats_cache
        # Partitioning reuse, keyed by relation tokens: one re-clustered
        # copy per (alias, token, probe attribute, layout), shared by
        # every query probing that relation.
        self._relation_cache = LRUCache(16)
        #: every cache whose keys lead with the fingerprints of the
        #: tables an entry read; :meth:`reclaim` sweeps them all (a
        #: QuerySession registers its plan cache here)
        self.table_caches = [
            cache for cache in (stats_cache, self._relation_cache)
            if cache is not None
        ]
        self._reclaimed_version = None

    def __getattr__(self, name):
        # only reached for names not set on the instance: the knobs
        if name != "options" and name in PlanOptions.__dataclass_fields__:
            return getattr(self.options, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __setattr__(self, name, value):
        # an assignment would shadow the read-through view while
        # planning kept reading options: refuse it instead
        if name in PlanOptions.__dataclass_fields__:
            raise AttributeError(
                f"planner knob {name!r} is set at construction: "
                f"Planner(catalog, {name}=...)"
            )
        super().__setattr__(name, value)

    def reclaim(self):
        """The one reclaim gate: once per catalog version, drop from
        every cache of ``table_caches`` the entries that read a
        table the catalog no longer holds
        (:meth:`~repro.core.lru.LRUCache.reclaim`).

        One gate for all of them, so no cache sees a version move
        another skips.  Runs before every :meth:`plan` /
        :meth:`rehydrate` and before a session builds a plan-cache key.
        """
        version = self.catalog.version
        if version == self._reclaimed_version:
            return
        live = set(self.catalog.table_fingerprints().values())
        for cache in self.table_caches:
            cache.reclaim(live)
        self._reclaimed_version = version

    def _apply_partitioning(self, prep, join_query, aliases=None):
        """The execution catalog for a rooted tree over ``prep``'s
        push-down catalog: every probe target of ``join_query`` (of it,
        those in ``aliases`` when given) laid out for the request.

        Each probe target is re-clustered once per (alias, relation
        token, probe attribute, layout), never per whole catalog, and
        shared — with its index — by every query over that relation, so
        a write re-clusters only the relations that read the written
        table.
        """
        num_shards = prep.options.partitioning
        if num_shards <= 1:
            return prep.catalog
        floor = prep.options.partition_floor

        def relation(alias, attribute):
            token = prep.tokens[alias]
            return self._relation_cache.get_or_compute(
                ((token[0],), alias, token, attribute, num_shards, floor),
                lambda: partitioned_relation(
                    prep.catalog.table(alias), attribute,
                    num_shards, min_rows=floor,
                ),
            )

        replacements = {}
        for edge in join_query.edges:
            if aliases is not None and edge.child not in aliases:
                continue
            table = relation(edge.child, edge.child_attr)
            if table is not None:
                replacements[edge.child] = table
        if not replacements:
            return prep.catalog
        return prep.catalog.derived_with(replacements)

    def _prepare(self, query, overrides, tree=None):
        """The :class:`_PreparedQuery` of every entry point: the request
        resolved, selections pushed down, then hash-partitioning through
        the relation cache (what makes rehydration cheap) and a
        statistics reader over the result.

        A *cyclic* :class:`ParsedQuery` prepares with
        ``join_query=None``: its spanning tree is decide's to pick, and
        the layout follows the tree's probe attributes, so :meth:`bind`
        partitions.  Rehydration passes the ``tree`` a spec resolved.
        """
        request = self.options.override(**overrides)
        query = _parsed(query)
        options = request.resolved(self.catalog, query)
        self.reclaim()
        catalog = self.catalog
        if isinstance(query, ParsedQuery):
            if query.num_placeholders:
                raise ValueError(
                    "query has unbound '?' placeholders; bind constants "
                    "with ParsedQuery.bind(...) or plan it through "
                    "QuerySession.prepare(...)"
                )
            catalog = push_down_selections(catalog, query)
            if tree is not None:
                join_query = tree
            elif query.is_connected() and not query.is_acyclic():
                join_query = None  # cyclic: the joint search picks the tree
            else:
                join_query = query.to_join_query()
        else:
            join_query = query
        prep = _PreparedQuery(
            query=query, join_query=join_query, catalog=catalog,
            options=options, tokens=relation_tokens(self.catalog, query),
        )
        if join_query is not None:
            # acyclic: statistics read the partitioned catalog, so the
            # indexes they build are the ones execution probes
            prep.catalog = self._apply_partitioning(prep, join_query)
        prep.reader = StatsReader(
            prep.catalog, self.stats_cache,
            prep.tokens if self.stats_cache is not None else None,
        )
        return prep

    def plan(self, query, **overrides):
        """Build a :class:`PhysicalPlan`: resolve, prepare, read,
        :func:`decide`, :meth:`bind`.

        ``query`` is SQL text, a :class:`ParsedQuery`, or a rooted
        :class:`JoinQuery`.  ``overrides`` are per-call
        :class:`~repro.options.PlanOptions` knobs (``mode``,
        ``optimizer``, ``driver``, ...); anything not given keeps the
        planner's configured value.
        """
        prep = self._prepare(query, overrides)
        return self.bind(prep, *decide(prep.searched, prep.reader,
                                       prep.options))

    def measure(self, query, **overrides):
        """A :meth:`plan` request with everything :func:`decide` may read
        measured up front, to decide where no data is: every size, both
        directions of every predicate, each endpoint's distinct count
        when a cyclic query may be priced for wcoj and its max frequency
        under ``robustness="bounded"``.  It carries a frozen
        (catalog-free, picklable) reader and no deadline, which
        :meth:`~repro.options.ResolvedOptions.restarted` arms where
        decide runs; :meth:`bind` refuses the decision after a write.
        """
        fingerprint = self.catalog.fingerprint()
        prep = self._prepare(query, overrides)
        reader, options = prep.reader, prep.options
        cyclic = prep.join_query is None
        predicates = prep.query.join_predicates if cyclic else [
            (edge.parent, edge.parent_attr, edge.child, edge.child_attr)
            for edge in prep.join_query.edges]
        reader.sizes(prep.searched.relations)
        for parent, parent_attr, child, child_attr in predicates:
            reader.edge(parent, parent_attr, child, child_attr)
            reader.edge(child, child_attr, parent, parent_attr)
            for endpoint in ((parent, parent_attr), (child, child_attr)):
                if cyclic and options.cyclic_execution != "tree_filter":
                    reader.distinct(*endpoint)
                if options.robustness != "off":
                    reader.max_frequency(*endpoint)
        prep.reader, prep.options = reader.frozen(), replace(options,
                                                             deadline=None)
        prep.fingerprint = fingerprint
        return prep

    def bind(self, prep, spec, rooted, search_tally=None):
        """``spec``, decided for ``prep`` over the tree ``rooted``, as a
        :class:`PhysicalPlan` on its data.

        A cyclic query's catalog is partitioned only now, for the tree
        decide picked; the plan takes that catalog and ``prep``'s
        resolved options as its binding facts.  A :meth:`measure` d
        request refuses to bind (``ValueError``) after a write.
        """
        if prep.fingerprint is not None \
                and prep.fingerprint != self.catalog.fingerprint():
            raise ValueError(
                "stale decision: the catalog content changed since its "
                "statistics were measured"
            )
        catalog = prep.catalog
        if prep.join_query is None:
            catalog = self._apply_partitioning(prep, rooted)
        return PhysicalPlan(spec, catalog, rooted, prep.options,
                            search_tally=search_tally)

    def rebind(self, plan, query, aliases):
        """``plan`` bound to ``query``, another binding of the
        ``?``-parameterized query it was planned for
        (:meth:`~repro.service.session.QuerySession.prepare`).

        Only the relations in ``aliases`` (whose selection the binding
        changes) are filtered again and laid out by the rule every bind
        applies, so the plan equals what :meth:`rehydrate` binds for
        ``query`` under ``plan``'s options; every other relation, with
        its built indexes, is shared from ``plan.catalog``.
        """
        replacements = {
            alias: filtered_table(
                self.catalog.table(query.relations[alias]), alias,
                query.selections.get(alias, {}))
            for alias in aliases
        }
        prep = _PreparedQuery(
            query=query, join_query=None, options=plan.options,
            catalog=plan.catalog.derived_with(replacements),
            tokens=relation_tokens(self.catalog, query),
        )
        # the tree _prepare partitions for: the acyclic query as given,
        # a cyclic one's spanning tree as decided
        tree = plan.query if plan.residuals or not query.is_acyclic() \
            else query.to_join_query()
        return replace(plan, catalog=self._apply_partitioning(prep, tree,
                                                              aliases))

    def rehydrate(self, spec, query, **overrides):
        """A :class:`PhysicalPlan` from a :class:`PlanSpec` pinned
        elsewhere (:meth:`PhysicalPlan.to_spec`; a distributed worker
        rehydrates the driver's plan): the fingerprint check, then
        :meth:`bind` — a push-down plus cache lookups, never a search.
        ``overrides`` are the request's per-call knobs, which bind it:
        under other ones it keeps every decision and fingerprints apart
        only by its bound catalog.

        A spec that does not fit raises ``ValueError``: a stale
        fingerprint, residuals that do not identify a spanning tree of
        ``query`` (:func:`~repro.core.cyclic.tree_query_from_residuals`),
        and whatever the rebuilt :class:`PhysicalPlan` checks against
        that tree.
        """
        if spec.catalog_fingerprint != self.catalog.fingerprint():
            raise ValueError(
                "stale PlanSpec: the catalog content changed since it "
                "was planned (fingerprint mismatch)"
            )
        query = _parsed(query)
        tree = None
        if isinstance(query, ParsedQuery):
            if spec.residuals or not query.is_acyclic():
                # The spec's residuals identify the resolved spanning
                # tree: the query's predicate multiset minus them,
                # rooted at the spec's driver.
                tree = tree_query_from_residuals(query, spec.residuals,
                                                 spec.root)
        elif spec.residuals:
            raise ValueError(
                "a cyclic PlanSpec (with residuals) can only be "
                "rehydrated against the ParsedQuery it was planned for"
            )
        prep = self._prepare(query, overrides, tree=tree)
        return self.bind(prep, spec, tree if tree is not None
                         else prep.join_query.rerooted(spec.root))
