"""End-to-end planner: SQL (or JoinQuery) in, executable plan out.

Ties the whole system together the way a downstream user would consume
it:

1. parse the query (:mod:`repro.core.parser`) and push constant
   selections down to the relations (Section 2.1's assumption);
2. measure statistics (Section 3.1's ``m`` and ``fo``) one directed
   join predicate at a time through
   :class:`repro.core.stats.StatsReader`, which finds a predicate
   measured for any earlier query in the planner's statistics store;
3. pick the driver, the join order (Algorithm 1 or a greedy heuristic)
   and the execution strategy (the cost model prices all six; the
   paper: "our cost model ... can be used for making optimization
   decisions among the competing approaches");
4. return a :class:`PhysicalPlan` that executes on the engine and can
   ``explain()`` itself.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import time
from dataclasses import dataclass, field, fields, replace
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
from .distributed.placement import PLACEMENT_CHOICES
from .engine.executor import execute
from .engine.wcoj import execute_wcoj, plan_variable_order, variable_classes
from .modes import ExecutionMode
from .options import PlanOptions, resolve_optimizer
from .storage.partition import partitioned_relation
from .storage.table import Catalog, Table

__all__ = ["PhysicalPlan", "PlanSpec", "Planner", "SearchTally",
           "filtered_table", "push_down_selections"]


def filtered_table(table, alias, predicate):
    """A :class:`Table` named ``alias`` holding the rows matching
    ``predicate`` ({column: literal} constant selections).

    A :class:`~repro.core.parser.Contradiction` literal (conjunctive
    selections requiring distinct constants on one column) matches no
    row, so the derived relation is empty and the executor
    short-circuits to an empty join result.

    With no selection the result is ``table.renamed(alias)``, which
    shares the table's arrays, layout and cached indexes.  A filtered
    result is always in *base* row order: filtering a
    hash-partitioned table goes through
    :meth:`~repro.storage.table.Table.original_rows` /
    :meth:`~repro.storage.table.Table.gather`, so planning over an already
    re-clustered catalog still reports layout-independent row ids (the
    planner re-partitions the filtered relations itself when asked).
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
    counts from :meth:`Planner._search`, summed over a cyclic plan's
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
    ("execution", ("vectorized", "interpreted")),
    ("cyclic_strategy", ("tree_filter", "wcoj")),
    ("robustness", ROBUSTNESS_CHOICES),
    ("placement", PLACEMENT_CHOICES),
)


@dataclass(frozen=True, kw_only=True)
class PlanSpec(_RoleDeclared):
    """Everything the optimizer decided for one query — the one
    declaration of a plan; picklable and catalog-free.

    A :class:`PhysicalPlan` is a spec bound to its derived catalog and
    rooted join tree; a planning worker ships only the spec and
    :meth:`Planner.rehydrate` binds it to a locally derived (cached)
    catalog.  Each field declares its role once (:func:`_spec_field`).
    Construction checks knob legality — an illegal mode, execution
    path, cyclic strategy, robustness, shard count or placement /
    worker combination cannot exist — plus the facts a spec states
    alone: residual selectivities aligned with the residuals, one finite
    non-negative bound per join step exactly when robust, and a wcoj
    plan with residuals and a variable order.  It stores ``order`` and
    ``child_orders`` canonically (tuples, sorted by relation).

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
    #: hash-shard fan-out of the plan's catalog (1 = off)
    num_shards: int = _spec_field("decision", default=1)
    execution: str = _spec_field("decision", default="vectorized")
    #: always "tree_filter" for acyclic plans
    cyclic_strategy: str = _spec_field("decision", default="tree_filter")
    #: a wcoj plan's variables, each a tuple of (relation, attribute)
    wcoj_variable_order: tuple = _spec_field(
        "decision", lambda order: tuple(tuple(var) for var in order),
        default=())
    robustness: str = _spec_field("decision", default="off")
    placement: str = _spec_field("decision", default="local")
    #: worker processes of a distributed plan (0 for local plans)
    num_workers: int = _spec_field("decision", default=0)
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
        shards, workers = self.num_shards, self.num_workers
        if any(isinstance(n, bool) or not isinstance(n, int)
               for n in (shards, workers)) or shards < 1 or workers < 0 \
                or (self.placement == "distributed") != (workers >= 1):
            raise ValueError(
                f"illegal {self.placement} plan with num_shards={shards!r}, "
                f"num_workers={workers!r} (shards >= 1; workers 0 local, "
                f">= 1 distributed)"
            )
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
    derived ``catalog`` it executes against and the rooted ``query``.

    Every non-anchor spec field reads as a plan attribute (``plan.mode``,
    ``plan.stats``, ...; ``order`` / ``child_orders`` as the list / dict
    the engine takes), through an explicit read-only property.
    Decisions are immutable — a changed plan is a new plan
    (``dataclasses.replace`` on its spec) — so a cached plan can be
    served to any number of callers.  ``search_tally`` (what the search
    ran and pruned; ``None`` on a rehydrated plan) is observational:
    never fingerprinted or shipped.

    Construction checks the spec against the tree and the catalog: the
    order respects precedence, ``child_orders`` permute each relation's
    children, a wcoj variable order covers exactly the endpoints of the
    tree edges and residuals, and every relation and predicate column
    exists in ``catalog``.

    A cyclic plan's ``query`` is the spanning tree the joint search
    selected, ``residuals`` the predicates left to filter (applied in
    ascending estimated selectivity) and ``predicted_cost`` includes
    the residual-filter term, comparable with acyclic plans.
    """

    spec: PlanSpec
    catalog: Catalog
    query: JoinQuery
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
    num_shards = property(attrgetter("spec.num_shards"))
    execution = property(attrgetter("spec.execution"))
    cyclic_strategy = property(attrgetter("spec.cyclic_strategy"))
    wcoj_variable_order = property(attrgetter("spec.wcoj_variable_order"))
    robustness = property(attrgetter("spec.robustness"))
    placement = property(attrgetter("spec.placement"))
    num_workers = property(attrgetter("spec.num_workers"))
    stats = property(attrgetter("spec.stats"))
    predicted_cost = property(attrgetter("spec.predicted_cost"))
    weights = property(attrgetter("spec.weights"))
    residual_selectivities = property(
        attrgetter("spec.residual_selectivities"))
    prefix_bounds = property(attrgetter("spec.prefix_bounds"))
    worst_case_bound = property(attrgetter("spec.worst_case_bound"))

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

    def execute(self, flat_output=True, collect_output=False,
                max_intermediate_tuples=50_000_000, monitor=None,
                driver_rows=None):
        """Run the plan on the engine.

        Cyclic plans route by ``cyclic_strategy``: ``tree_filter``
        runs :func:`~repro.core.cyclic.execute_cyclic` (tree join +
        residual filters, with root-to-leaf residuals pushed into
        factorized expansion), ``wcoj`` runs
        :func:`~repro.engine.wcoj.execute_wcoj` (attribute-at-a-time
        variable elimination over the costed
        ``wcoj_variable_order``).  Either way cyclic output is
        always flat — residual predicates break factorization, so
        ``flat_output`` is moot for them.

        ``monitor`` (a
        :class:`~repro.engine.feedback.CardinalityMonitor`) is
        forwarded to the acyclic pipelines only — cyclic execution
        interleaves residual filtering with the tree join, so its
        per-join counters do not measure a single edge selectivity.

        ``driver_rows`` restricts the run to a subset of root rows (the
        distributed scatter path).  Always executes in-process — even on
        a ``placement="distributed"`` plan — so the worker side of the
        pool can call it without recursing; the session layer is what
        routes distributed plans to the pool.
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
            monitor=monitor, driver_rows=driver_rows, **shared,
        )

    def fingerprint(self):
        """A stable content digest of the resolved plan (hex string).

        Covers the rooted tree (driver and edges), every decision field
        of the spec (:data:`_DECISIONS`, in declaration order) and the
        catalog content it was planned against, so two planning passes
        that resolved identically (e.g. a cache hit and the plan it was
        seeded from, or a worker-planned spec and its rehydration)
        fingerprint identically.
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
    """:meth:`Planner._search`'s incumbent, priced; becomes a
    :class:`PlanSpec` once the search is over."""

    predicted_cost: float
    query: JoinQuery
    stats: QueryStats
    order: list
    mode: ExecutionMode
    child_orders: dict
    search_tally: SearchTally
    residuals: tuple = ()
    residual_selectivities: tuple = ()


@dataclass
class _PreparedQuery:
    """Everything :meth:`Planner._prepare` derives for one query."""

    #: the parsed query (or the JoinQuery as given)
    query: object
    #: the rooted join tree — ``None`` for a cyclic query, whose tree
    #: the joint search chooses (partitioning is deferred until then)
    join_query: JoinQuery
    #: execution catalog: selections pushed down, partitioning applied
    #: (a cyclic query's stays unpartitioned here: the joint search
    #: partitions the tree it picks)
    catalog: Catalog
    #: alias -> relation token (:func:`~repro.core.stats.relation_tokens`)
    #: against the base catalog: what the statistics store and the
    #: re-clustered relation cache key on
    tokens: dict = None
    #: resolved hash-shard fan-out of :attr:`catalog` (1 = off)
    effective_shards: int = 1


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

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    #: anytime fallback order per starting algorithm: an order search
    #: that overruns its deadline falls to the next rung; beam search is
    #: the floor (linear time, never deadline-checked)
    _LADDER = {
        "exhaustive": ("exhaustive", "idp", "beam"),
        "idp": ("idp", "beam"),
        "beam": ("beam",),
    }

    def _order_for_mode(self, query, stats, mode, options, memo=None,
                        upper_bound=None):
        """Best order for one non-semi-join strategy.

        ``options`` is the request's resolved
        :class:`~repro.options.PlanOptions`: its ``optimizer`` picks the
        algorithm, its ``deadline`` activates the anytime ladder (a DP
        that overruns falls down to the next cheaper algorithm instead
        of failing).  ``memo`` is an optional shared
        :class:`~repro.core.costmodel.CostMemo` for this (query, stats,
        eps) so every strategy's optimization and costing reuse one set
        of subset tables.

        ``upper_bound`` (in the search objective's units) enables
        branch-and-bound pruning against an incumbent plan; the return
        is ``None`` when every candidate order was pruned — the
        incumbent cannot be beaten from here.
        """
        shared = dict(mode=mode, eps=options.eps, weights=options.weights)
        rungs = self._LADDER.get(options.optimizer)
        if rungs is None:
            return greedy_order(query, stats, options.optimizer,
                                **shared).order
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

    def _cost(self, query, stats, order, mode, flat_output, memo=None):
        return plan_cost(query, stats, order, mode, eps=self.options.eps,
                         flat_output=flat_output,
                         memo=memo).total(self.options.weights)

    def _apply_partitioning(self, prep, join_query, options):
        """``(execution catalog, effective shards)`` for a rooted tree.

        The content-addressed partitioning step shared by
        :meth:`_prepare` (acyclic queries, whose tree is the query) and
        the cyclic joint search (which partitions once its winning tree
        is known).  Each probe target is re-clustered once per (alias,
        relation token (:func:`~repro.core.stats.relation_tokens`),
        probe attribute, layout), never per whole catalog, and shared
        — with its index — by every query over that relation; the
        derived catalog around those shared tables is built per call.
        A write re-clusters only the relations that read the written
        table.  ``prep.catalog`` is still the unpartitioned push-down
        catalog here: both callers run before anything reassigns it.
        """
        num_shards = options.partitioning
        if num_shards <= 1:
            return prep.catalog, 1
        floor = options.partition_floor

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
            table = relation(edge.child, edge.child_attr)
            if table is not None:
                replacements[edge.child] = table
        if not replacements:
            return prep.catalog, 1
        return prep.catalog.derived_with(replacements), num_shards

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

    def _prepare(self, query, options, tree=None):
        """Derive the execution catalog for a parsed query.

        Shared by :meth:`plan` and :meth:`rehydrate`: selection
        push-down and hash-partitioning.  Returns a
        :class:`_PreparedQuery`; the expensive step, re-clustering,
        hits the same relation cache from every entry point, which is
        what makes rehydrating a :class:`PlanSpec` cheap — the worker
        only ships decisions, and each re-clustered relation is a
        cache lookup after the first query over it.

        A *cyclic* :class:`ParsedQuery` prepares with
        ``join_query=None`` — its spanning tree is an optimizer
        decision, so partitioning (whose layout follows the tree's
        probe attributes) is deferred until the joint search picks one.
        ``tree`` short-circuits that: rehydration passes the tree a
        :class:`PlanSpec` resolved, and preparation proceeds exactly
        like the acyclic path.
        """
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
            query=query,
            join_query=join_query,
            catalog=catalog,
            tokens=relation_tokens(self.catalog, query),
        )
        if join_query is not None:
            prep.catalog, prep.effective_shards = self._apply_partitioning(
                prep, join_query, options
            )
        return prep

    def plan(self, query, **overrides):
        """Build a :class:`PhysicalPlan`.

        ``query`` is SQL text, a :class:`ParsedQuery`, or a rooted
        :class:`JoinQuery`.  ``overrides`` are per-call
        :class:`~repro.options.PlanOptions` knobs (``mode``,
        ``optimizer``, ``driver``, ...); anything not given keeps the
        planner's configured value.
        """
        request = self.options.override(**overrides)
        query = _parsed(query)
        options = request.resolved(self.catalog, query)
        prep = self._prepare(query, options)
        reader = StatsReader(
            prep.catalog, self.stats_cache,
            prep.tokens if self.stats_cache is not None else None,
        )
        if prep.join_query is None:
            return self._plan_cyclic(prep, reader, options)
        return self._plan_acyclic(prep, reader, options)

    def _spec(self, choice, options, num_shards):
        """The :class:`PlanSpec` of a search winner — built once per
        :meth:`plan`, after the search."""
        return PlanSpec(
            root=choice.query.root, order=choice.order, mode=choice.mode,
            child_orders=choice.child_orders, residuals=choice.residuals,
            num_shards=num_shards, execution=options.execution,
            placement=options.placement,
            num_workers=options.num_workers, stats=choice.stats,
            predicted_cost=choice.predicted_cost,
            weights=self.options.weights,
            residual_selectivities=choice.residual_selectivities,
        )

    def _search(self, rootings, stats_for, options, flat_output, best=None,
                incumbent=math.inf, residual_selectivities=(), residuals=()):
        """The cheapest (rooting, mode, order) among ``rootings``.

        The one order + strategy search behind a fixed driver (one
        rooting), the ``driver="auto"`` sweep, every candidate spanning
        tree of a cyclic query (whose ``residuals`` ride on its
        :class:`_Choice`) and :meth:`replan`.  ``stats_for(rooted)``
        supplies a rooting's statistics.  Returns a :class:`_Choice`, or
        ``best`` — the choice handed in — when nothing beats both its
        cost and ``incumbent`` (a plain cost to beat, e.g. another
        operator's price); the first of equally cheap choices wins.

        *Floor -> lazy proxy -> bounded search.*  Rootings wait in a
        heap keyed by the least ``costmodel.cost_lower_bound`` over the
        requested strategies.  One popped while that bound reaches the
        incumbent is dropped: the incumbent only gets cheaper, so at its
        turn every strategy would have been skipped or pruned out.
        Otherwise it gets its :class:`~repro.core.costmodel.CostMemo`
        and a width-1 beam plan and re-enters keyed by that proxy's full
        cost; no proxy is below its rooting's bound, so a popped entry
        *with* a proxy is next in ``(proxy cost, given position)`` order
        — rootings are searched exactly as if all had been ranked up
        front.  Each strategy's search is then bounded by the incumbent
        minus ``costmodel.order_invariant_floor`` (times the largest
        probe cost, which only the search objective multiplies in); a
        floor that alone reaches the incumbent skips the strategy — the
        SJ variants' only exit.

        One rooting, or SJ-only strategies (polynomial: nothing to
        prune), are searched in the given order.  A cyclic tree's
        ``residual_selectivities`` add the residual-filter cost of the
        first-ranked rooting's expected output to every candidate;
        nothing is dropped before that rooting is known.
        """
        eps, weights = self.options.eps, self.options.weights
        tally = best.search_tally if best is not None else SearchTally()
        if best is not None:
            incumbent = min(incumbent, best.predicted_cost)
        tally.rootings += len(rootings)
        proxy_mode = None
        if len(rootings) > 1:
            proxy_mode = next(
                (mode for mode in options.modes if not mode.uses_semijoin),
                None,
            )
        heap = []
        for position, rooted in enumerate(rootings):
            stats = stats_for(rooted)
            expected = expected_output_size(rooted, stats)
            if proxy_mode is None:
                key, memo = 0.0, CostMemo(rooted, stats, eps)
            else:
                key, memo = min(
                    cost_lower_bound(rooted, stats, mode, weights,
                                     flat_output, expected)
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
                key = self._cost(rooted, stats, greedy.order, proxy_mode,
                                 flat_output, memo)
                heapq.heappush(
                    heap, (key, position, rooted, stats, expected, memo))
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
                            rooted, stats, mode, weights, flat_output,
                            expected))
                    if upper_bound <= 0.0:
                        tally.modes_floored += 1
                        continue
                    upper_bound *= probe_scale
                if mode.uses_semijoin:
                    found = optimize_sj(rooted, stats, mode.factorized,
                                        weights, flat_output, memo)
                    tally.sj_pricings += 1
                    order, cost = found.order, found.cost
                    child_orders = found.child_orders
                else:
                    order = self._order_for_mode(
                        rooted, stats, mode, options, memo, upper_bound)
                    if order is None:
                        tally.searches_pruned += 1
                        continue
                    tally.searches_completed += 1
                    cost = self._cost(rooted, stats, order, mode,
                                      flat_output, memo)
                    child_orders = {}
                cost += fixed_cost
                if cost < incumbent or best is None and incumbent == math.inf:
                    incumbent = cost
                    best = _Choice(cost, rooted, stats, order, mode,
                                   child_orders, tally, residuals,
                                   residual_selectivities)
        return best

    # ------------------------------------------------------------------
    # Pessimistic bounded-regret planning (the robustness knob)
    # ------------------------------------------------------------------

    def _apply_robustness(self, spec, rooted, reader, options, flat_output,
                          extra_cost=0.0):
        """Annotate and (possibly) re-order a winning plan's spec (over
        the rooted tree ``rooted``); returns the replacement spec.

        ``options.robustness == "off"`` returns the spec untouched (a
        spec is built off-mode: the posture arrives with its bounds).
        Otherwise:

        1. read bound statistics and find the **bound-optimal** order
           — the existing order search under ``ExecutionMode.STD``
           minimizes the worst-case objective exactly (see
           :mod:`repro.core.bounds`);
        2. the bounded-regret gate: if the estimated-optimal order's
           worst-case cost exceeds :data:`~repro.core.bounds.REGRET_FACTOR`
           times the
           bound-optimal order's, swap to the bound-optimal order and
           re-price it under the *estimated* statistics across the
           requested non-semi-join modes (semi-join child orders are
           entangled with their own phase-1 search, and full reduction
           already discards doomed tuples before the join, so SJ-only
           mode requests keep their plan and only gain annotations);
        3. annotate the final order with its guaranteed per-prefix
           cardinality bounds and worst-case cost.

        Guarantee: the returned plan's worst-case bound cost is at most
        ``REGRET_FACTOR`` times the best achievable worst-case bound
        cost, no matter how wrong the estimates were.  ``extra_cost``
        rides along when the caller's predicted cost includes an
        order-invariant term (a cyclic winner's residual filters).
        """
        if options.robustness == "off":
            return spec
        bound_stats = reader.bound_stats(rooted)
        memo_bound = CostMemo(rooted, bound_stats, self.options.eps)
        current_bound = worst_case_cost(
            rooted, bound_stats, spec.order, eps=self.options.eps,
            weights=self.options.weights, memo=memo_bound,
        )
        robust_order = self._order_for_mode(
            rooted, bound_stats, ExecutionMode.STD, options, memo_bound,
        )
        optimal_bound = current_bound
        if robust_order is not None:
            optimal_bound = min(current_bound, worst_case_cost(
                rooted, bound_stats, robust_order, eps=self.options.eps,
                weights=self.options.weights, memo=memo_bound,
            ))
        swap_modes = [m for m in options.modes if not m.uses_semijoin]
        swapped = {}
        if (robust_order is not None and swap_modes
                and current_bound
                > REGRET_FACTOR * optimal_bound):
            best_mode = best_cost = None
            memo = CostMemo(rooted, spec.stats, self.options.eps)
            for candidate_mode in swap_modes:
                cost = self._cost(rooted, spec.stats, robust_order,
                                  candidate_mode, flat_output, memo)
                if best_cost is None or cost < best_cost:
                    best_mode, best_cost = candidate_mode, cost
            swapped = dict(order=robust_order, mode=best_mode,
                           child_orders=(),
                           predicted_cost=best_cost + extra_cost)
            current_bound = optimal_bound
        return replace(
            spec, **swapped, robustness=options.robustness,
            prefix_bounds=prefix_cardinality_bounds(
                bound_stats, swapped.get("order", spec.order)),
            worst_case_bound=current_bound,
        )

    def replan(self, plan, corrected, options=None):
        """Re-optimize an acyclic plan against corrected statistics.

        The cold half of runtime cardinality feedback
        (:mod:`repro.engine.feedback`): keeps the plan's derived
        catalog (selections already pushed down, partitioning already
        applied) and its tree edges, and re-runs the order + mode
        search with ``corrected`` — typically
        :func:`~repro.engine.feedback.corrected_stats` output built
        from a :class:`~repro.engine.feedback.ReplanSignal`'s
        observations.  ``options`` is the original request's
        :meth:`~repro.options.PlanOptions.resolved` record, so the
        replan honours what the cold plan did: a forced ``mode`` stays
        forced, the optimizer rung is the request's, and the anytime
        deadline comes from its ``planning_budget_ms`` (``None``: the
        planner's configured options).

        Robustness bound annotations are recomputed when the original
        plan carried them, so a replanned plan passes the same BOUND
        construction checks (the max-frequency read hits the catalog's
        index cache — the executed plan already built those indexes).
        """
        if plan.is_cyclic:
            raise ValueError(
                "replan() supports acyclic plans only (cyclic execution "
                "interleaves residual filters, so per-join feedback does "
                "not measure single edges)"
            )
        rooted = plan.query
        if options is None:
            options = self.options.resolved(self.catalog, rooted)
        best = self._search(
            [rooted], lambda _: corrected, options, options.flat_output,
        )
        prefix_bounds, worst_case_bound = (), 0.0
        if plan.robustness != "off":
            bound_stats = StatsReader(plan.catalog).bound_stats(rooted)
            prefix_bounds = prefix_cardinality_bounds(bound_stats, best.order)
            worst_case_bound = worst_case_cost(
                rooted, bound_stats, best.order, eps=self.options.eps,
                weights=self.options.weights,
            )
        spec = replace(
            plan.spec, order=best.order, mode=best.mode,
            child_orders=best.child_orders, stats=corrected,
            predicted_cost=best.predicted_cost, prefix_bounds=prefix_bounds,
            worst_case_bound=worst_case_bound,
        )
        return replace(plan, spec=spec, search_tally=best.search_tally)

    # ------------------------------------------------------------------
    # Acyclic queries: fixed driver, or the cross-rooting driver search
    # ------------------------------------------------------------------

    def _plan_acyclic(self, prep, reader, options):
        """Order + strategy search over the query's given rooting or,
        with ``driver="auto"``, over every relation as the driver.

        Every relation is a candidate driver, but few are searched:
        rerooting only flips edge directions and the reader measures
        each directed predicate once, so per-rooting statistics are
        assembled, not re-derived; and :meth:`_search` drops a rooting
        whose cost lower bound already loses, ranks the rest lazily by
        a greedy proxy and bounds each real order search by the
        incumbent (floor -> lazy proxy -> bounded search).
        """
        rootings = [prep.join_query]
        if options.driver == "auto" and prep.join_query.num_relations > 1:
            rootings = [prep.join_query.rerooted(root)
                        for root in prep.join_query.relations]
        best = self._search(
            rootings, reader.rooted_stats, options, options.flat_output,
        )
        spec = self._apply_robustness(
            self._spec(best, options, prep.effective_shards), best.query,
            reader, options, options.flat_output,
        )
        return PhysicalPlan(spec, prep.catalog, best.query,
                            search_tally=best.search_tally)

    # ------------------------------------------------------------------
    # Cyclic queries: joint spanning-tree + join-order search
    # ------------------------------------------------------------------

    def _plan_cyclic(self, prep, reader, options):
        """Joint spanning-tree + join-order search for a cyclic query.

        :meth:`_plan_acyclic` one level up: tree edges and residuals
        are all directed predicates the reader measures once each;
        spanning trees stream in approximately ascending estimated
        tree-output order (the greedy Kruskal minimum first, so the
        search can only match or beat greedy); and one incumbent runs
        through every tree's :meth:`_search`, where the tree's
        residual-filter term (order- and rooting-invariant) rides on
        the per-strategy cost floor — a tree whose floor alone reaches
        the incumbent runs no order search.

        Every candidate tree is priced by the *total* cost model —
        tree-join cost (flat output: residual filtering always pays the
        expansion) plus :func:`~repro.core.cyclic.residual_filter_cost`
        — so a tree with a slightly larger join output still wins when
        its probe structure or residuals are cheaper.  ``driver="auto"``
        re-roots each candidate tree; a ``deadline`` bounds the
        candidate sweep after the greedy tree, which is always fully
        evaluated.

        ``cyclic_execution`` arbitrates the execution *strategy* on top
        of the winning tree: ``"auto"`` prices the worst-case-optimal
        operator (:func:`~repro.core.cyclic.wcoj_cost` over the greedy
        variable order) against the winning tree+filter plan and keeps
        the cheaper; ``"wcoj"`` / ``"tree_filter"`` force one side.
        Unless ``tree_filter`` is forced, that price is computed once,
        *before* the sweep: the greedy tree is searched unbounded, and
        from the second tree on the price is an incumbent, so a tree
        whose floor cannot beat it runs no order search.  A wcoj plan
        records the greedy tree unless some tree beat the price — its
        residual split is what the edge-XOR-residual invariant and
        rehydration key on — but executes the full cyclic predicate
        set attribute-at-a-time instead.  The strategy decision is the
        one an unbounded sweep makes: a floored tree costs more than
        the price, so it could only have won the sweep to lose the
        arbitration, and a tree that ties the price is never floored.
        """
        parsed = prep.query
        deadline, weights = options.deadline, self.options.weights
        predicates = list(parsed.join_predicates)
        relations = list(parsed.relations)
        sizes = reader.sizes(relations)
        pair_sels = [
            edge_pair_selectivity(reader.edge(*predicate),
                                  sizes[predicate[2]])
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
            strategy_cost = wcoj_cost(variable_order, distincts, sizes,
                                      weights)
            # the arbitration below keeps a tree that exactly ties the
            # price (strict <), so such a tree must survive the sweep:
            # only a tree costing *more* than the price may be floored
            wcoj_bound = math.nextafter(strategy_cost, math.inf)
        best = None
        candidate_trees = enumerate_spanning_trees(
            relations, predicates, tree_weights,
            max_trees=MAX_SPANNING_TREES,
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
            # predicate-multiset subtraction behind
            # tree_query_from_residuals is root-independent and would
            # be redone once per rooting (cyclic output is always flat)
            searched = best.search_tally.order_searches if tree_index else -1
            best = self._search(
                [_rooted_tree(relations, tree_predicates, root)
                 for root in roots],
                reader.rooted_stats, options, True, best,
                wcoj_bound if tree_index else math.inf, residual_sels,
                tuple(ResidualPredicate(*predicates[index])
                      for _, index in residual_pairs),
            )
            if best.search_tally.order_searches == searched \
                    and wcoj_bound < best.predicted_cost:
                best.search_tally.trees_floored += 1
        # Partitioning follows the winning tree's probe attributes, so
        # it is applied only now (content-addressed, like every plan).
        catalog, num_shards = self._apply_partitioning(
            prep, best.query, options
        )
        # Gate the winning *tree* order before strategy arbitration
        # (wcoj keeps the tree order; only the strategy flag and cost
        # change after this).  The residual-filter term is
        # order-invariant for the winning tree, so it rides along as
        # extra cost when the gate re-prices a swapped order.
        spec = self._apply_robustness(
            self._spec(best, options, num_shards), best.query, reader,
            options, True,
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
        return PhysicalPlan(spec, catalog, best.query,
                            search_tally=best.search_tally)

    # ------------------------------------------------------------------
    # Plan-spec rehydration (process-pool planning)
    # ------------------------------------------------------------------

    def rehydrate(self, spec, query, **overrides):
        """A :class:`PhysicalPlan` from a :class:`PlanSpec` planned
        elsewhere (typically a planning-worker process).

        ``query`` must be the same query the spec was planned for and
        this planner's catalog must hold the same content the spec was
        planned against (checked via the spec's pinned fingerprint).
        The execution catalog is derived locally through the same
        content-addressed caches :meth:`plan` uses, so rehydration costs
        a push-down plus cache lookups — never an order search.
        ``overrides`` are the request's per-call knobs (only
        ``partitioning`` matters here).

        A spec that does not fit ``query`` raises ``ValueError`` before
        anything runs: its residuals must identify a spanning tree of
        the query (:func:`~repro.core.cyclic.tree_query_from_residuals`
        rejects a residual the query lacks and a predicate set that is
        not a spanning tree), its shard count must be the one this
        planner derives, and the rebuilt :class:`PhysicalPlan` checks
        the order, child orders, wcoj variables and catalog columns
        against that tree.
        """
        request = self.options.override(**overrides)
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
        prep = self._prepare(
            query, request.resolved(self.catalog, query), tree=tree
        )
        rooted = tree if tree is not None \
            else prep.join_query.rerooted(spec.root)
        if prep.effective_shards != spec.num_shards:
            raise ValueError(
                f"PlanSpec was planned for {spec.num_shards} shard(s) "
                f"but this planner derives {prep.effective_shards}"
            )
        return PhysicalPlan(spec, prep.catalog, rooted)
