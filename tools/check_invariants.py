#!/usr/bin/env python3
"""Repo-invariant linter: static checks ruff/mypy can't express.

Pure stdlib (``ast`` + ``pathlib``); run from the repo root::

    python tools/check_invariants.py

Exit status 0 when every invariant holds, 1 with one line per finding
otherwise.  The rules encode contracts the engine relies on but which
live across files, so no single diff review sees them break.  A rule
scoped to a named file, class or method reports that target missing
when it moves, so no rule passes vacuously on a renamed target:

RAW_KEY_EQ
    Join-key comparisons must route through the exactness layer
    (normalized searchsorted probes / ``_float_exact``), never ad-hoc
    ``==`` / ``!=`` on key values — a raw compare silently reintroduces
    the int/float 2**53 and NaN bugs the storage layer exists to
    prevent.  Applies to ``src/repro/engine`` and ``src/repro/storage``.
    Self-comparisons (``key != key``, the NaN test) and the allowlisted
    implementation sites of the exactness layer itself are exempt.

UNLOCKED_CACHE_MUTATION
    ``_entries`` / ``_inflight`` mark lock-guarded shared state (the
    ``LRUCache`` convention).
    Only methods of the owning class may touch them (``self._...``),
    and any method doing so must hold ``self._lock`` in a ``with``
    block.  Reaching into another object's ``_entries`` bypasses its
    lock; touching your own without the lock is a data race under the
    concurrent planning the service layer promises.

UNSORTED_FINGERPRINT_ITER
    Functions that build fingerprints / cache keys must not iterate
    dicts or sets un-sorted: iteration order is insertion order, so two
    semantically identical plans could fingerprint differently and the
    plan cache would silently stop deduplicating.  Every ``.items()`` /
    ``.keys()`` / ``.values()`` call (and set literal) inside such a
    function must sit under a ``sorted(...)`` call, as must any set
    that is iterated rather than membership-tested.

KERNEL_SURFACE
    ``VectorizedKernels`` and ``InterpretedKernels`` are swappable data
    planes: their public method surfaces must be identical, and
    same-named methods must update the same counters (augmented
    assignments to the same attribute names), or ``execution="auto"``
    changes observable behaviour beyond speed.

INDEX_LAYOUT_SELECTOR
    ``HashIndex`` picks its physical layout (dense direct-address table
    vs sorted arrays) from the indexed keys alone — that is what makes
    the fast layout unable to cost memory or change answers.  So
    ``storage/hashindex.py`` may expose nothing that selects it from
    outside: ``HashIndex.__init__`` takes exactly ``(keys, rows)``, the
    module defines no public constant and reads no environment.  And
    ``HashIndex`` is the storage layer's only probe structure: no other
    class under ``storage/`` defines ``lookup`` — a partitioned table is
    a row layout indexed like any other, not a second probe path.

NO_MODULE_EXECUTOR
    No module under ``src/repro`` binds a ``ThreadPoolExecutor`` /
    ``ProcessPoolExecutor`` to a module global, by a module-level
    assignment or a ``global`` rebinding inside a function.  A pool
    lives on the instance that owns its lifecycle (``close`` /
    ``shutdown``): a process-wide pool outlives its users, and a forked
    worker inherits the pool object without its threads, so the first
    task submitted there waits forever.

STATS_SINGLE_PRODUCER
    Planning statistics have one producer, ``core/stats.py``: it alone
    measures a directed join predicate (``index.probe_stats(...)``) and
    keys the result in the statistics store, so a measurement made
    anywhere else is one the store cannot share or invalidate.  No other
    module under ``src/repro`` may call ``probe_stats`` (the storage
    layer that implements it is exempt).  Planning measures exactly, so
    a ``CorrelatedSample(...)`` is constructed only where estimators are
    implemented or *evaluated* (``estimation/`` and the figure drivers,
    exempt from both calls), ``core/stats.py`` included.  The module
    defining ``decide`` (``DECIDE``) may not construct ``EdgeStats`` —
    it decides from what the reader hands it.

COST_FLOOR_SINGLE_PRODUCER
    What no join order can avoid paying is computed in one place,
    ``core/costmodel.order_invariant_floor`` (and ``cost_lower_bound``
    on top of it); the incumbent pruning in ``_search`` is only sound
    while every floor it subtracts is that function's.  So the module
    defining ``decide`` defines no function or lambda named ``floor`` /
    ``*_floor``, passes no ``floor=`` argument, and never reads the
    operation weights floors are made of (``tuple_generation``,
    ``bitvector_probe``, ``semijoin_probe``).

WCOJ_PRICED_ONCE
    The module defining ``decide`` calls ``wcoj_cost`` and
    ``plan_variable_order`` (each one it names) exactly once: wcoj is
    priced before the spanning-tree sweep, whose incumbent the price is,
    on the one path ``auto`` and a forced ``"wcoj"`` share — a second
    site is a second, unbounded path.

WCOJ_BUILD_ONCE
    ``engine/wcoj.py``'s ``execute_wcoj`` builds no structure: its body
    calls no ``np.unique`` / ``searchsorted``, constructs no
    ``HashIndex`` and gathers no base column (``_base_column``).  The
    value domains, rank maps and chain indexes depend only on table
    contents and the plan's binding sequence, so they are built by
    cached builders on a miss of ``Catalog.table_structure`` — a build
    in the body runs again on every execution.

ONE_FANOUT_PER_STEP
    A join step or expansion level pays one ``np.repeat``, into a
    lineage pointer (``kernels.fan_out`` / ``LookupResult.fan_out``);
    every other column at that step is a gather through it.  A query
    leaf's one fan-out moves to its first read: the factorized pipeline
    attaches the leaf as its probe, and the node fans it out once, when
    its entries are first read.  So under
    ``src/repro/engine`` (``kernels.py``, which implements the planes,
    exempt) no ``repeat_rows(...)`` call sits inside a comprehension or
    a loop body — that is one repeat per column — and no module but
    ``storage/hashindex.py`` calls ``concat_ranges(...)`` (import
    aliases followed): the engine takes ranges from the fan-out, which
    returns the lineage with them.

PLAN_FIELD_SINGLE_DECLARATION
    A plan field is declared once, as a ``PlanSpec`` field whose
    ``_spec_field(role, ...)`` states its role (``anchor`` /
    ``decision`` / ``derived``); fingerprint, shipping and the
    construction checks derive from it.  So no ``PlanSpec`` field lacks
    a literal role, ``planner.py``'s ``fingerprint`` ``repr`` s no
    hand-written tuple, and ``src/repro/analysis`` keeps no module-level
    ``frozenset`` of plan field names.  A spec holds only the decision:
    no ``PlanSpec`` field is a binding fact ``Planner.bind`` supplies
    (``num_shards``, ``execution``, ``placement``, ``num_workers``).

PRODUCT_READS_NO_BENCHMARK_FILES
    The library's behaviour is stated by its code, never loaded from a
    measurement artefact: two installs of one commit must plan alike
    whether or not a benchmark record sits on disk.  So no string
    constant under ``src/repro`` (docstrings exempt) names a
    ``BENCH_*`` record or ``benchmarks/results``.

ORDER_SEARCH_ON_MASKS
    Algorithm 1's subset DP runs on integer masks from the frontier to
    the memo key: a DP or beam state is its joined mask, a candidate a
    relation whose parent bit is set, and bitvector pseudo nodes are a
    second mask over the relations' own bits.  So in
    ``core/optimizer.py`` the searches (``_exact_block_order``,
    ``_greedy_block``, ``beam_order``) construct no ``set`` /
    ``frozenset`` (call, literal or comprehension) and call no
    ``eligible_next``; ``core/costmodel.py`` defines no ``mask_of``
    (sets turned back into masks per DP state); and no string constant
    under ``src/repro`` (docstrings exempt) spells a ``"~bv:"`` pseudo
    node name.

PLANS_CHECKED_AT_CONSTRUCTION
    A plan checks its own invariants when ``PlanSpec`` /
    ``PhysicalPlan`` are built, and the checks on the code (knob
    signatures, fingerprint coverage) are tier-1 tests.  So no module
    under ``src/repro`` outside ``analysis/`` imports ``repro.analysis``
    (the package ``__init__``'s re-export excepted) — a product path
    that calls the hazard check makes every request pay for it — and no
    module imports ``inspect``: reading signatures at run time is a
    check on the code repeated per request.

LIVENESS_BY_KILL
    A factorized result's liveness is bookkept, not re-derived: each
    node's ``live`` counts and ``dead`` total are right only while
    ``FactorizedResult.kill`` is the one writer of the ``alive`` masks
    they count.  So under ``src/repro`` no module but
    ``engine/factorized.py`` writes an ``alive``, ``live`` or ``dead``
    attribute — by assignment (``x.alive = ...``, ``x.live[...] = ...``,
    augmented or not), an in-place ndarray method (``x.alive.fill``,
    ``.put``, ``.sort``, ...), a NumPy function writing its first
    argument (``np.copyto``, ``np.put``, ``np.putmask``, ...) or an
    ``out=`` argument — and no module names ``propagate_deaths``, the
    whole-tree re-sweep the bookkeeping replaced.

STRUCTURES_BY_CONTENT
    Hash indexes and the wcoj structures belong to the table whose
    contents they were built from (``Table.structure``), shared by its
    zero-copy renames, so every catalog, plan and alias over one table
    reads one index per attribute.  So no module under ``src/repro``
    outside ``storage/`` reads or writes a ``._structures`` cache,
    ``Catalog`` keeps no ``_indexes`` of its own, and ``planner.py``
    builds no ``Table(...)`` over another table's column arrays
    (``t.columns``, ``dict(t.columns)``, ``{**t.columns}``, a
    comprehension passing its values through unchanged, or a name bound
    to one of those) — such a wrapper forks the cache a rename shares.

README_KNOB_TABLE
    Every planner knob (field of ``repro.options.PlanOptions``) must
    appear in README's "Planner / session knobs" table — an
    undocumented knob is indistinguishable from an unsupported one —
    and every row of the table must name a knob that exists: a
    ``PlanOptions`` field or a ``QuerySession`` constructor keyword.
    A row for a deleted knob documents an option that raises.

PRODUCT_MODULES_REACHABLE
    A module is in the product because something other than its tests
    uses it.  So every non-``__init__`` module under ``src/repro`` is
    reached by imports from a root: a ``[project.scripts]`` entry of
    ``pyproject.toml`` or a ``repro`` import made by a file under
    ``examples/`` or ``benchmarks/`` (a ``tests`` directory excepted).
    A reached module reaches everything it imports; an import through a
    package ``__init__`` reaches only the module defining each name it
    asks for (a name the ``__init__`` defines itself reaches what its
    definition names), so a re-export alone keeps nothing alive.

PACKAGE_EXPORTS_REQUESTED
    A name is in a package's surface because something other than its
    tests asks the package for it.  So every name in a package
    ``__init__``'s ``__all__`` is requested from that package by a
    root or a reached module, along the walk
    ``PRODUCT_MODULES_REACHABLE`` makes (a re-export another
    ``__init__`` follows on a requested name counts).  Dunder names are
    exempt: ``pyproject.toml`` reads ``repro.__version__``.  A test
    imports what it checks from the module that defines it.

PLAN_KNOBS_USED
    A knob is in the surface because a user sets or reads it.  The
    knobs are the ``PlanOptions`` fields and the keyword parameters of
    ``QuerySession.__init__`` and ``AsyncQueryService.__init__``.
    Every one is named by a root (a file under ``examples/`` or
    non-test ``benchmarks/``) or a figure driver under
    ``src/repro/bench``: as a keyword argument, a string key of a dict
    literal (the knob dicts a workload hands ``QuerySession`` and
    ``execute``), or an attribute read off a ``planner`` / ``options``.
    ``PLAN_KNOBS_EXEMPT`` lists the knobs no root names yet, each with
    the reason or open item that keeps it; an exemption for a name that
    is no longer a knob is stale.  A knob only tests turn is a module
    constant or gone.

CACHES_KEYED_BY_RELATION
    A write must rebuild only what read the written table, so the
    write-sensitive caches are keyed by the relation tokens / table
    fingerprints of what they read, never by the whole catalog.  So no
    ``.fingerprint()`` call on a catalog (a name or attribute named
    ``*catalog*``) may sit in ``QuerySession._key``,
    ``PreparedStatement._structural_plan`` (``service/session.py``) or
    ``Planner._apply_partitioning`` (``planner.py``), nor in any
    function of the same module they call (by name, transitively).
    Process pools, which hold a replica of the whole catalog, stay
    keyed on it.

ONE_RECLAIM_GATE
    A write is reclaimed on one path: every cache keyed by the
    fingerprints of the tables it read is swept from one gate
    (``Planner.reclaim``) when ``Catalog.version`` moves.  So exactly
    one function under ``src/repro``, outside ``storage/`` (which
    maintains the version), reads a ``.version`` attribute.  A second
    reader is a second gate, and a cache behind it can see a version
    move the other skips; none leaves superseded entries to LRU churn.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

# -- RAW_KEY_EQ calibration -------------------------------------------

#: identifiers treated as join-key values
_KEYISH = re.compile(r"^(keys?|.*_keys?)$")

#: (file relative to src/repro, function name) pairs implementing the
#: exactness layer itself — the only places a raw compare is the point
RAW_KEY_EQ_ALLOWED = {
    # sorted-layout probes: searchsorted + == in the common dtype IS
    # the exact lookup (the dense layout indexes a table and compares
    # no key values, so it needs no entry here)
    ("storage/hashindex.py", "lookup"),
    ("storage/hashindex.py", "contains"),
    # integral-representability test routing float probes to shards
    ("storage/partition.py", "_float_exact"),
    ("storage/partition.py", "_probe_shard_ids"),
}


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        location = f"{self.path}:{self.line}" if self.line else str(self.path)
        return f"{location}: {self.rule}: {self.message}"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _attach_parents(tree):
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._parent = node
    return tree


#: the module defining ``decide``, the optimizer: the rules on how a
#: plan is decided read it
DECIDE = "planner.py"


_DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _target(rule, relative, *names):
    """``(path, tree, findings)`` of a rule scoped to
    ``src/repro/<relative>``, ``findings`` naming the file or each of
    ``names`` (``"function"``, ``"Class"``, ``"Class.method"``) missing."""
    path, tree = SRC / relative, ast.Module(body=[], type_ignores=[])
    if path.exists():
        tree = _attach_parents(_parse(path))
    else:
        names = ("file",)
    defined = {node.name if item is node else f"{node.name}.{item.name}"
               for node in tree.body if isinstance(node, _DEFINITIONS)
               for item in (node, *node.body)
               if isinstance(item, _DEFINITIONS)}
    return path, tree, [
        Finding(rule, path.relative_to(REPO), 0,
                f"{name} not found — the rule's target moved; point it there")
        for name in names if name not in defined]


def _enclosing_function(node):
    while node is not None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
        node = getattr(node, "_parent", None)
    return None


def _is_keyish(node):
    """Bare names / attributes that denote join-key values.

    Subscripts and calls are deliberately excluded: ``key[0]`` is a
    cache-key tuple element, ``len(keys)`` a count — neither compares
    key *values*.
    """
    if isinstance(node, ast.Name):
        return bool(_KEYISH.match(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_KEYISH.match(node.attr))
    return False


def check_raw_key_eq():
    findings = []
    for root in (SRC / "engine", SRC / "storage"):
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            tree = _attach_parents(_parse(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Compare):
                    continue
                if not any(isinstance(op, (ast.Eq, ast.NotEq))
                           for op in node.ops):
                    continue
                operands = [node.left, *node.comparators]
                if not any(_is_keyish(operand) for operand in operands):
                    continue
                # the NaN idiom: a value compared against itself
                dumps = [ast.dump(operand) for operand in operands]
                if len(set(dumps)) == 1:
                    continue
                function = _enclosing_function(node)
                name = function.name if function else "<module>"
                if (rel, name) in RAW_KEY_EQ_ALLOWED:
                    continue
                findings.append(Finding(
                    "RAW_KEY_EQ", path.relative_to(REPO), node.lineno,
                    f"raw ==/!= on key values in {name}() — route through "
                    "the exactness layer (hash-index probe or "
                    "_float_exact) or allowlist the implementation site",
                ))
    return findings


def _holds_lock(function):
    for node in ast.walk(function):
        if not isinstance(node, ast.With):
            continue
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Attribute) and expr.attr == "_lock":
                return True
    return False


def check_unlocked_cache_mutation():
    findings = []
    attrs = {"_entries", "_inflight"}
    # Creation and (re)initialisation run before the cache is shared;
    # pickling ships an *empty* cache, so neither needs the lock.
    exempt = {"__init__", "__getstate__", "__setstate__"}
    for path in sorted(SRC.rglob("*.py")):
        tree = _attach_parents(_parse(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or node.attr not in attrs:
                continue
            rel = path.relative_to(REPO)
            if not (isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                findings.append(Finding(
                    "UNLOCKED_CACHE_MUTATION", rel, node.lineno,
                    f"access to {node.attr} of a foreign object — only "
                    "the owning class may touch its guarded state; use "
                    "the locked public methods",
                ))
                continue
            function = _enclosing_function(node)
            if function is None or function.name in exempt:
                continue
            if not _holds_lock(function):
                findings.append(Finding(
                    "UNLOCKED_CACHE_MUTATION", rel, node.lineno,
                    f"{function.name}() touches self.{node.attr} without "
                    "a `with self._lock` block",
                ))
    return findings


#: functions that assemble fingerprint / cache-key material
_FINGERPRINT_FUNCS = re.compile(
    r"fingerprint|cache_key|cache_token|to_spec|_apply_partitioning"
)


def _under_sorted(node):
    current = getattr(node, "_parent", None)
    while current is not None:
        if (isinstance(current, ast.Call)
                and isinstance(current.func, ast.Name)
                and current.func.id == "sorted"):
            return True
        current = getattr(current, "_parent", None)
    return False


def _directly_iterated(node):
    """A set that is consumed in order: ``tuple({...})``, ``for x in
    {...}``, or a comprehension over it.  Sets bound to a name for
    later ``in`` tests don't leak their iteration order."""
    parent = getattr(node, "_parent", None)
    if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name):
        return parent.func.id in ("tuple", "list", "enumerate")
    if isinstance(parent, (ast.For, ast.AsyncFor)):
        return parent.iter is node
    if isinstance(parent, ast.comprehension):
        return parent.iter is node
    return False


def check_unsorted_fingerprint_iter():
    findings = []
    for path in sorted(SRC.rglob("*.py")):
        tree = _attach_parents(_parse(path))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            if not _FINGERPRINT_FUNCS.search(function.name):
                continue
            for node in ast.walk(function):
                unordered = None
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("items", "keys", "values")
                        and not node.args and not node.keywords):
                    unordered = f".{node.func.attr}() iteration"
                elif isinstance(node, (ast.Set, ast.SetComp)):
                    # sets kept for membership tests are order-free;
                    # only a set that is *iterated* leaks its order
                    if _directly_iterated(node):
                        unordered = "iteration over a set"
                if unordered and not _under_sorted(node):
                    findings.append(Finding(
                        "UNSORTED_FINGERPRINT_ITER",
                        path.relative_to(REPO), node.lineno,
                        f"{unordered} in {function.name}() is not "
                        "wrapped in sorted(...) — fingerprints must not "
                        "depend on insertion order",
                    ))
    return findings


def _class_methods(tree, class_name):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {
                item.name: item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
    return {}


def _counter_updates(function):
    """Attribute names receiving augmented assignments (counters)."""
    updates = set()
    for node in ast.walk(function):
        if isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Attribute):
            updates.add(node.target.attr)
    return updates


def check_kernel_surface():
    path, tree, findings = _target("KERNEL_SURFACE", "engine/kernels.py",
                                   "VectorizedKernels", "InterpretedKernels")
    if findings:
        return findings
    vectorized = _class_methods(tree, "VectorizedKernels")
    interpreted = _class_methods(tree, "InterpretedKernels")
    def public(methods):
        return {name for name in methods if not name.startswith("_")}

    missing = public(vectorized) ^ public(interpreted)
    for name in sorted(missing):
        owner = ("VectorizedKernels" if name in vectorized
                 else "InterpretedKernels")
        findings.append(Finding(
            "KERNEL_SURFACE", path.relative_to(REPO),
            (vectorized.get(name) or interpreted.get(name)).lineno,
            f"{name}() exists only on {owner} — the kernel planes must "
            "expose identical public surfaces",
        ))
    for name in sorted(public(vectorized) & public(interpreted)):
        a = _counter_updates(vectorized[name])
        b = _counter_updates(interpreted[name])
        if a != b:
            findings.append(Finding(
                "KERNEL_SURFACE", path.relative_to(REPO),
                interpreted[name].lineno,
                f"{name}() counter updates differ between planes: "
                f"vectorized={sorted(a)} interpreted={sorted(b)}",
            ))
    return findings


_HASH_INDEX_PARAMETERS = ["self", "keys", "rows"]


def check_index_layout_selector():
    path, tree, findings = _target("INDEX_LAYOUT_SELECTOR",
                                   "storage/hashindex.py", "HashIndex.__init__")

    def finding(node, message):
        findings.append(Finding("INDEX_LAYOUT_SELECTOR",
                                path.relative_to(REPO), node.lineno, message))

    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) \
                        and not target.id.startswith("_"):
                    finding(node, f"public module constant {target.id!r} — "
                            "a tunable next to the layout rule is a knob")
    for node in ast.walk(tree):
        modules = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        if any(name.split(".")[0] == "os" for name in modules):
            finding(node, "imports os — the layout must not depend on "
                    "the environment")
    init = _class_methods(tree, "HashIndex").get("__init__")
    if init is None:
        return findings
    arguments = init.args
    parameters = [a.arg for a in (*arguments.posonlyargs, *arguments.args,
                                  *arguments.kwonlyargs)]
    parameters += [a.arg for a in (arguments.vararg, arguments.kwarg) if a]
    if parameters != _HASH_INDEX_PARAMETERS:
        finding(init, f"HashIndex.__init__ takes {parameters[1:]}, expected "
                f"{_HASH_INDEX_PARAMETERS[1:]} — no argument may select "
                "the layout")
    for module in sorted((SRC / "storage").rglob("*.py")):
        for node in ast.walk(_parse(module)):
            if isinstance(node, ast.ClassDef) and "lookup" in {
                    item.name for item in node.body
                    if isinstance(item, ast.FunctionDef)} \
                    and (module, node.name) != (path, "HashIndex"):
                findings.append(Finding(
                    "INDEX_LAYOUT_SELECTOR", module.relative_to(REPO),
                    node.lineno, f"{node.name} defines lookup() — HashIndex "
                    "is the storage layer's one probe structure"))
    return findings


_EXECUTORS = {"ThreadPoolExecutor", "ProcessPoolExecutor"}


def check_no_module_executor():
    findings = []
    for path in sorted(SRC.rglob("*.py")):
        tree = _attach_parents(_parse(path))
        executors = set(_EXECUTORS)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                executors |= {alias.asname for alias in node.names
                              if alias.name in _EXECUTORS and alias.asname}

        def makes_executor(value):
            return value is not None and any(
                isinstance(call, ast.Call) and _called_name(call) in executors
                for call in ast.walk(value))

        for node in ast.walk(tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign,
                                     ast.NamedExpr)) \
                    or not makes_executor(node.value):
                continue
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = {target.id for target in targets
                     if isinstance(target, ast.Name)}
            function = _enclosing_function(node)
            if function is not None:
                names &= {name for statement in ast.walk(function)
                          if isinstance(statement, ast.Global)
                          for name in statement.names}
            for name in sorted(names):
                findings.append(Finding(
                    "NO_MODULE_EXECUTOR", path.relative_to(REPO), node.lineno,
                    f"executor bound to module global {name!r} — keep pools "
                    "on the instance that owns their lifecycle",
                ))
    return findings


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) \
        else getattr(func, "id", None)


def check_stats_single_producer():
    findings = _target("STATS_SINGLE_PRODUCER", DECIDE, "decide")[2]
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(("estimation/", "bench/fig")):
            continue
        banned = {"CorrelatedSample"}
        if rel != "core/stats.py" and not rel.startswith("storage/"):
            banned.add("probe_stats")
        if rel == DECIDE:
            banned.add("EdgeStats")
        for node in ast.walk(_parse(path)):
            name = _called_name(node) if isinstance(node, ast.Call) else None
            if name in banned:
                findings.append(Finding(
                    "STATS_SINGLE_PRODUCER", path.relative_to(REPO),
                    node.lineno,
                    f"{name}(...) here — planning statistics are "
                    "measured exactly in core/stats.py; read them through "
                    "repro.core.stats.StatsReader",
                ))
    return findings


def check_cost_floor_single_producer():
    path, tree, findings = _target("COST_FLOOR_SINGLE_PRODUCER", DECIDE,
                                   "decide")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            bad = node.attr in ("tuple_generation", "bitvector_probe",
                                "semijoin_probe")
        else:
            name = ""
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif isinstance(node, ast.keyword):
                name = node.arg or ""
            elif isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Lambda):
                name = getattr(node.targets[0], "id", "")
            bad = name == "floor" or name.endswith("_floor")
        if bad:
            findings.append(Finding(
                "COST_FLOOR_SINGLE_PRODUCER", path.relative_to(REPO),
                node.lineno,
                f"a cost floor built in {DECIDE} — use "
                "repro.core.costmodel.order_invariant_floor",
            ))
    return findings


def check_wcoj_priced_once():
    path, tree, findings = _target("WCOJ_PRICED_ONCE", DECIDE, "decide")
    source = path.read_text() if path.exists() else ""
    calls = [_called_name(node) for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    return findings + [
        Finding("WCOJ_PRICED_ONCE", path.relative_to(REPO), 0,
                f"{name}(...) is called {calls.count(name)} times in "
                f"{DECIDE} — price wcoj exactly once, before the tree sweep")
        for name in ("wcoj_cost", "plan_variable_order")
        if name in source and calls.count(name) != 1]


_WCOJ_BUILDS = ("unique", "searchsorted", "HashIndex", "_base_column")


def check_wcoj_build_once():
    path, tree, findings = _target("WCOJ_BUILD_ONCE", "engine/wcoj.py",
                                   "execute_wcoj")
    return findings + [
        Finding("WCOJ_BUILD_ONCE", path.relative_to(REPO), node.lineno,
                f"{_called_name(node)}(...) in execute_wcoj() — build wcoj "
                "structures in the cached builders Catalog.table_structure "
                "runs on a miss, not on every execution")
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and function.name == "execute_wcoj"
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and _called_name(node) in _WCOJ_BUILDS
    ]


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def _in_loop(node):
    """Whether ``node`` runs once per iteration of an enclosing loop or
    comprehension of its own function (a ``for`` loop's iterable runs
    once and does not count)."""
    child, current = node, getattr(node, "_parent", None)
    while current is not None and not isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        if isinstance(current, _LOOPS) and not (
                isinstance(current, (ast.For, ast.AsyncFor))
                and child is current.iter):
            return True
        child, current = current, getattr(current, "_parent", None)
    return False


def check_one_fanout_per_step():
    findings = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = _attach_parents(_parse(path))
        ranges = {"concat_ranges"} | {
            alias.asname for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if alias.name == "concat_ranges" and alias.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name in ranges and rel != "storage/hashindex.py":
                message = (f"{name}(...) outside storage/hashindex.py — "
                           "take ranges from kernels.fan_out / "
                           "LookupResult.fan_out, which return the lineage "
                           "every other column gathers through")
            elif name == "repeat_rows" and rel.startswith("engine/") \
                    and rel != "engine/kernels.py" and _in_loop(node):
                message = ("repeat_rows(...) inside a loop or comprehension "
                           "— one repeat per column; fan out once into a "
                           "lineage pointer and gather the other columns")
            else:
                continue
            findings.append(Finding("ONE_FANOUT_PER_STEP",
                                    path.relative_to(REPO), node.lineno,
                                    message))
    return findings


def _class_fields(tree, class_name):
    """``{name: AnnAssign}`` of a class body's annotated fields."""
    return next(({item.target.id: item for item in node.body
                  if isinstance(item, ast.AnnAssign)}
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 and node.name == class_name), {})


def check_plan_field_single_declaration():
    path, tree, findings = _target("PLAN_FIELD_SINGLE_DECLARATION",
                                   "planner.py", "PlanSpec",
                                   "PhysicalPlan.fingerprint")

    def finding(file, node, message):
        findings.append(Finding("PLAN_FIELD_SINGLE_DECLARATION",
                                file.relative_to(REPO), node.lineno, message))

    spec_fields = _class_fields(tree, "PlanSpec")
    for name, item in spec_fields.items():
        if name in ("num_shards", "execution", "placement", "num_workers"):
            finding(path, item, f"PlanSpec.{name} is a binding fact, not "
                    "a decision — PhysicalPlan takes it from bind")
        call = item.value
        role = call.args[0] if isinstance(call, ast.Call) and call.args \
            and _called_name(call) == "_spec_field" else None
        if getattr(role, "value", None) not in ("anchor", "decision",
                                                "derived"):
            finding(path, item, f"PlanSpec.{name} declares no role — use "
                    "_spec_field(role), role anchor / decision / derived")
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) == "repr" \
                and node.args and isinstance(node.args[0], ast.Tuple) \
                and getattr(_enclosing_function(node), "name",
                            "") == "fingerprint":
            finding(path, node, "fingerprint() hashes a hand-written "
                    "repr((...)) payload — derive it from PlanSpec")
    plan_fields = set(spec_fields) | set(_class_fields(tree, "PhysicalPlan"))
    for module in sorted((SRC / "analysis").rglob("*.py")):
        for node in _parse(module).body:
            value = getattr(node, "value", None)
            if isinstance(value, ast.Call) \
                    and _called_name(value) == "frozenset":
                named = plan_fields & {c.value for c in ast.walk(value)
                                       if isinstance(c, ast.Constant)}
                if named:
                    finding(module, node, "module-level frozenset naming "
                            f"plan fields {sorted(named)} — a second "
                            "registry of what PlanSpec declares")
    return findings


_BENCHMARK_FILE = re.compile(r"BENCH_|benchmarks/results")


def _is_docstring(node):
    statement = getattr(node, "_parent", None)
    owner = getattr(statement, "_parent", None)
    return isinstance(statement, ast.Expr) and isinstance(
        owner, (ast.Module, ast.ClassDef, ast.FunctionDef,
                ast.AsyncFunctionDef)) and owner.body[0] is statement


def check_product_reads_no_benchmark_files():
    findings = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(_attach_parents(_parse(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and _BENCHMARK_FILE.search(node.value) \
                    and not _is_docstring(node):
                findings.append(Finding(
                    "PRODUCT_READS_NO_BENCHMARK_FILES",
                    path.relative_to(REPO), node.lineno,
                    f"string {node.value!r} names a benchmark record — "
                    "state the constant in code instead of loading it",
                ))
    return findings


_MASK_SEARCHES = ("_exact_block_order", "_greedy_block", "beam_order")


def check_order_search_on_masks():
    findings = []

    def finding(path, node, message):
        findings.append(Finding("ORDER_SEARCH_ON_MASKS",
                                path.relative_to(REPO), node.lineno, message))

    optimizer, tree, missing = _target("ORDER_SEARCH_ON_MASKS",
                                       "core/optimizer.py", *_MASK_SEARCHES)
    findings.extend(missing)
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef) \
                or function.name not in _MASK_SEARCHES:
            continue
        for node in ast.walk(function):
            if isinstance(node, (ast.Set, ast.SetComp)):
                built = "a set display"
            elif isinstance(node, ast.Call) and _called_name(node) in (
                    "set", "frozenset", "eligible_next"):
                built = f"{_called_name(node)}(...)"
            else:
                continue
            finding(optimizer, node, f"{built} in {function.name}() — keep "
                    "search states, candidates and pseudo nodes as "
                    "integer masks over CostMemo.bit")
    costmodel, tree, missing = _target("ORDER_SEARCH_ON_MASKS",
                                       "core/costmodel.py", "CostMemo")
    findings.extend(missing)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "mask_of":
            finding(costmodel, node, "mask_of() turns name sets back into "
                    "masks — translate at the entry point, once per plan")
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(_attach_parents(_parse(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and "~bv:" in node.value and not _is_docstring(node):
                finding(path, node, "a '~bv:' pseudo node name — a "
                        "bitvector check is the relation's bit in the "
                        "pseudo mask")
    return findings


def _from_base(node, package):
    """The absolute module a ``from ... import`` names, relative levels
    resolved against ``package`` (dotted parts); None without one."""
    if not node.level:
        return node.module
    if package is None:
        return None
    parts = package[:len(package) - node.level + 1]
    return ".".join([*parts, *([node.module] if node.module else [])])


def _imported_modules(path, node):
    """Absolute names an import statement in ``path`` reaches: the
    module itself plus, for ``from X import y``, ``X.y``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = _from_base(node, ("repro", *path.relative_to(SRC).parent.parts))
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def check_plans_checked_at_construction():
    findings = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        may_import_analysis = rel == "__init__.py" \
            or rel.startswith("analysis/")
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            modules = _imported_modules(path, node)
            if any(name.split(".")[0] == "inspect" for name in modules):
                message = ("imports inspect — a check that reads signatures "
                           "checks the code, so make it a tier-1 test")
            elif not may_import_analysis and any(
                    name == "repro.analysis"
                    or name.startswith("repro.analysis.")
                    for name in modules):
                message = ("imports repro.analysis — plans are checked "
                           "where PlanSpec / PhysicalPlan are built; the "
                           "hazard check is a caller's tool")
            else:
                continue
            findings.append(Finding("PLANS_CHECKED_AT_CONSTRUCTION",
                                    path.relative_to(REPO), node.lineno,
                                    message))
    return findings


def _assigned_targets(node):
    """Every target expression an assignment statement writes."""
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        pending = [node.target]
    else:
        return []
    targets = []
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        elif isinstance(target, ast.Starred):
            pending.append(target.value)
        else:
            targets.append(target)
    return targets


#: the node attributes a factorized result's liveness keeps in step
_LIVENESS_FIELDS = frozenset({"alive", "live", "dead"})
#: ndarray methods that write their array in place
_IN_PLACE_METHODS = frozenset({"fill", "put", "itemset", "sort",
                               "partition", "resize", "setfield"})
#: NumPy functions that write their first argument in place
_IN_PLACE_FUNCTIONS = frozenset({"copyto", "put", "putmask", "place",
                                 "put_along_axis", "fill_diagonal"})


def _liveness_field(expr):
    """The liveness attribute ``expr`` is or indexes into, else None."""
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Attribute) and expr.attr in _LIVENESS_FIELDS:
        return expr.attr
    return None


def _liveness_writes(node):
    """The liveness attributes a statement or call writes: assignment
    targets, in-place ndarray methods, NumPy functions writing their
    first argument and ``out=`` arguments."""
    written = [_liveness_field(target) for target in _assigned_targets(node)]
    if isinstance(node, ast.Call):
        func = node.func
        name = getattr(func, "attr", getattr(func, "id", None))
        if isinstance(func, ast.Attribute) and name in _IN_PLACE_METHODS:
            written.append(_liveness_field(func.value))
        if name in _IN_PLACE_FUNCTIONS and node.args:
            written.append(_liveness_field(node.args[0]))
        written.extend(_liveness_field(keyword.value)
                       for keyword in node.keywords if keyword.arg == "out")
    return sorted({field for field in written if field})


def _names(node):
    """The identifiers a node binds or reads."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.alias):
        return {node.name.rpartition(".")[2], node.asname}
    return set()


def check_liveness_by_kill():
    findings = []
    for path in sorted(SRC.rglob("*.py")):
        owner = path.relative_to(SRC).as_posix() == "engine/factorized.py"
        for node in ast.walk(_parse(path)):
            written = [] if owner else _liveness_writes(node)
            if written:
                fields = ", ".join(f".{field}" for field in written)
                message = (f"writes {fields} outside engine/factorized.py "
                           "— kill the entries (FactorizedResult.kill), "
                           "which keeps alive, live and dead in step")
            elif "propagate_deaths" in _names(node):
                message = ("names propagate_deaths — liveness is bookkept "
                           "by FactorizedResult.kill, not re-swept")
            else:
                continue
            findings.append(Finding("LIVENESS_BY_KILL",
                                    path.relative_to(REPO),
                                    getattr(node, "lineno", 0), message))
    return findings


def _forks_columns(expr, bound):
    """Whether ``expr`` hands a table's own column arrays on: the
    ``.columns`` mapping, a copy of it, a comprehension passing its
    values through unchanged, or a name ``bound`` to one of those."""
    if isinstance(expr, ast.Attribute):
        return expr.attr == "columns"
    if isinstance(expr, ast.Name):
        return any(_forks_columns(value, {}) for value in bound.get(expr.id, ()))
    if isinstance(expr, ast.Call):
        return _called_name(expr) in ("dict", "copy") and any(
            _forks_columns(arg, bound) for arg in expr.args)
    if isinstance(expr, ast.Dict):
        return any(key is None and _forks_columns(value, bound)
                   for key, value in zip(expr.keys, expr.values))
    if isinstance(expr, ast.DictComp):
        source = expr.generators[0].iter
        if isinstance(source, ast.Call) \
                and isinstance(source.func, ast.Attribute):
            source = source.func.value
        target = expr.generators[0].target
        passed = {node.id for node in ast.walk(target)
                  if isinstance(node, ast.Name)}
        return (_forks_columns(source, bound)
                and isinstance(expr.value, ast.Name)
                and expr.value.id in passed)
    return False


def _structures_finding(path, node, message):
    return Finding("STRUCTURES_BY_CONTENT", path.relative_to(REPO),
                   node.lineno, message)


def check_structures_by_content():
    findings = _target("STRUCTURES_BY_CONTENT", "planner.py",
                       "filtered_table")[2]
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = _attach_parents(_parse(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_structures" \
                    and not rel.startswith("storage/"):
                findings.append(_structures_finding(
                    path, node, "._structures outside storage/ — go through "
                    "Catalog.table_structure / Table.structure"))
            elif isinstance(node, ast.ClassDef) and node.name == "Catalog":
                findings.extend(
                    _structures_finding(
                        path, inner, "Catalog keeps _indexes — structures "
                        "are cached on the table they were built from")
                    for inner in ast.walk(node)
                    if getattr(inner, "attr", getattr(inner, "id", None))
                    == "_indexes")
            elif rel == "planner.py" and isinstance(node, ast.Call) \
                    and _called_name(node) == "Table":
                scope = _enclosing_function(node) or tree
                bound = {}
                for assign in ast.walk(scope):
                    if isinstance(assign, ast.Assign):
                        for target in assign.targets:
                            if isinstance(target, ast.Name):
                                bound.setdefault(target.id, []).append(
                                    assign.value)
                if any(_forks_columns(arg, bound) for arg in node.args[1:2]):
                    findings.append(_structures_finding(
                        path, node, "Table(...) over another table's column "
                        "arrays forks its structure cache — use "
                        "table.renamed()"))
    return findings


def _plan_option_fields():
    """``{name: AnnAssign}`` of ``repro.options.PlanOptions``'s fields."""
    path = SRC / "options.py"
    return _class_fields(_parse(path), "PlanOptions") if path.exists() \
        else {}


def _knob_targets(rule):
    """Findings for each knob declaration a knob rule reads that is gone:
    ``PlanOptions`` and the :data:`_KNOB_CONSTRUCTORS`."""
    return [finding for relative, name in (
                ("options.py", "PlanOptions"),
                *((relative, f"{class_name}.__init__")
                  for relative, class_name in _KNOB_CONSTRUCTORS))
            for finding in _target(rule, relative, name)[2]]


#: (file under src/repro, class) whose ``__init__`` keyword parameters
#: are knobs beside the ``PlanOptions`` fields
_KNOB_CONSTRUCTORS = (
    ("service/session.py", "QuerySession"),
    ("service/async_service.py", "AsyncQueryService"),
)


def _init_keywords(relative, class_name):
    """``{name: arg}`` of the parameters with a default (or keyword-only)
    of ``class_name.__init__`` in ``src/repro/<relative>``."""
    path = SRC / relative
    if not path.exists():
        return {}
    return {argument.arg: argument
            for node in ast.walk(_parse(path))
            if isinstance(node, ast.ClassDef) and node.name == class_name
            for init in node.body if isinstance(init, ast.FunctionDef)
            and init.name == "__init__"
            for argument in (init.args.args[len(init.args.args)
                                            - len(init.args.defaults):]
                             + init.args.kwonlyargs)}


def _knob_sites():
    """``{name: (owner, path, line)}`` of every knob: the
    ``PlanOptions`` fields and the :data:`_KNOB_CONSTRUCTORS` keywords."""
    sites = {name: ("PlanOptions", SRC / "options.py", item.lineno)
             for name, item in _plan_option_fields().items()}
    for relative, class_name in _KNOB_CONSTRUCTORS:
        for name, argument in _init_keywords(relative, class_name).items():
            sites[name] = (class_name, SRC / relative, argument.lineno)
    return sites


def check_readme_knob_table():
    findings = _knob_targets("README_KNOB_TABLE")
    knobs = _plan_option_fields()
    readme = REPO / "README.md"
    text = readme.read_text()
    match = re.search(
        r"## Planner / session knobs\n(.*?)\n## ", text, re.DOTALL
    )
    if not match:
        return [Finding("README_KNOB_TABLE", readme.relative_to(REPO), 0,
                        'section "## Planner / session knobs" not found')]
    section = match.group(1)
    line = text[:match.start()].count("\n") + 1
    for knob in knobs:
        if f"`{knob}`" not in section:
            findings.append(Finding(
                "README_KNOB_TABLE", readme.relative_to(REPO), line,
                f"planner knob `{knob}` missing from the knob table",
            ))
    # the session-only knobs the table documents beside the fields
    known = set(knobs) | set(_init_keywords("service/session.py",
                                            "QuerySession"))
    for offset, row in enumerate(section.split("\n"), start=line + 1):
        cells = row.split("|")
        if not row.startswith("|") or len(cells) < 3:
            continue
        for knob in re.findall(r"`(\w+)`", cells[1]):
            if knob not in known:
                findings.append(Finding(
                    "README_KNOB_TABLE", readme.relative_to(REPO), offset,
                    f"the knob table documents `{knob}`, which is neither "
                    "a PlanOptions field nor a QuerySession keyword",
                ))
    return findings


def _import_requests(tree, package):
    """``(module, name)`` pairs a file's import statements ask for —
    ``name`` is None for ``import module``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _from_base(node, package)
            if base is not None:
                yield from ((base, alias.name) for alias in node.names)


def _binding_requests(tree, module, package, name):
    """What a package ``__init__`` binds ``name`` to: the import that
    re-exports it, or — for a definition of its own — every name the
    definition mentions, looked up in the same ``__init__``."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if (alias.asname or alias.name.partition(".")[0]) != name:
                    continue
                yield (alias.name, None) if isinstance(node, ast.Import) \
                    else (_from_base(node, package), alias.name)
        elif name in _names(node) or any(
                name in _names(target) for target in _assigned_targets(node)):
            yield from ((module, used.id) for used in ast.walk(node)
                        if isinstance(used, ast.Name))


def _root_files():
    """Every file under ``examples/`` and ``benchmarks/`` outside a
    ``tests`` directory: the product's users besides its console
    scripts."""
    for folder in ("examples", "benchmarks"):
        for path in sorted((REPO / folder).rglob("*.py")):
            if "tests" not in path.relative_to(REPO).parts:
                yield path


def _reachability_roots():
    """Import requests of the product's users: the console scripts
    ``pyproject.toml`` declares and every :func:`_root_files` file."""
    pyproject = REPO / "pyproject.toml"
    text = pyproject.read_text() if pyproject.exists() else ""
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text,
                        re.DOTALL | re.MULTILINE)
    for target in re.findall(r"=\s*\"([\w.]+)", scripts.group(1)
                             if scripts else ""):
        yield target, None
    for path in _root_files():
        yield from _import_requests(_parse(path), None)


def _reachability():
    """The walk from the roots: ``(modules, requests, reached)`` —
    every module under ``src/repro`` by dotted name (``(path, tree,
    package)``), every ``(module, name)`` request the walk followed and
    the non-``__init__`` modules it reached."""
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        package = parts[:-1]
        if parts[-1] == "__init__":
            parts = package
        modules[".".join(parts)] = (path, _parse(path), package)
    pending, seen, reached = list(_reachability_roots()), set(), set()
    while pending:
        request = pending.pop()
        if request in seen:
            continue
        seen.add(request)
        module, name = request
        if name and f"{module}.{name}" in modules:
            module, name = f"{module}.{name}", None
        if module not in modules:
            continue
        path, tree, package = modules[module]
        if path.name != "__init__.py":
            reached.add(module)
            pending.extend(_import_requests(tree, package))
        elif name:
            pending.extend(_binding_requests(tree, module, package, name))
    return modules, seen, reached


def check_product_modules_reachable():
    modules, _, reached = _reachability()
    return [
        Finding("PRODUCT_MODULES_REACHABLE", path.relative_to(REPO), 0,
                "no console script, example or benchmark reaches this "
                "module — only tests or re-exports import it; delete it "
                "or move it next to the tests that use it")
        for module, (path, _, _) in sorted(modules.items())
        if path.name != "__init__.py" and module not in reached
    ]


def _exported(tree):
    """The string constants of a module-level ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            yield from (element for element in ast.walk(node.value)
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str))


def check_package_exports_requested():
    modules, seen, _ = _reachability()
    return [
        Finding("PACKAGE_EXPORTS_REQUESTED", path.relative_to(REPO),
                element.lineno,
                f"{module}.{element.value} is asked for by no console "
                "script, example, benchmark or reached module — drop the "
                "re-export and import it from its defining module")
        for module, (path, tree, _) in sorted(modules.items())
        if path.name == "__init__.py"
        for element in _exported(tree)
        if not (element.value.startswith("__")
                and element.value.endswith("__"))
        and (module, element.value) not in seen
    ]


#: knobs no root names yet -> why each stays: the deployment it sizes
#: or the open item (ROADMAP) that decides whether it gets a user
PLAN_KNOBS_EXEMPT = {
    "execution": "the kernel-oracle item: whether the interpreted plane "
                 "stays a knob or becomes a test-only oracle",
    "planning_budget_ms": "product deadlines and the concurrent cold "
                          "workload of benchmark upkeep",
    **dict.fromkeys(
        ("max_concurrency", "executor_workers", "plan_cache_size",
         "stats_cache_size"),
        "deployment sizing: set per host and client count, not per query"),
    **dict.fromkeys(
        ("planning_workers", "process_min_relations"),
        "the process-workers item and the concurrent cold workload of "
        "benchmark upkeep"),
}

_KNOB_OWNERS = frozenset({"planner", "options"})


def _knob_mentions(tree):
    """Names a file gives as a keyword argument, a string key of a dict
    literal, or an attribute of a ``planner`` / ``options``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Dict):
            yield from (key.value for key in node.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str))
        elif isinstance(node, ast.Attribute) and getattr(
                node.value, "attr", getattr(node.value, "id", None)) \
                in _KNOB_OWNERS:
            yield node.attr


def check_plan_knobs_used():
    users = [*_root_files(), *sorted((SRC / "bench").rglob("*.py"))]
    named = {name for file in users for name in _knob_mentions(_parse(file))}
    sites = _knob_sites()
    return _knob_targets("PLAN_KNOBS_USED") + [
        Finding("PLAN_KNOBS_USED", path.relative_to(REPO), line,
                f"{owner}.{name} is named by no example, benchmark or "
                "figure driver — only tests turn it; make it a module "
                "constant, delete it or give it a user")
        for name, (owner, path, line) in sites.items()
        if name not in named and name not in PLAN_KNOBS_EXEMPT
    ] + [
        Finding("PLAN_KNOBS_USED", Path("tools/check_invariants.py"), 0,
                f"PLAN_KNOBS_EXEMPT.{name} excuses no knob — a stale "
                "exemption; delete it")
        for name in PLAN_KNOBS_EXEMPT if name not in sites
    ]


#: (file under src/repro, class, method) whose keys must not read the
#: whole-catalog fingerprint
_RELATION_KEYED = (
    ("service/session.py", "QuerySession", "_key"),
    ("service/session.py", "PreparedStatement", "_structural_plan"),
    ("planner.py", "Planner", "_apply_partitioning"),
)


def _catalogish(expr):
    name = getattr(expr, "attr", getattr(expr, "id", None))
    return name is not None and "catalog" in name


def check_caches_keyed_by_relation():
    findings = []
    for rel, class_name, method in _RELATION_KEYED:
        path, tree, missing = _target("CACHES_KEYED_BY_RELATION", rel,
                                      f"{class_name}.{method}")
        findings.extend(missing)
        functions = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                functions.setdefault(node.name, []).append(node)
        pending = [
            item for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == class_name
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == method
        ]
        reached, flagged = set(), set()
        while pending:
            function = pending.pop()
            if function in reached:
                continue
            reached.add(function)
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                called = _called_name(node)
                if called != "fingerprint":
                    pending.extend(functions.get(called, ()))
                elif isinstance(node.func, ast.Attribute) \
                        and _catalogish(node.func.value):
                    flagged.add(node)
        findings.extend(
            Finding("CACHES_KEYED_BY_RELATION", path.relative_to(REPO),
                    node.lineno,
                    f"a catalog fingerprint feeds {class_name}.{method} — "
                    "key it by the relation tokens / table fingerprints "
                    "it reads")
            for node in sorted(flagged, key=lambda node: node.lineno))
    return findings


def check_one_reclaim_gate():
    readers = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] == "storage":
            continue
        tree = _attach_parents(_parse(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "version" \
                    and isinstance(node.ctx, ast.Load):
                function = _enclosing_function(node)
                name = function.name if function else "<module>"
                readers.setdefault((path, name), node.lineno)
    if len(readers) == 1:
        return []
    if not readers:
        return [Finding(
            "ONE_RECLAIM_GATE", SRC.relative_to(REPO), 0,
            "no function reads Catalog.version — superseded cache "
            "entries are never reclaimed",
        )]
    return [
        Finding("ONE_RECLAIM_GATE", path.relative_to(REPO), line,
                f"{name}() is one of {len(readers)} readers of "
                "Catalog.version — reclaim every table-keyed cache from "
                "one gate")
        for (path, name), line in readers.items()
    ]


CHECKS = (
    check_raw_key_eq,
    check_unlocked_cache_mutation,
    check_unsorted_fingerprint_iter,
    check_kernel_surface,
    check_index_layout_selector,
    check_no_module_executor,
    check_stats_single_producer,
    check_cost_floor_single_producer,
    check_wcoj_priced_once,
    check_wcoj_build_once,
    check_one_fanout_per_step,
    check_plan_field_single_declaration,
    check_product_reads_no_benchmark_files,
    check_order_search_on_masks,
    check_plans_checked_at_construction,
    check_liveness_by_kill,
    check_structures_by_content,
    check_readme_knob_table,
    check_product_modules_reachable,
    check_package_exports_requested,
    check_plan_knobs_used,
    check_caches_keyed_by_relation,
    check_one_reclaim_gate,
)


def main():
    findings = [finding for check in CHECKS for finding in check()]
    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} invariant violation(s).", file=sys.stderr)
        return 1
    print(f"All {len(CHECKS)} invariants hold.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
