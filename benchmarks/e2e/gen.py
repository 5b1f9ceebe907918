"""Workload generation: every input the program sees, made from one seed.

A workload is tables (plain NumPy columns), a pool of queries that
set-up answers once, and a stream of operations.  Queries are built as
:class:`Query` structures — the oracle reads those — and rendered to
SQL text, which is all the program under test receives.

The streams are *stratified*, not sampled: each block of 10 or 20
operations holds every query exactly its share of times and the seed
only permutes the block.  Cost-class shares are 60 / 30 / 10 % (80 /
10 / 10 % where a workload says why), so the median read is a light
query and the 95th percentile lies inside the most expensive class
whatever the seed; sampling the mix instead let a percentile sit on a
class boundary and flip class from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: untimed operations before every timed phase
WARMUP_OPS = 50

#: reads between two writes in ``live_mutation``
READS_PER_WRITE = 10
UPDATE_ROWS = 16
APPEND_FRACTION = 0.001

#: offered rate of ``open_arrivals`` (requests per second): 300 timed
#: reads in the 10 s the driver gives a run, ~40 % of what one client
#: can be served
ARRIVAL_RATE = 30.0


@dataclass(frozen=True)
class Query:
    """An equi-join query: the oracle's view of one SQL statement."""

    relations: tuple                    # table names (alias == name)
    joins: tuple                        # (rel_a, col_a, rel_b, col_b)
    selections: tuple = ()              # (rel, col, constant)

    def sql(self):
        conjuncts = [f"{a}.{ca} = {b}.{cb}" for a, ca, b, cb in self.joins]
        conjuncts += [f"{r}.{c} = {v}" for r, c, v in self.selections]
        return (f"select * from {', '.join(self.relations)} "
                f"where {' and '.join(conjuncts)}")

    def selecting(self, rel, col, value):
        return Query(self.relations, self.joins,
                     self.selections + ((rel, col, int(value)),))


@dataclass
class Workload:
    """Generated inputs of one workload (pickled to the subprocess)."""

    name: str
    seed: int
    tables: dict                        # {table: {column: ndarray}}
    session: dict                       # QuerySession keyword arguments
    execute: dict                       # per-execute keyword arguments
    service: bool                       # serve through AsyncQueryService
    clients: int                        # closed-loop clients (0 = open loop)
    pool: list                          # Query objects warmed by set-up
    ops: list                           # operations, in issue order
    due: list = field(default_factory=list)   # open loop: send times (s)
    cyclic: bool = False

    def program_inputs(self):
        """What the subprocess receives: SQL text, never ``Query``."""
        return {
            "name": self.name, "seed": self.seed, "tables": self.tables,
            "session": self.session, "execute": self.execute,
            "service": self.service, "clients": self.clients,
            "pool": [q.sql() for q in self.pool],
            "ops": [_program_op(op) for op in self.ops],
            "due": self.due,
        }


def _program_op(op):
    if op[0] == "read":
        return ("read", op[1].sql(), op[2])
    return op


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------

#: one block of a 60/30/10 stream over the serving pool, which is laid
#: out light x4, medium x3, heavy x1 — popularity-skewed inside a class
SERVING_BLOCK = (0,) * 6 + (1,) * 3 + (2,) * 2 + (3,) * 1 \
    + (4,) * 3 + (5,) * 2 + (6,) * 1 + (7,) * 2
SERVING_CLASSES = ("light",) * 4 + ("medium",) * 3 + ("heavy",)


def _stratified(rng, block, count):
    """``count`` picks: whole permuted copies of ``block``."""
    picks = []
    while len(picks) < count:
        picks.extend(rng.permutation(block).tolist())
    return picks[:count]


def stratified_keys(rng, rows, domain, skew=None):
    """``rows`` keys from ``[0, domain)`` with *exact* frequencies.

    Uniform (``skew=None``) or power-law (``p(v) ~ 1 / (v + 1) **
    skew``) counts are fixed by largest-remainder rounding and the seed
    only permutes the rows.  Every seed therefore has the same key
    histogram per column — two-way join sizes are equal across seeds
    and multi-way sizes differ only through row alignment — which is
    what keeps the metrics of two seeds comparable.
    """
    if skew is None:
        weights = np.ones(domain)
    else:
        weights = 1.0 / np.arange(1, domain + 1) ** skew
    exact = rows * weights / weights.sum()
    counts = np.floor(exact).astype(np.int64)
    short = rows - int(counts.sum())
    counts[np.argsort(-(exact - counts), kind="stable")[:short]] += 1
    return rng.permutation(np.repeat(np.arange(domain), counts))


def _running_example(rng, driver_rows, child_rows, domain):
    """The paper's six-relation schema (Figure 1), uniform keys."""
    def keys(n):
        return stratified_keys(rng, n, domain)

    return {
        "R1": {"A": np.arange(driver_rows), "B": keys(driver_rows),
               "E": keys(driver_rows)},
        "R2": {"B": keys(child_rows), "C": keys(child_rows),
               "D": keys(child_rows)},
        "R3": {"C": keys(child_rows)},
        "R4": {"D": keys(child_rows)},
        "R5": {"E": keys(child_rows), "F": keys(child_rows)},
        "R6": {"F": keys(child_rows), "G": rng.integers(0, 5, child_rows)},
    }


_J12 = ("R1", "B", "R2", "B")
_J23 = ("R2", "C", "R3", "C")
_J24 = ("R2", "D", "R4", "D")
_J15 = ("R1", "E", "R5", "E")
_J56 = ("R5", "F", "R6", "F")


def _serving_pool():
    """Eight acyclic queries that all contain ``R1 ⋈ R2 ⋈ R3``.

    Ordered light x4, medium x3, heavy x1 to match :data:`SERVING_BLOCK`; the
    classes were separated by measured latency, which follows output
    size (a selection on R6.G keeps a fifth of R6, every further join
    grows the result ~1.25x).
    """
    core = Query(("R1", "R2", "R3"), (_J12, _J23))
    six = Query(("R1", "R2", "R3", "R4", "R5", "R6"),
                (_J12, _J23, _J24, _J15, _J56))
    return [
        core,
        six.selecting("R6", "G", 2),
        six.selecting("R6", "G", 1),
        six.selecting("R6", "G", 3),
        Query(("R1", "R2", "R3", "R4"), (_J12, _J23, _J24)),
        Query(("R1", "R2", "R3", "R5"), (_J12, _J23, _J15)),
        Query(("R1", "R2", "R3", "R4", "R5"), (_J12, _J23, _J24, _J15)),
        six,
    ]


# ----------------------------------------------------------------------
# The six workloads
# ----------------------------------------------------------------------


def warm_serving(seed, max_ops, scale=1.0):
    rng = np.random.default_rng([seed, 1])
    tables = _running_example(rng, int(20_000 * scale), int(12_500 * scale),
                              int(10_000 * scale))
    pool = _serving_pool()
    return Workload(
        "warm_serving", seed, tables, session={}, execute={},
        service=True, clients=2, pool=pool,
        ops=[("read", pool[i], SERVING_CLASSES[i])
             for i in _stratified(rng, SERVING_BLOCK, max_ops)],
    )


#: relation counts per cost class of ``cold_planning``: exhaustive DP
#: up to 12 relations, IDP above (library crossovers, not benchmark knobs)
PLANNING_SIZES = {"light": (6, 7, 8), "medium": (13, 14, 15),
                  "heavy": (22, 23, 24)}
PLANNING_BLOCK = ("light",) * 6 + ("medium",) * 3 + ("heavy",)
PLANNING_RELATIONS = 24
PLANNING_ROWS = 2_000
#: slots for child foreign keys per relation (= max children in a tree)
PLANNING_FANOUT = 3
#: driver rows one selection constant keeps
PLANNING_GROUP = 25
#: tree shapes per class.  The shapes are benchmark constants (drawn
#: from SHAPE_SEED, not from --seed): planning time follows the shape
#: far more than the data, so with shapes drawn per seed two seeds'
#: qps differed by up to 20 %.  The seed still decides data, constants
#: and order.
SHAPES_PER_CLASS = 12
SHAPE_SEED = 20250


def _random_tree(rng, num_relations):
    """A random attachment tree over R0..R{n-1}, rooted at R0."""
    children = {0: 0}
    joins = []
    for child in range(1, num_relations):
        open_nodes = [n for n, c in children.items() if c < PLANNING_FANOUT]
        parent = open_nodes[int(rng.integers(len(open_nodes)))]
        joins.append((f"R{parent}", f"f{children[parent]}", f"R{child}", "k"))
        children[parent] += 1
        children[child] = 0
    return Query(tuple(f"R{i}" for i in range(num_relations)), tuple(joins))


def cold_planning(seed, max_ops, scale=1.0):
    rng = np.random.default_rng([seed, 2])
    rows = int(PLANNING_ROWS * scale)
    tables = {}
    for i in range(PLANNING_RELATIONS):
        # keys are laid out so that edges differ — the order search has
        # a real decision — while results stay small and mostly
        # non-empty: a child key column holds every value once, every
        # second value twice (fanout 2) or only even values (half the
        # probes miss); the last slot draws from half the domain, so
        # through it every probe of a fanout-2 child matches
        if i % 6 == 3:
            key = rng.permutation(np.arange(rows) % (rows // 2))
        elif i % 6 == 0 and i:
            key = 2 * rng.permutation(rows)
        else:
            key = rng.permutation(rows)
        columns = {"id": np.arange(rows),
                   "g": np.arange(rows) // PLANNING_GROUP, "k": key}
        for slot in range(PLANNING_FANOUT - 1):
            columns[f"f{slot}"] = rng.permutation(rows)
        columns[f"f{PLANNING_FANOUT - 1}"] = rng.permutation(
            np.arange(rows) % (rows // 2))
        tables[f"R{i}"] = columns
    shape_rng = np.random.default_rng(SHAPE_SEED)
    shapes = {
        cls: [_random_tree(shape_rng, sizes[i % len(sizes)])
              for i in range(SHAPES_PER_CLASS)]
        for cls, sizes in PLANNING_SIZES.items()
    }
    # a request is a (shape, constant) pair; a class goes round its
    # shapes and each shape through its own permutation of the
    # constants, so a pair returns only after SHAPES_PER_CLASS * groups
    # (960) requests of its class — far beyond the 128-entry plan cache
    # and the 256-entry stats cache, and more than a run can issue
    groups = rows // PLANNING_GROUP
    constants = {cls: [rng.permutation(groups) for _ in shapes[cls]]
                 for cls in shapes}
    turn = dict.fromkeys(shapes, 0)

    def fresh(cls):
        which = turn[cls] % SHAPES_PER_CLASS
        used = turn[cls] // SHAPES_PER_CLASS
        turn[cls] += 1
        return shapes[cls][which].selecting(
            "R0", "g", constants[cls][which][used % groups])

    pool = [fresh(cls) for cls in shapes]
    ops = [("read", fresh(cls), cls)
           for cls in _stratified(rng, PLANNING_BLOCK, max_ops)]
    return Workload(
        "cold_planning", seed, tables, session={},
        execute={"optimizer": "auto", "driver": "auto"},
        service=False, clients=1, pool=pool, ops=ops,
    )


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _clique(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((r * cols + c, r * cols + c + 1))
            if r + 1 < rows:
                edges.append((r * cols + c, (r + 1) * cols + c))
    return edges


#: (tag, class, relations, edges, rows, key domain, skew, instances).
#: ``skew=None`` is uniform keys: the sparse cycles resolve to
#: tree_filter, the skewed dense shapes to wcoj.  A shape appears as
#: several instances — same parameters, own tables — because the cost
#: of a skewed clique follows how the seed aligns its rows: one 8-clique
#: alone moved by ~8 % (quartile distance over median) between seeds,
#: and a class median over several instances moves less.
CYCLIC_CASES = (
    ("tri", "light", 3, _cycle(3), 8_000, 8_000, None, 1),
    ("c4", "light", 4, _cycle(4), 4_000, 4_000, None, 1),
    ("g33", "medium", 9, _grid(3, 3), 100, 20, 0.5, 3),
    ("k4", "medium", 4, _clique(4), 300, 12, 1.0, 3),
    ("k8", "heavy", 8, _clique(8), 150, 6, 1.2, 6),
)
#: one block of the stream, by index into CYCLIC_CASES: 60/30/10
CYCLIC_BLOCK = (0,) * 6 + (1,) * 6 + (2,) * 4 + (3,) * 2 + (4,) * 2


def _cyclic_tables(rng, tag, num_relations, edges, rows, domain, skew):
    """One query's relations and data, laid out as ``workloads.cyclic``
    does: the two sides of an edge share a column name."""
    names = [f"{tag}_R{i}" for i in range(num_relations)]
    tables = {name: {} for name in names}
    joins = []
    for i, j in edges:
        column = f"k_{i}_{j}"
        for name in (names[i], names[j]):
            tables[name][column] = stratified_keys(rng, rows, domain, skew)
        joins.append((names[i], column, names[j], column))
    return tables, Query(tuple(names), tuple(joins))


def cyclic_skew(seed, max_ops, scale=1.0):
    rng = np.random.default_rng([seed, 3])
    tables, instances = {}, []
    for tag, _, n, edges, rows, domain, skew, copies in CYCLIC_CASES:
        queries = []
        for copy in range(copies):
            case_tables, query = _cyclic_tables(
                rng, f"{tag}{copy}", n, edges, max(8, int(rows * scale)),
                domain, skew)
            tables.update(case_tables)
            queries.append(query)
        instances.append(queries)
    turn = [0] * len(CYCLIC_CASES)
    ops = []
    for case in _stratified(rng, CYCLIC_BLOCK, max_ops):
        query = instances[case][turn[case] % len(instances[case])]
        turn[case] += 1
        ops.append(("read", query, CYCLIC_CASES[case][1]))
    return Workload(
        "cyclic_skew", seed, tables,
        session={"cyclic_execution": "auto"}, execute={},
        service=False, clients=1,
        pool=[query for queries in instances for query in queries],
        ops=ops, cyclic=True,
    )


def _three_class_pool():
    """Light / medium / heavy queries over R1, R2, R3, R5; the first
    join is on R2's partitioning key, so driver rows hash-route."""
    return [
        Query(("R1", "R2"), (_J12,)),
        Query(("R1", "R2", "R3"), (_J12, _J23)),
        Query(("R1", "R2", "R3", "R5"), (_J12, _J23, _J15)),
    ]


THREE_BLOCK = (0,) * 6 + (1,) * 3 + (2,) * 1
#: ``live_mutation``'s block: every write makes the next read of each
#: pool query a cold one (~3 of 10 reads), so with 60 % light reads the
#: median sat on the warm-light / warm-medium boundary; with 80 % it is
#: a warm light read, and the 95th percentile a cold read
MUTATION_BLOCK = (0,) * 8 + (1,) * 1 + (2,) * 1
THREE_CLASSES = ("light", "medium", "heavy")


def _four_relations(rng, driver_rows, child_rows, domain):
    tables = _running_example(rng, driver_rows, child_rows, domain)
    return {name: tables[name] for name in ("R1", "R2", "R3", "R5")}


def distributed_scatter(seed, max_ops, scale=1.0):
    rng = np.random.default_rng([seed, 4])
    # 12 000 driver rows: every probe batch stays below the 16 384-key
    # threshold at which storage/partition.py starts its thread pool,
    # which forked workers inherit without threads (README, known hang)
    tables = _four_relations(rng, int(12_000 * scale), int(8_000 * scale),
                             int(6_000 * scale))
    pool = _three_class_pool()
    picks = _stratified(rng, THREE_BLOCK, max_ops)
    return Workload(
        "distributed_scatter", seed, tables,
        session={"partitioning": 8, "placement": "distributed",
                 "num_workers": 2},
        execute={"collect_output": True},
        service=False, clients=1, pool=pool,
        ops=[("read", pool[i], THREE_CLASSES[i]) for i in picks],
    )


def live_mutation(seed, max_ops, scale=1.0):
    rng = np.random.default_rng([seed, 5])
    child_rows = int(12_000 * scale)
    domain = int(9_000 * scale)
    tables = _four_relations(rng, int(16_000 * scale), child_rows, domain)
    pool = _three_class_pool()
    picks = _stratified(rng, MUTATION_BLOCK, max_ops)
    append_rows = max(1, int(child_rows * APPEND_FRACTION))
    ops, writes = [], 0
    for i, pick in enumerate(picks):
        if i and i % READS_PER_WRITE == 0:
            if writes % 2 == 0:
                # in-place update, acknowledged by invalidate_indexes
                ops.append(("update", "R2", "C",
                            rng.integers(0, child_rows, UPDATE_ROWS),
                            rng.integers(0, domain, UPDATE_ROWS)))
            else:
                # append through add_table (replaces the table)
                ops.append(("append", "R3",
                            {"C": rng.integers(0, domain, append_rows)}))
            writes += 1
        ops.append(("read", pool[pick], THREE_CLASSES[pick]))
    return Workload(
        "live_mutation", seed, tables, session={"partitioning": 4},
        execute={}, service=False, clients=1, pool=pool, ops=ops,
    )


def open_arrivals(seed, max_ops, scale=1.0):
    """``max_ops`` here is warm-up plus offered requests: the schedule,
    not the program's speed, decides how many operations there are."""
    rng = np.random.default_rng([seed, 6])
    driver_rows = int(20_000 * scale)
    tables = _running_example(rng, driver_rows, int(12_500 * scale),
                              int(10_000 * scale))
    pool = _serving_pool()
    light, heavy = pool[0], pool[7]
    # 80 % light / 10 % heavy / 10 % cold.  A cold request is the light
    # query with a constant on the driver key that no earlier request
    # used, so it misses the plan cache.  (With 60 % light the median
    # was the 83rd percentile of the light class: every light request
    # queued behind a heavy or cold one moved it, and ten seeds spread
    # far beyond any bound.)
    block = ("light",) * 8 + ("heavy",) + ("cold",)
    constants = rng.permutation(driver_rows)
    ops = []
    for i, cls in enumerate(_stratified(rng, block, max_ops)):
        if cls == "light":
            ops.append(("read", light, cls))
        elif cls == "heavy":
            ops.append(("read", heavy, cls))
        else:
            ops.append(("read", light.selecting("R1", "A", constants[i]),
                        cls))
    offered = max_ops - WARMUP_OPS
    due = np.cumsum(rng.exponential(1.0 / ARRIVAL_RATE, offered))
    # the schedule spans exactly offered / rate seconds: the rate is
    # fixed, the seed moves the gaps
    due *= offered / ARRIVAL_RATE / due[-1]
    return Workload(
        "open_arrivals", seed, tables, session={}, execute={},
        service=True, clients=0, pool=[light, heavy], ops=ops,
        due=due.tolist(),
    )


GENERATORS = {
    "warm_serving": warm_serving,
    "cold_planning": cold_planning,
    "cyclic_skew": cyclic_skew,
    "distributed_scatter": distributed_scatter,
    "live_mutation": live_mutation,
    "open_arrivals": open_arrivals,
}
WORKLOAD_NAMES = tuple(GENERATORS)

#: upper bound on operations per second a workload can consume; the
#: stream is generated this long so a timed phase never runs dry
#: (``open_arrivals`` is offered exactly its rate)
MAX_OPS_PER_SECOND = {
    "warm_serving": 600, "cold_planning": 80, "cyclic_skew": 600,
    "distributed_scatter": 400, "live_mutation": 400,
    "open_arrivals": ARRIVAL_RATE,
}


def generate(name, seed, seconds, scale=1.0):
    """The :class:`Workload` for ``name`` at ``seed``.

    ``seconds`` is the timed-phase length the stream must cover
    (warm-up operations come off the front of the same stream);
    ``scale`` shrinks table sizes for ``--quick``.
    """
    max_ops = WARMUP_OPS + int(MAX_OPS_PER_SECOND[name] * seconds)
    return GENERATORS[name](seed, max_ops, scale)
