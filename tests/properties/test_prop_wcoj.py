"""Property tests: the wcoj strategy is a bit-exact peer of tree+filter.

The worst-case-optimal operator and the tree+filter pipelines are two
evaluations of the same predicate multiset, so their *results* must be
identical on every input — across shard counts, kernel paths, and the
cyclic shape generators.  Within each strategy, counters must be
bit-identical across shards and kernels (the cost model is calibrated
on them); across strategies the counters legitimately differ — the two
algorithms do different work — and what is pinned instead is the
bookkeeping that proves no predicate is ever applied twice:
``residual_input_tuples`` stays zero under wcoj (residuals are joined
inside elimination, never re-filtered on the output) and both
strategies' plans cover the parsed predicate multiset exactly once.
"""

import collections
import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_plan
from repro.core import parse_query, spanning_tree_decomposition
from repro.core.cyclic import (
    execute_cyclic,
    tree_query_from_residuals,
)
from repro.engine import wcoj
from repro.engine.wcoj import execute_wcoj
from repro.modes import ExecutionMode
from repro.planner import Planner
from repro.storage import Catalog

from tests.cyclic_joins import CYCLIC_SHAPES, cyclic_catalog, to_sql
from tests.helpers import predicate_coverage, stated_predicates
from tests.partitioning import partitioned_catalog

from .test_prop_cyclic import TRIANGLE, brute_force, build_triangle_catalog
from .test_prop_execution import (
    SHARD_COUNTS,
    assert_counters_identical,
    assert_rows_identical,
)

STRATEGIES = ("tree_filter", "wcoj")
TRIANGLE_ATTRS = {"A": ("x", "z"), "B": ("x", "y"), "C": ("y", "z")}
KERNELS = ("vectorized", "interpreted")

# the smallest instance of each shape with at least one residual
SHAPE_SIZES = (("cycle", 4), ("clique", 4), ("grid", 4))


def _row_tuples(rows, relations):
    return sorted(zip(*(rows[rel].tolist() for rel in relations)))


def _strategy_outputs(catalog, plan, mode, execution="vectorized"):
    """``(size, result, sorted row tuples)`` per strategy, same plan."""
    relations = sorted(plan.query.relations)
    out = {}
    size, result, rows = execute_cyclic(
        catalog, plan, mode=mode, collect_output=True, execution=execution
    )
    out["tree_filter"] = (size, result, _row_tuples(rows, relations))
    size, result, rows = execute_wcoj(
        catalog, plan, mode=mode, collect_output=True, execution=execution
    )
    out["wcoj"] = (size, result, _row_tuples(rows, relations))
    return out


@given(
    seed=st.integers(0, 5_000),
    mode=st.sampled_from([ExecutionMode.COM, ExecutionMode.STD]),
)
@settings(max_examples=25, deadline=None)
def test_wcoj_matches_brute_force_and_tree_filter(seed, mode):
    catalog = build_triangle_catalog(seed)
    plan = spanning_tree_decomposition(parse_query(TRIANGLE), driver="A")
    expected = brute_force(catalog)
    outputs = _strategy_outputs(catalog, plan, mode)
    for strategy in STRATEGIES:
        size, _, tuples = outputs[strategy]
        assert size == len(expected), strategy
        assert tuples == expected, strategy


@given(
    case=st.sampled_from(SHAPE_SIZES),
    data_seed=st.integers(0, 2_000),
)
@settings(max_examples=15, deadline=None)
def test_strategies_agree_across_shapes(case, data_seed):
    shape, n = case
    parsed = CYCLIC_SHAPES[shape](n)
    catalog = cyclic_catalog(parsed, rows_per_relation=20,
                             key_domain=(2, 5), seed=data_seed)
    plan = spanning_tree_decomposition(parsed, driver="R0")
    outputs = _strategy_outputs(catalog, plan, ExecutionMode.COM)
    assert outputs["wcoj"][2] == outputs["tree_filter"][2], (shape, n)
    # no residual is ever re-filtered after elimination under wcoj
    assert outputs["wcoj"][1].counters.residual_input_tuples == 0
    assert outputs["tree_filter"][1].counters.residual_input_tuples > 0


@given(seed=st.integers(0, 2_000))
@settings(max_examples=8, deadline=None)
def test_counters_identical_across_shards_and_kernels(seed):
    """Within each strategy: shard count and kernel path are invisible.

    Results *and every counter field* must agree bit for bit across
    shard counts {1, 2, 8} and both kernel paths — the wcoj chain
    indexes are built in base-row order precisely so the physical
    layout cannot leak into the counters.
    """
    catalog = build_triangle_catalog(seed, max_rows=10)
    parsed = parse_query(TRIANGLE)
    plan = spanning_tree_decomposition(parsed, driver="A")
    for strategy in STRATEGIES:
        baseline = None
        for num_shards in SHARD_COUNTS:
            sharded = catalog if num_shards == 1 else \
                partitioned_catalog(catalog, plan.query, num_shards)
            for execution in KERNELS:
                outputs = _strategy_outputs(
                    sharded, plan, ExecutionMode.COM, execution=execution
                )
                size, result, tuples = outputs[strategy]
                context = (strategy, num_shards, execution)
                if baseline is None:
                    baseline = (size, result.counters, tuples)
                    continue
                assert size == baseline[0], context
                assert tuples == baseline[2], context
                assert_counters_identical(baseline[1], result.counters,
                                          context)


# ----------------------------------------------------------------------
# Structures cached on the catalog: warm reads and every write path
# ----------------------------------------------------------------------


def _structure_counts(catalog):
    return {name: len(catalog.table(name)._structures)
            for name in catalog.table_names}


def _wcoj_run(catalog, plan, execution):
    _, result, rows = execute_wcoj(catalog, plan, collect_output=True,
                                   execution=execution)
    return result, rows


def _fresh_copy(catalog):
    """A catalog holding copies of ``catalog``'s current data and no
    cached structure."""
    fresh = Catalog()
    for name in catalog.table_names:
        table = catalog.table(name)
        fresh.add_table(name, {column: table.column(column).copy()
                               for column in table.column_names})
    return fresh


@pytest.mark.parametrize("execution", KERNELS)
@pytest.mark.parametrize("written", ["A", "B", "C"])
@pytest.mark.parametrize("write", ["update_in_place", "add_table",
                                   "parent_of_derived"])
@given(seed=st.integers(0, 2_000))
@settings(max_examples=10, deadline=None)
def test_cached_structures_follow_every_write_path(write, written, execution,
                                                   seed):
    """After a write, the next read of a warmed wcoj plan returns the
    rows, row order and counters a fresh catalog returns: the chain
    indexes, value domains and rank maps cached beside the hash indexes
    are dropped by the same write paths — an acknowledged in-place
    update, a table replacement, and a mutation on the parent of a
    derivative catalog the plan reads.  Each triangle table is written
    alone in turn: a rank map cached under one table is built from the
    other's contents, so writing only the other must rebuild it."""
    rng = np.random.default_rng(seed)
    base = build_triangle_catalog(seed)
    reader = base.derived_with({}) if write == "parent_of_derived" else base
    plan = spanning_tree_decomposition(parse_query(TRIANGLE), driver="A")
    _wcoj_run(reader, plan, execution)  # warm the cache
    columns = base.table(written).column_names
    if write == "add_table":
        size = int(rng.integers(1, 13))
        base.add_table(written, {column: rng.integers(0, 4, size)
                                 for column in columns})
    else:
        for column in columns:
            values = base.table(written).column(column)
            values[:] = rng.integers(0, 4, len(values))
        base.invalidate_indexes(written)
    got = _wcoj_run(reader, plan, execution)
    want = _wcoj_run(_fresh_copy(reader), plan, execution)
    assert_rows_identical(got[1], want[1], (write, execution))
    assert_counters_identical(got[0].counters, want[0].counters,
                              (write, execution))


@pytest.mark.parametrize("execution", KERNELS)
def test_warm_execution_builds_nothing(monkeypatch, execution):
    """A second execution of the same plan reads every structure from
    the catalog: no chain build, no column scan, no index build."""
    calls = collections.Counter()

    def count(name):
        build = getattr(wcoj, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(wcoj, name, counted)

    for name in ("_build_chain", "_build_rank_map", "_base_column",
                 "HashIndex"):
        count(name)
    catalog = build_triangle_catalog(7)
    plan = spanning_tree_decomposition(parse_query(TRIANGLE), driver="A")
    first = _wcoj_run(catalog, plan, execution)
    assert calls["_build_chain"] == 3  # one chain per relation
    assert calls["_build_rank_map"] > 0  # int64 keys throughout
    built = dict(calls)
    second = _wcoj_run(catalog, plan, execution)
    assert dict(calls) == built
    assert_rows_identical(second[1], first[1], execution)
    assert_counters_identical(second[0].counters, first[0].counters,
                              execution)


# ----------------------------------------------------------------------
# Rank maps: every assign and tree check reads one, built once
# ----------------------------------------------------------------------


@contextlib.contextmanager
def _value_probes(steps):
    """Every index the executions inside probe through
    ``wcoj._positions`` that is none of ``steps``' code indexes — a
    probe by value that a rank map should have answered — and every
    rank map they build."""
    by_value, built = [], []
    positions, build = wcoj._positions, wcoj._build_rank_map

    def recording_positions(kernels, index, keys):
        if not any(index is step.codes for step in steps):
            by_value.append(index)
        return positions(kernels, index, keys)

    def recording_build(*args):
        built.append(args)
        return build(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wcoj, "_positions", recording_positions)
        patch.setattr(wcoj, "_build_rank_map", recording_build)
        yield by_value, built


def _chain_steps(catalog):
    return [step for name in catalog.table_names
            for structure in catalog.table(name)._structures.values()
            if isinstance(structure, wcoj._Chain)
            for step in structure.steps]


@pytest.mark.parametrize("execution", KERNELS)
@pytest.mark.parametrize("case", SHAPE_SIZES + (("triangle", 3),),
                         ids=lambda case: f"{case[0]}{case[1]}")
def test_warm_assigns_never_probe_by_value(case, execution):
    """Once the rank maps are built, no assign or tree check probes an
    index by value: the only probes left are the chain steps' code
    probes, and the answer is unchanged."""
    shape, n = case
    if shape == "triangle":
        catalog = build_triangle_catalog(11)
        parsed = parse_query(TRIANGLE)
        driver = "A"
    else:
        parsed = CYCLIC_SHAPES[shape](n)
        catalog = cyclic_catalog(parsed, rows_per_relation=20,
                                 key_domain=(2, 5), seed=n)
        driver = "R0"
    plan = spanning_tree_decomposition(parsed, driver=driver)
    cold = _wcoj_run(catalog, plan, execution)
    steps = _chain_steps(catalog)
    with _value_probes(steps) as (by_value, built):
        outputs = _strategy_outputs(catalog, plan, ExecutionMode.COM,
                                    execution=execution)
    assert steps and by_value == [] and built == []
    assert outputs["wcoj"][2] == outputs["tree_filter"][2]
    assert_counters_identical(outputs["wcoj"][1].counters, cold[0].counters,
                              execution)


#: casts of one raw key column pair, each a dtype mix with no lossy
#: collision, so brute force is exact on them and it, the tree+filter
#: strategy and wcoj must all return the same rows.  A table stores
#: every integer column as int64, so the uint64 side arrives as int64,
#: where a float64 cast of these keys beyond 2**53 would collide.
_MIXED = {
    "int64_uint64_beyond_2**53": (
        lambda a: a.astype(np.int64) + 2**53,
        lambda a: a.astype(np.uint64) + np.uint64(2**53),
    ),
    "int_float": (lambda a: a.astype(np.int64),
                  lambda a: a.astype(np.float64)),
    "bool_int": (lambda a: a.astype(bool),
                 lambda a: (a % 2).astype(np.int64)),
    "nan_float": (lambda a: np.where(a == 0, np.nan, a.astype(np.float64)),
                  lambda a: np.where(a == 1, np.nan, a.astype(np.float64))),
}


@given(
    seed=st.integers(0, 2_000),
    mix=st.sampled_from(sorted(_MIXED)),
    pair=st.sampled_from([("x", "B"), ("z", "C")]),
    driver=st.sampled_from(["A", "B", "C"]),
)
@settings(max_examples=60, deadline=None)
def test_mixed_dtype_members_agree_with_tree_filter(seed, mix, pair, driver):
    """A key pair of two dtypes — ``A.x = B.x`` or ``C.z = A.z``, a tree
    edge or the residual depending on the root — or of one float dtype
    (NaN included): the rank map built once over the source domain
    carries each op's own semantics, lossy probe on a tree edge and
    exact search on a residual.  wcoj agrees with tree+filter and brute
    force on rows, and each plane — building its own maps on a fresh
    catalog, then reading them warm — returns the same counters."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 10, 3)
    column, other = pair
    casts = dict(zip(("A", other), _MIXED[mix]))
    catalog = Catalog()
    for rel, size in zip("ABC", sizes):
        attrs = TRIANGLE_ATTRS[rel]
        catalog.add_table(rel, {
            attr: (casts[rel] if attr == column and rel in casts
                   else np.asarray)(rng.integers(0, 3, size))
            for attr in attrs
        })
    plan = spanning_tree_decomposition(parse_query(TRIANGLE), driver=driver)
    expected = brute_force(catalog)
    baseline = None
    for execution in KERNELS:
        fresh = _fresh_copy(catalog)
        for run in ("cold", "warm"):
            outputs = _strategy_outputs(fresh, plan, ExecutionMode.COM,
                                        execution=execution)
            context = (mix, pair, driver, execution, run)
            assert outputs["wcoj"][2] == outputs["tree_filter"][2] \
                == expected, context
            assert outputs["wcoj"][0] == len(expected), context
            counters = outputs["wcoj"][1].counters
            if baseline is None:
                baseline = counters
            else:
                assert_counters_identical(baseline, counters, context)


@pytest.mark.parametrize("write", ["update_in_place", "add_table"])
@pytest.mark.parametrize("written", ["A", "B", "C"])
def test_writes_replace_rank_maps_instead_of_adding(write, written):
    """Each write to one table rebuilds the maps other tables hold for
    it in their slots: over repeated writes every table keeps as many
    cached structures as the first run left, and each read matches a
    fresh catalog.  A write permutes each column, which keeps every
    distinct count and so the variable order and the plan's ops."""
    rng = np.random.default_rng(5)
    catalog = build_triangle_catalog(5)
    plan = spanning_tree_decomposition(parse_query(TRIANGLE), driver="A")
    _wcoj_run(catalog, plan, "vectorized")
    warm = _structure_counts(catalog)
    for _ in range(4):
        table = catalog.table(written)
        permuted = {column: rng.permutation(table.column(column))
                    for column in table.column_names}
        if write == "add_table":
            catalog.add_table(written, permuted)
        else:
            for column, values in permuted.items():
                table.column(column)[:] = values
            catalog.invalidate_indexes(written)
        got = _wcoj_run(catalog, plan, "vectorized")
        want = _wcoj_run(_fresh_copy(catalog), plan, "vectorized")
        assert_rows_identical(got[1], want[1], written)
        assert_counters_identical(got[0].counters, want[0].counters,
                                  written)
        assert _structure_counts(catalog) == warm, written


def test_selection_bindings_replace_rank_maps_instead_of_adding():
    """Each constant bound to a selection on ``A`` filters a new copy of
    ``A``, so the maps ``B`` and ``C`` hold for it go stale with every
    binding: they are rebuilt in their slot, and the structures cached
    on the base tables stay as many as the first binding left."""
    catalog = build_triangle_catalog(3, max_rows=12, domain=4)
    catalog.add_table("A", {"x": np.repeat(np.arange(4), 3),
                            "z": np.tile(np.arange(3), 4)})
    planner = Planner(catalog, cyclic_execution="wcoj")
    counts = []
    for constant in range(4):
        sql = TRIANGLE + f" and A.x = {constant}"
        plan = planner.plan(sql)
        assert plan.cyclic_strategy == "wcoj"
        result = plan.execute(collect_output=True)
        a_x = catalog.table("A").column("x")
        expected = [row for row in brute_force(catalog)
                    if a_x[row[0]] == constant]
        assert result.output_size == len(expected), constant
        counts.append(_structure_counts(catalog))
    assert counts[0]["B"] > 0 and counts[0]["C"] > 0
    assert all(count == counts[0] for count in counts[1:])

# ----------------------------------------------------------------------
# Exact-key edge cases on the residual attribute
# ----------------------------------------------------------------------
# The residual of the A-rooted triangle tree is C.z = A.z; each side's
# column is pushed through an independent cast so int/float 2**53
# collisions, NaN holes, and bool/int mixes all land on the residual
# (and, by rerooting, on tree edges — the directional probe path).

_CASTS = {
    "small_int": lambda a: a.astype(np.int64),
    "big_int": lambda a: a.astype(np.int64) + 2**53,
    "big_int_odd": lambda a: a.astype(np.int64) + 2**53 + (a % 2),
    "big_float": lambda a: a.astype(np.float64) + 2**53,
    "nan_float": lambda a: np.where(a == 0, np.nan, a.astype(np.float64)),
    "bool": lambda a: a.astype(bool),
}


@given(
    seed=st.integers(0, 2_000),
    cast_a=st.sampled_from(sorted(_CASTS)),
    cast_c=st.sampled_from(sorted(_CASTS)),
    driver=st.sampled_from(["A", "B", "C"]),
)
@settings(max_examples=40, deadline=None)
def test_exact_key_edge_cases_agree(seed, cast_a, cast_c, driver):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 10, 3)
    raw_a = rng.integers(0, 3, sizes[0])
    raw_c = rng.integers(0, 3, sizes[2])
    catalog = Catalog()
    catalog.add_table("A", {"x": rng.integers(0, 3, sizes[0]),
                            "z": _CASTS[cast_a](raw_a)})
    catalog.add_table("B", {"x": rng.integers(0, 3, sizes[1]),
                            "y": rng.integers(0, 3, sizes[1])})
    catalog.add_table("C", {"y": rng.integers(0, 3, sizes[2]),
                            "z": _CASTS[cast_c](raw_c)})
    plan = spanning_tree_decomposition(parse_query(TRIANGLE),
                                       driver=driver)
    for execution in KERNELS:
        outputs = _strategy_outputs(catalog, plan, ExecutionMode.COM,
                                    execution=execution)
        context = (cast_a, cast_c, driver, execution)
        assert outputs["wcoj"][2] == outputs["tree_filter"][2], context


# ----------------------------------------------------------------------
# Planner-level: strategy arbitration, lint, and the round-trip law
# ----------------------------------------------------------------------


@given(
    case=st.sampled_from(SHAPE_SIZES),
    data_seed=st.integers(0, 1_000),
)
@settings(max_examples=10, deadline=None)
def test_planner_strategies_agree_and_lint_clean(case, data_seed):
    """End-to-end: both forced strategies return identical results,
    both plans cover each parsed predicate exactly once (none dropped
    or double-applied) with no key hazard, and ``"auto"`` resolves to
    the cheaper of the two predicted costs."""
    shape, n = case
    parsed = CYCLIC_SHAPES[shape](n)
    catalog = cyclic_catalog(parsed, rows_per_relation=16,
                             key_domain=(2, 5), seed=data_seed)
    sql = to_sql(parsed)
    relations = sorted(parsed.relations)
    plans, tuples = {}, {}
    for strategy in STRATEGIES:
        plan = Planner(catalog, cyclic_execution=strategy).plan(sql)
        assert plan.cyclic_strategy == strategy
        assert predicate_coverage(plan) == stated_predicates(parsed)
        assert verify_plan(plan, source=sql, level="full") == (), strategy
        result = plan.execute(collect_output=True)
        plans[strategy] = plan
        tuples[strategy] = _row_tuples(result.output_rows, relations)
    assert tuples["wcoj"] == tuples["tree_filter"]
    auto = Planner(catalog, cyclic_execution="auto").plan(sql)
    cheaper = min(STRATEGIES,
                  key=lambda s: plans[s].predicted_cost)
    assert auto.cyclic_strategy == cheaper
    assert auto.predicted_cost == plans[cheaper].predicted_cost


@given(
    case=st.sampled_from(SHAPE_SIZES),
    data_seed=st.integers(0, 1_000),
)
@settings(max_examples=10, deadline=None)
def test_residual_round_trip_never_double_applies(case, data_seed):
    """The decompose / tree_query_from_residuals round-trip law.

    A plan's tree edges and residuals partition the parsed predicate
    multiset, so rebuilding the tree from the residuals reproduces the
    plan's query exactly — same root, same edge multiset — and the
    edge-XOR-residual invariant holds under both strategies (a wcoj
    plan keeps the same split; it only *evaluates* the two halves in
    one pass instead of two).
    """
    shape, n = case
    parsed = CYCLIC_SHAPES[shape](n)
    catalog = cyclic_catalog(parsed, rows_per_relation=12,
                             key_domain=(2, 4), seed=data_seed)
    sql = to_sql(parsed)
    for strategy in STRATEGIES:
        plan = Planner(catalog, cyclic_execution=strategy).plan(sql)
        rebuilt = tree_query_from_residuals(
            parsed, plan.residuals, plan.query.root
        )
        assert rebuilt.root == plan.query.root, strategy

        def edge_key(edge):
            return (edge.parent, edge.parent_attr, edge.child,
                    edge.child_attr)

        assert sorted(map(edge_key, rebuilt.edges)) == \
            sorted(map(edge_key, plan.query.edges)), strategy
        # edge XOR residual: tree edges + residuals == parsed multiset
        def undirected(rel_a, attr_a, rel_b, attr_b):
            return min((rel_a, attr_a, rel_b, attr_b),
                       (rel_b, attr_b, rel_a, attr_a))
        covered = sorted(
            [undirected(e.parent, e.parent_attr, e.child, e.child_attr)
             for e in plan.query.edges]
            + [undirected(r.relation_a, r.attr_a, r.relation_b, r.attr_b)
               for r in plan.residuals]
        )
        want = sorted(undirected(*p) for p in parsed.join_predicates)
        assert covered == want, strategy
