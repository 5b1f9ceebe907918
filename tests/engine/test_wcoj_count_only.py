"""A count-only wcoj run prices its final expansion instead of listing it.

After the last variable, every frontier entry stands for the product of
its relations' group row counts, so a run that keeps no rows reads the
output size, the expansion's hash probes, ``tuples_generated`` and each
batch's peak off prefix sums of those products.  Nothing in the final
expansion is looked up or fanned out, and every counter, the output
size and the ``<expansion>`` budget check match a run that lists the
tuples — on both kernel planes and every shard count.
"""

import pytest

from repro.core import parse_query, spanning_tree_decomposition
from repro.engine import BudgetExceededError
from repro.engine import wcoj
from repro.engine.kernels import get_kernels
from repro.engine.wcoj import execute_wcoj

from tests.cyclic_joins import clique_query, cyclic_catalog, grid_query
from tests.partitioning import partitioned_catalog
from tests.properties.test_prop_cyclic import TRIANGLE, build_triangle_catalog
from tests.properties.test_prop_execution import (
    SHARD_COUNTS,
    assert_counters_identical,
)

KERNELS = ("vectorized", "interpreted")


def _triangle():
    parsed = parse_query(TRIANGLE)
    return parsed, build_triangle_catalog(5, max_rows=30), "A"


def _clique4():
    parsed = clique_query(4)
    return parsed, cyclic_catalog(parsed, rows_per_relation=40,
                                  key_domain=(3, 5), seed=3), "R0"


def _skewed_clique8():
    parsed = clique_query(8)
    return parsed, cyclic_catalog(parsed, rows_per_relation=24,
                                  key_domain=2, seed=0, skew=1.2), "R0"


def _grid33():
    parsed = grid_query(3, 3)
    return parsed, cyclic_catalog(parsed, rows_per_relation=20,
                                  key_domain=(3, 6), seed=0), "R0"


SHAPES = {"triangle": _triangle, "clique4": _clique4,
          "skewed_clique8": _skewed_clique8, "grid33": _grid33}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request):
    parsed, catalog, driver = SHAPES[request.param]()
    return request.param, spanning_tree_decomposition(parsed, driver=driver), \
        catalog


@pytest.fixture(params=SHARD_COUNTS, ids=lambda n: f"shards{n}")
def case(request, shape):
    name, plan, catalog = shape
    sharded = (catalog if request.param == 1
               else partitioned_catalog(catalog, plan.query, request.param))
    return name, plan, sharded


@pytest.fixture
def listings(monkeypatch):
    """The sizes the final expansion lists: one entry per lookup of a
    chain's row index (the expansion probe), the number of tuples its
    ``fan_out`` returned."""
    rows_indexes = set()
    listed = []
    chain = wcoj._chain

    def recording_chain(*args):
        built = chain(*args)
        rows_indexes.add(id(built.rows))
        return built

    class Spied:
        def __init__(self, inner):
            self._inner = inner

        def fan_out(self):
            lineage, matches = self._inner.fan_out()
            listed.append(len(matches))
            return lineage, matches

    def spy(plane):
        lookup = type(plane).lookup

        def spied(self, index, keys):
            result = lookup(self, index, keys)
            return Spied(result) if id(index) in rows_indexes else result

        monkeypatch.setattr(type(plane), "lookup", spied)

    monkeypatch.setattr(wcoj, "_chain", recording_chain)
    for execution in KERNELS:
        spy(get_kernels(execution))
    return listed


def _run(plan, catalog, execution, collect, **kwargs):
    size, result, rows = execute_wcoj(catalog, plan, collect_output=collect,
                                      execution=execution, **kwargs)
    return size, result, rows


@pytest.mark.parametrize("execution", KERNELS)
def test_count_only_run_lists_nothing_and_counts_the_same(case, execution,
                                                          listings):
    name, plan, catalog = case
    size, counted, rows = _run(plan, catalog, execution, collect=False)
    assert listings == [] and rows is None
    want_size, collected, want_rows = _run(plan, catalog, execution,
                                           collect=True)
    assert size > 0, name  # every shape has an answer to price
    # each batch lists one relation after another; its last lookup
    # lists the batch's output tuples
    per_batch = len(plan.query.relations)
    assert listings and len(listings) % per_batch == 0, name
    assert sum(listings[per_batch - 1::per_batch]) == size
    assert size == want_size == len(next(iter(want_rows.values())))
    assert_counters_identical(counted.counters, collected.counters,
                              (name, execution))


@pytest.mark.parametrize("execution", KERNELS)
def test_counters_match_over_many_batches(case, execution, monkeypatch):
    """Small batch caps split the expansion; the per-batch peak still
    matches, because it is read off prefix sums at the same bounds."""
    name, plan, catalog = case
    _, unsplit, _ = _run(plan, catalog, execution, collect=False)
    monkeypatch.setattr(wcoj, "EXPANSION_BATCH_ENTRIES", 3)
    monkeypatch.setattr(wcoj, "EXPANSION_MAX_ROWS", 5)
    size, counted, _ = _run(plan, catalog, execution, collect=False)
    want_size, collected, _ = _run(plan, catalog, execution, collect=True)
    assert size == want_size, name
    assert_counters_identical(counted.counters, collected.counters,
                              (name, execution))
    assert counted.counters.tuples_generated == \
        unsplit.counters.tuples_generated


def test_batch_bounds_set_the_peak(monkeypatch):
    """The skewed 8-clique's peak is its expansion's widest batch, so
    smaller batches lower it — on both paths alike."""
    parsed, catalog, driver = _skewed_clique8()
    plan = spanning_tree_decomposition(parsed, driver=driver)
    _, whole, _ = _run(plan, catalog, "vectorized", collect=False)
    monkeypatch.setattr(wcoj, "EXPANSION_BATCH_ENTRIES", 2)
    _, counted, _ = _run(plan, catalog, "vectorized", collect=False)
    _, collected, _ = _run(plan, catalog, "vectorized", collect=True)
    assert counted.counters.peak_intermediate_tuples \
        < whole.counters.peak_intermediate_tuples
    assert counted.counters.peak_intermediate_tuples \
        == collected.counters.peak_intermediate_tuples


@pytest.mark.parametrize("execution", KERNELS)
def test_over_budget_expansion_raises_the_same(case, execution):
    """One tuple under the output size: every level fits (each shape's
    data keeps its levels narrower than its answer), the priced and the
    listed expansion both trip the ``<expansion>`` check."""
    name, plan, catalog = case
    size, result, _ = _run(plan, catalog, execution, collect=False)
    budget = size - 1
    raised = []
    for collect in (False, True):
        try:
            _run(plan, catalog, execution, collect,
                 max_intermediate_tuples=budget)
        except BudgetExceededError as error:
            raised.append((error.mode, error.relation, error.size,
                           error.budget))
    assert raised[0] == raised[1], name
    assert raised[0][1:] == ("<expansion>", size, budget), name
