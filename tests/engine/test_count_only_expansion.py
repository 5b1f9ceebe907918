"""A run that keeps no rows counts its flat output instead of generating it.

With ``flat_output=True`` every mode counts, budgets and prices the
flat tuples; only a run with ``collect_output=True`` generates them.
For the factorized modes that means :meth:`FactorizedResult.expand`
runs only when rows are collected — the counters, output size and
``<expansion>`` budget check are the same either way.
"""

import pytest

from repro import QuerySession
from repro.core import execute_cyclic, parse_query, spanning_tree_decomposition
from repro.engine import BudgetExceededError, execute
from repro.engine.factorized import FactorizedResult
from repro.modes import ExecutionMode

from tests.helpers import make_running_example_query, make_small_catalog
from tests.partitioning import partitioned_catalog

ORDER = ["R2", "R5", "R3", "R6", "R4"]
SIX_RELATION_SQL = (
    "select * from R1, R2, R3, R4, R5, R6 "
    "where R1.B = R2.B and R2.C = R3.C and R2.D = R4.D "
    "and R1.E = R5.E and R5.F = R6.F"
)
FACTORIZED_MODES = [mode for mode in ExecutionMode.all_modes()
                    if mode.factorized]


@pytest.fixture
def expand_calls(monkeypatch):
    """Every call of :meth:`FactorizedResult.expand`, in order."""
    calls = []
    original = FactorizedResult.expand

    def spy(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FactorizedResult, "expand", spy)
    return calls


@pytest.fixture(scope="module")
def query():
    return make_running_example_query()


@pytest.fixture(scope="module", params=[1, 2, 8], ids=lambda n: f"shards{n}")
def catalog(request, query):
    return partitioned_catalog(make_small_catalog(), query, request.param)


def _tree_run(catalog, query, mode, execution, collect):
    return execute(catalog, query, ORDER, mode, flat_output=True,
                   collect_output=collect, execution=execution)


def _residual_free_cyclic_run(catalog, query, mode, execution, collect):
    plan = spanning_tree_decomposition(parse_query(SIX_RELATION_SQL),
                                       driver=query.root)
    assert not plan.residuals
    _, result, _ = execute_cyclic(catalog, plan, mode, collect_output=collect,
                                  execution=execution)
    return result


@pytest.mark.parametrize("run", [_tree_run, _residual_free_cyclic_run],
                         ids=["acyclic", "residual_free_cyclic"])
@pytest.mark.parametrize("execution", ["vectorized", "interpreted"])
@pytest.mark.parametrize("mode", ExecutionMode.all_modes(), ids=str)
def test_count_only_run_matches_collecting_run(catalog, query, mode,
                                               execution, run,
                                               expand_calls):
    counted = run(catalog, query, mode, execution, collect=False)
    assert expand_calls == []
    collected = run(catalog, query, mode, execution, collect=True)
    assert len(expand_calls) == (1 if mode.factorized else 0)
    assert counted.output_rows is None
    assert counted.output_size == collected.output_size
    assert counted.output_size == len(collected.output_rows[query.root])
    assert counted.counters == collected.counters


@pytest.mark.parametrize("mode", FACTORIZED_MODES, ids=str)
def test_count_only_run_keeps_the_expansion_budget(query, mode,
                                                   expand_calls):
    catalog = make_small_catalog()
    factorized = execute(catalog, query, ORDER, mode, flat_output=False)
    widest_step = factorized.counters.peak_intermediate_tuples
    assert widest_step < factorized.output_size
    budget = factorized.output_size - 1
    with pytest.raises(BudgetExceededError) as excinfo:
        execute(catalog, query, ORDER, mode, flat_output=True,
                max_intermediate_tuples=budget)
    assert excinfo.value.relation == "<expansion>"
    assert excinfo.value.size == factorized.output_size
    # one tuple more of budget and the count-only run passes, unexpanded
    result = execute(catalog, query, ORDER, mode, flat_output=True,
                     max_intermediate_tuples=budget + 1)
    assert result.output_size == factorized.output_size
    assert expand_calls == []


def test_session_count_only_execution_does_not_expand(expand_calls):
    session = QuerySession(make_small_catalog())
    report = session.execute(SIX_RELATION_SQL, mode="COM")
    assert report.plan.mode is ExecutionMode.COM
    assert expand_calls == []
    collected = session.execute(SIX_RELATION_SQL, mode="COM",
                                collect_output=True)
    assert len(expand_calls) == 1
    assert report.result.output_size == collected.result.output_size > 0
    assert report.result.counters == collected.result.counters
