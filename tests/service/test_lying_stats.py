"""Statistics that lie, through the planner, the session and the async
service.

Corrupted statistics sell the planner a catastrophic order: the order
moves and really costs more, the answer never moves, and the session
and async service serve the plan as it was decided.
"""

import asyncio

import numpy as np
import pytest

from repro import AsyncQueryService, QuerySession
from repro.core import JoinEdge, JoinQuery
from repro.planner import Planner
from repro.storage import Catalog

from tests.helpers import StatsCorruptingCatalog, brute_force_join, result_tuples

N_DRIVER = 1500
HEAVY_FANOUT = 40
#: H claims near-perfect selectivity while it truly explodes, and S
#: claims to be 30x fatter than it is — the planner orders H first
CORRUPTION = {"H": 1e-4, "S": 30.0}
HONEST_ORDER = ["S", "H"]
FOOLED_ORDER = ["H", "S"]


def make_adversarial_catalog():
    """R drives; S is truly selective (1%), H truly multiplies by 40."""
    catalog = Catalog()
    catalog.add_table("R", {"a": np.arange(N_DRIVER)})
    catalog.add_table("S", {"a": np.arange(0, N_DRIVER, 100)})
    catalog.add_table(
        "H", {"a": np.repeat(np.arange(N_DRIVER), HEAVY_FANOUT)}
    )
    return catalog


def adversarial_query():
    return JoinQuery(
        "R", [JoinEdge("R", "S", "a", "a"), JoinEdge("R", "H", "a", "a")]
    )


def test_the_fooled_order_really_costs_more():
    """Guards the harness: the injected error must *matter*.  If the
    corruption stopped fooling the planner, or the data stopped
    punishing the fooled order, the equivalences below would hold
    vacuously."""
    catalog = make_adversarial_catalog()
    query = adversarial_query()
    honest = Planner(catalog).plan(query, mode="STD")
    fooled = Planner(StatsCorruptingCatalog(catalog, CORRUPTION)).plan(
        query, mode="STD")
    assert honest.order == HONEST_ORDER
    assert fooled.order == FOOLED_ORDER
    regret = (fooled.execute().weighted_cost()
              / honest.execute().weighted_cost())
    assert regret >= 10.0


@pytest.mark.parametrize("num_shards", [1, 2, 8])
@pytest.mark.parametrize("execution", ["vectorized", "interpreted"])
def test_the_fooled_order_keeps_the_answer(num_shards, execution):
    """The lie survives the partitioning rewrite on every shard count
    and kernel plane: the order moves, the brute-force rows do not."""
    catalog = make_adversarial_catalog()
    query = adversarial_query()
    expected = brute_force_join(catalog, query)
    for source, order in ((catalog, HONEST_ORDER),
                          (StatsCorruptingCatalog(catalog, CORRUPTION),
                           FOOLED_ORDER)):
        plan = Planner(source, partitioning=num_shards,
                       execution=execution).plan(query, mode="STD")
        assert plan.num_shards == num_shards
        assert plan.order == order
        assert result_tuples(
            plan.execute(collect_output=True), query) == expected


def test_session_serves_the_fooled_plan_warm():
    catalog = make_adversarial_catalog()
    session = QuerySession(StatsCorruptingCatalog(catalog, CORRUPTION))
    query = adversarial_query()
    cold = session.execute(query, mode="STD", collect_output=True)
    warm = session.execute(query, mode="STD", collect_output=True)
    assert cold.ok and warm.ok
    assert not cold.cache_hit and warm.cache_hit
    assert warm.plan.order == cold.plan.order == FOOLED_ORDER
    assert result_tuples(warm.result, query) == result_tuples(
        cold.result, query) == brute_force_join(catalog, query)


def test_async_service_serves_the_fooled_plan():
    catalog = make_adversarial_catalog()
    session = QuerySession(StatsCorruptingCatalog(catalog, CORRUPTION))
    query = adversarial_query()

    async def go():
        async with AsyncQueryService(session) as service:
            return await service.execute(query, mode="STD",
                                         collect_output=True)

    report = asyncio.run(go())
    assert report.ok
    assert report.plan.order == FOOLED_ORDER
    assert result_tuples(report.result, query) == brute_force_join(
        catalog, query
    )
