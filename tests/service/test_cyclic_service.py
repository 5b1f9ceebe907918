"""Cyclic queries through the service layer, end to end.

The acceptance path: a cyclic query submitted through
:meth:`QuerySession.execute` (and the async front end) plans via the
joint tree+order search, caches under a key that carries the
cyclic knobs, executes on partitioned catalogs bit-identically to
:func:`execute_cyclic` on the merged catalog, and reports the residual
stage in its :class:`QueryReport`.
"""

import asyncio
import pickle

import numpy as np
import pytest

from repro.core import execute_cyclic, parse_query, spanning_tree_decomposition
from repro.service import QuerySession
from repro.service.async_service import AsyncQueryService
from repro.storage import Catalog
from tests.cyclic_joins import spanning_tree_cap

TRIANGLE = (
    "select * from A, B, C "
    "where A.x = B.x and B.y = C.y and C.z = A.z"
)


@pytest.fixture
def catalog():
    rng = np.random.default_rng(5)
    catalog = Catalog()
    catalog.add_table("A", {"x": rng.integers(0, 6, 30),
                            "z": rng.integers(0, 6, 30)})
    catalog.add_table("B", {"x": rng.integers(0, 6, 25),
                            "y": rng.integers(0, 6, 25)})
    catalog.add_table("C", {"y": rng.integers(0, 6, 20),
                            "z": rng.integers(0, 6, 20)})
    return catalog


def merged_reference(catalog, driver=None):
    plan = spanning_tree_decomposition(parse_query(TRIANGLE), driver=driver)
    size, _, rows = execute_cyclic(catalog, plan, collect_output=True)
    return size, sorted(zip(rows["A"].tolist(), rows["B"].tolist(),
                            rows["C"].tolist()))


def test_session_executes_and_caches_cyclic(catalog):
    session = QuerySession(catalog)
    expected_size, expected_rows = merged_reference(catalog)
    cold = session.execute(TRIANGLE, collect_output=True)
    assert cold.ok and not cold.cache_hit
    assert cold.result.output_size == expected_size
    rows = cold.result.output_rows
    assert sorted(zip(rows["A"].tolist(), rows["B"].tolist(),
                      rows["C"].tolist())) == expected_rows
    warm = session.execute(TRIANGLE)
    assert warm.ok and warm.cache_hit
    assert warm.result.output_size == expected_size


def test_report_carries_residual_fields(catalog):
    report = QuerySession(catalog).execute(TRIANGLE)
    assert report.ok
    assert len(report.residual_predicates) == 1
    counters = report.result.counters
    assert counters.residual_input_tuples > 0
    assert report.residual_selectivity == pytest.approx(
        report.result.output_size / counters.residual_input_tuples
    )
    # acyclic queries keep the defaults
    acyclic = QuerySession(catalog).execute(
        "select * from A, B where A.x = B.x"
    )
    assert acyclic.residual_predicates == ()
    assert acyclic.residual_selectivity == 1.0


def test_spanning_tree_cap_of_one_serves_the_kruskal_tree(catalog):
    """A session whose joint search may only try the greedy Kruskal
    tree serves a plan no cheaper than the full search's, and the same
    rows."""
    _, expected_rows = merged_reference(catalog)
    joint = QuerySession(catalog).execute(TRIANGLE, collect_output=True)
    with spanning_tree_cap(1):
        greedy = QuerySession(catalog).execute(TRIANGLE,
                                               collect_output=True)
    assert joint.ok and greedy.ok
    assert joint.plan.predicted_cost <= greedy.plan.predicted_cost
    for report in (joint, greedy):
        rows = report.result.output_rows
        assert sorted(zip(rows["A"].tolist(), rows["B"].tolist(),
                          rows["C"].tolist())) == expected_rows


def test_session_partitioned_cyclic_matches_merged(catalog):
    expected_size, expected_rows = merged_reference(catalog)
    session = QuerySession(catalog, partitioning=2)
    report = session.execute(TRIANGLE, collect_output=True)
    assert report.ok
    assert report.shards_used == 2
    assert report.result.output_size == expected_size
    rows = report.result.output_rows
    assert sorted(zip(rows["A"].tolist(), rows["B"].tolist(),
                      rows["C"].tolist())) == expected_rows


def test_prepared_cyclic_statement_rebinds(catalog):
    session = QuerySession(catalog)
    statement = session.prepare(TRIANGLE + " and A.x = ?")
    a, b, c = (catalog.table(name) for name in "ABC")

    def expected(literal):
        return sum(
            1
            for i in range(len(a)) if a.column("x")[i] == literal
            for j in range(len(b)) if a.column("x")[i] == b.column("x")[j]
            for k in range(len(c))
            if b.column("y")[j] == c.column("y")[k]
            and c.column("z")[k] == a.column("z")[i]
        )

    values = catalog.table("A").column("x")
    for literal in (int(values[0]), int(values[1])):
        report = statement.execute(literal)
        assert report.ok, report.error
        assert report.result.output_size == expected(literal)


def test_cyclic_plan_spec_pickles_with_residuals(catalog):
    session = QuerySession(catalog)
    plan = session.plan(TRIANGLE, mode="COM")
    spec = plan.to_spec(catalog.fingerprint())
    revived = pickle.loads(pickle.dumps(spec))
    assert revived.residuals == spec.residuals
    rehydrated = session.planner.rehydrate(revived, parse_query(TRIANGLE))
    assert rehydrated.fingerprint() == plan.fingerprint()


def test_async_service_serves_cyclic(catalog):
    expected_size, _ = merged_reference(catalog)
    session = QuerySession(catalog)

    async def main():
        async with AsyncQueryService(session) as service:
            reports = await service.execute_many([TRIANGLE] * 6)
            assert all(r.ok for r in reports)
            assert {r.result.output_size for r in reports} == {expected_size}
            assert all(len(r.residual_predicates) == 1 for r in reports)
            return service.stats()

    stats = asyncio.run(main())
    assert stats["completed"] == 6


def test_async_process_pool_plans_cyclic(catalog):
    """A worker process plans the cyclic query; the spec's residuals
    ship back and rehydrate into the session's plan cache."""
    expected_size, _ = merged_reference(catalog)
    session = QuerySession(catalog)

    async def main():
        async with AsyncQueryService(
            session, planning_workers=1, process_min_relations=2
        ) as service:
            report = await service.execute(TRIANGLE)
            assert report.ok, report.error
            assert report.result.output_size == expected_size
            return service.stats()

    stats = asyncio.run(main())
    assert stats["planned_in_process_pool"] == 1
