"""Partial-failure handling: worker deaths, sibling retry, clean errors."""

import numpy as np
import pytest

from repro.distributed.workerpool import DistributedExecutionError
from repro.service.session import QuerySession

from tests.helpers import (
    KillingWorkerPool,
    killing_pool_factory,
    make_small_catalog,
)

SQL = (
    "SELECT * FROM R1, R2, R3, R5 "
    "WHERE R1.B = R2.B AND R2.C = R3.C AND R1.E = R5.E"
)


@pytest.fixture
def catalog():
    return make_small_catalog()


def test_one_death_retries_on_sibling_bit_identically(catalog):
    want = QuerySession(catalog).execute(SQL, collect_output=True)
    dist = QuerySession(catalog, placement="distributed", num_workers=2)
    dist._worker_pool_factory = killing_pool_factory({0})
    try:
        got = dist.execute(SQL, collect_output=True)
        assert got.ok, got.error
        assert dist._worker_pool.kills == 1
        assert got.worker_retries == 1
        assert len(got.worker_events) == 1
        assert "worker 0 died" in got.worker_events[0]
        # the survivor finished the victim's shards: same answer,
        # bit-identical counters
        assert got.result.output_size == want.result.output_size
        for relation, rows in want.result.output_rows.items():
            assert np.array_equal(rows, got.result.output_rows[relation])
        assert got.result.counters == want.result.counters
        # the served placement descriptor reflects the survivor set
        assert got.result.placement["workers"] == [1]
    finally:
        dist.close()


def test_exhausted_retries_error_cleanly_not_hang(catalog):
    dist = QuerySession(catalog, placement="distributed", num_workers=2)
    dist._worker_pool_factory = killing_pool_factory({0, 1})
    try:
        report = dist.execute(SQL)
        # both workers died; no live sibling remains — the query must
        # fail promptly with the recorded events, never hang
        assert not report.ok
        assert isinstance(report.error, DistributedExecutionError)
        assert "died" in str(report.error)
    finally:
        dist.close()


def test_zero_retry_budget_fails_on_first_death(catalog):
    dist = QuerySession(catalog, placement="distributed", num_workers=2)
    dist._worker_pool_factory = killing_pool_factory(
        {0}, max_retries=0
    )
    try:
        report = dist.execute(SQL)
        assert not report.ok
        assert isinstance(report.error, DistributedExecutionError)
        assert "max_retries=0" in str(report.error)
    finally:
        dist.close()


def test_pool_survives_a_failed_query(catalog):
    dist = QuerySession(catalog, placement="distributed", num_workers=2)
    dist._worker_pool_factory = killing_pool_factory({0}, max_retries=0)
    try:
        first = dist.execute(SQL)
        assert not first.ok
        # the victim's executor was retired; the next query lazily
        # respawns it and succeeds with the full pool
        second = dist.execute(SQL)
        assert second.ok, second.error
        assert second.workers_used == 2
        assert second.worker_retries == 0
    finally:
        dist.close()


def test_killing_pool_is_a_workerpool_otherwise(catalog):
    # sanity: with no victims the wrapper is behaviorally inert
    pool_holder = {}

    def factory(*args, **kwargs):
        pool = KillingWorkerPool(*args, victims=(), **kwargs)
        pool_holder["pool"] = pool
        return pool

    dist = QuerySession(catalog, placement="distributed", num_workers=2)
    dist._worker_pool_factory = factory
    try:
        report = dist.execute(SQL)
        assert report.ok, report.error
        assert pool_holder["pool"].kills == 0
        assert report.worker_retries == 0
    finally:
        dist.close()
