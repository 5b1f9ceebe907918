"""A write rebuilds only what read the written table.

The session's plan cache, prepared-statement templates, the planner's
statistics store and partition layouts are keyed by the tables each
entry reads, so a write re-clusters, re-indexes, re-measures and
replans only the entries over the written table, and one catalog
version move reclaims every superseded entry — and a read after a write answers exactly what a
fresh session over the post-write data answers.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Catalog, QuerySession, parse_query
from repro.storage import PartitionedTable
from repro.storage.table import Table

#: the three query shapes the ``live_mutation`` benchmark workload
#: serves: light, medium and heavy
POOL = (
    "select * from R1, R2 where R1.B = R2.B",
    "select * from R1, R2, R3 where R1.B = R2.B and R2.C = R3.C",
    "select * from R1, R2, R3, R5 "
    "where R1.B = R2.B and R2.C = R3.C and R1.E = R5.E",
)
DOMAIN = 40


def mutation_catalog(seed, driver_rows=300, child_rows=200):
    rng = np.random.default_rng(seed)

    def keys(n):
        return rng.integers(0, DOMAIN, n)

    catalog = Catalog()
    catalog.add_table("R1", {"A": np.arange(driver_rows),
                             "B": keys(driver_rows), "E": keys(driver_rows)})
    catalog.add_table("R2", {"B": keys(child_rows), "C": keys(child_rows),
                             "D": keys(child_rows)})
    catalog.add_table("R3", {"C": keys(child_rows)})
    catalog.add_table("R5", {"E": keys(child_rows), "F": keys(child_rows)})
    return catalog


def write(catalog, kind, table, rng):
    """One write of ``kind``, acknowledged the documented way: an
    in-place update of 16 rows followed by ``invalidate_indexes``, or
    an append that replaces the table through ``add_table``."""
    current = catalog.table(table)
    column = current.column_names[0]
    if kind == "update":
        rows = rng.integers(0, len(current), 16)
        current.column(column)[rows] = rng.integers(0, DOMAIN, 16)
        catalog.invalidate_indexes(table)
    else:
        catalog.add_table(table, {
            name: np.concatenate([values, rng.integers(0, DOMAIN, 8)])
            for name, values in current.columns.items()
        })


def copy_of(catalog):
    fresh = Catalog()
    for name in catalog.table_names:
        fresh.add_table(name, {
            column: values.copy()
            for column, values in catalog.table(name).columns.items()
        })
    return fresh


def reads(sql, table):
    return table in parse_query(sql).relations.values()


@pytest.fixture
def counted(monkeypatch):
    """Counts of re-clusters and hash-index builds, by table name."""
    clusters, builds = Counter(), Counter()
    from_table = PartitionedTable.from_table.__func__
    build = Table.build_hash_index

    def counting_from_table(cls, table, shard_key, num_shards):
        clusters[table.name] += 1
        return from_table(cls, table, shard_key, num_shards)

    def counting_build(self, attribute, rows=None):
        builds[self.name] += 1
        return build(self, attribute, rows)

    monkeypatch.setattr(PartitionedTable, "from_table",
                        classmethod(counting_from_table))
    monkeypatch.setattr(Table, "build_hash_index", counting_build)
    return clusters, builds


def warm_session(catalog, **knobs):
    session = QuerySession(catalog, partitioning=4, **knobs)
    for sql in POOL:
        assert session.execute(sql).ok
    return session


def test_in_place_update_reclusters_and_indexes_the_written_table_once(
        counted):
    catalog = mutation_catalog(11)
    session = warm_session(catalog)
    clusters, builds = counted
    clusters.clear()
    builds.clear()
    write(catalog, "update", "R2", np.random.default_rng(0))
    for sql in POOL:
        report = session.execute(sql)
        assert report.ok and not report.cache_hit
    assert dict(clusters) == {"R2": 1}
    assert sum(builds.values()) == 1


def test_append_to_another_table_keeps_the_plan(counted):
    catalog = mutation_catalog(12)
    session = warm_session(catalog)
    clusters, _ = counted
    clusters.clear()
    write(catalog, "append", "R3", np.random.default_rng(0))
    light, medium, heavy = (session.execute(sql) for sql in POOL)
    assert light.ok and light.cache_hit
    assert not medium.cache_hit and not heavy.cache_hit
    assert dict(clusters) == {"R3": 1}
    invalidations = session.cache_stats()["plan_cache"]["invalidations"]
    assert invalidations == 2


def table_caches(session):
    """The session's three table-keyed caches, by name."""
    planner = session.planner
    return {"statistics": planner.stats_cache, "plans": session.plan_cache,
            "relations": planner._relation_cache}


@pytest.mark.parametrize("kind", ["update", "append"])
def test_a_write_reclaims_every_cache_over_the_written_table(kind):
    """One catalog version move sweeps all three caches: afterwards each
    holds only entries over tables the catalog still holds, and each
    dropped entry is counted as an invalidation."""
    catalog = mutation_catalog(14)
    session = warm_session(catalog)
    before = {name: len(cache)
              for name, cache in table_caches(session).items()}
    assert all(before.values())
    write(catalog, kind, "R2", np.random.default_rng(0))
    for sql in POOL:
        assert session.execute(sql).ok
    live = set(catalog.table_fingerprints().values())
    for name, cache in table_caches(session).items():
        stale = [key for key in cache.keys() if not live.issuperset(key[0])]
        assert stale == [], name
        assert cache.stats.invalidations > 0, name
    # every query reads R2: all three plans were replanned, none kept
    assert session.cache_stats()["plan_cache"]["invalidations"] == 3


def test_superseded_layout_is_reclaimed_not_pinned():
    catalog = mutation_catalog(13)
    session = warm_session(catalog)
    old_copy = weakref.ref(session.plan(POOL[0]).catalog.table("R2"))
    assert isinstance(old_copy(), PartitionedTable)
    write(catalog, "update", "R2", np.random.default_rng(0))
    assert session.execute(POOL[0]).ok
    gc.collect()
    assert old_copy() is None


@given(
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["update", "append"]),
    table=st.sampled_from(["R2", "R3", "R5"]),
    partitioning=st.sampled_from(["off", 4]),
)
@settings(max_examples=30, deadline=None)
def test_read_after_write_matches_a_fresh_session(seed, kind, table,
                                                  partitioning):
    """The correctness gate: after a write, a session that served cached
    plans answers every query with the rows (in order) and counters of
    a fresh session over the post-write data, and replans exactly the
    queries that read the written table."""
    catalog = mutation_catalog(seed)
    session = QuerySession(catalog, partitioning=partitioning)
    for sql in POOL + POOL:
        assert session.execute(sql).ok
    write(catalog, kind, table, np.random.default_rng(seed))
    fresh = QuerySession(copy_of(catalog), partitioning=partitioning)
    for sql in POOL:
        served = session.execute(sql, collect_output=True)
        expected = fresh.execute(sql, collect_output=True)
        assert served.ok and expected.ok
        assert served.cache_hit == (not reads(sql, table))
        assert served.result.counters == expected.result.counters
        rows, want = served.result.output_rows, expected.result.output_rows
        assert list(rows) == list(want)
        for relation in want:
            np.testing.assert_array_equal(rows[relation], want[relation])
