"""Unit tests for hash-partitioned tables and the indexes over them."""

import numpy as np
import pytest

from repro.storage import Catalog, PartitionedTable
from repro.storage.hashindex import HashIndex
from repro.storage.partition import shard_ids
from repro.storage.table import Table
from tests.partitioning import partitioned_catalog
from tests.scan_probe import scan_probe_catalog, scan_probe_query


def make_partitioned(rows=500, domain=40, num_shards=4, seed=0):
    rng = np.random.default_rng(seed)
    columns = {
        "key": rng.integers(0, domain, rows),
        "payload": np.arange(rows, dtype=np.int64),
    }
    return columns, PartitionedTable("t", columns, "key", num_shards)


# ----------------------------------------------------------------------
# Layout invariants
# ----------------------------------------------------------------------


def test_shards_are_contiguous_and_cover_table():
    _, table = make_partitioned()
    ids = shard_ids(table.column("key"), table.num_shards)
    # physical order visits shard 0's rows, then shard 1's, ...
    assert (np.diff(ids) >= 0).all()
    assert set(ids.tolist()) <= set(range(table.num_shards))
    assert len(ids) == len(table)


def test_original_rows_is_the_inverse_permutation():
    columns, table = make_partitioned()
    physical = np.arange(len(table))
    base = table.original_rows(physical)
    assert sorted(base.tolist()) == list(range(len(table)))
    # the physical row's values are the base row's values
    assert (table.column("payload") == columns["payload"][base]).all()
    assert (table.column("key") == columns["key"][base]).all()


def test_stable_permutation_preserves_order_within_shard():
    _, table = make_partitioned()
    ids = shard_ids(table.column("key"), table.num_shards)
    for shard in range(table.num_shards):
        base = table.original_rows(np.flatnonzero(ids == shard))
        assert (np.diff(base) > 0).all()


def test_single_shard_is_identity_layout():
    columns, table = make_partitioned(num_shards=1)
    assert (table.original_rows(np.arange(len(table)))
            == np.arange(len(table))).all()
    assert (table.column("key") == columns["key"]).all()
    assert isinstance(table.build_hash_index("key"), HashIndex)


def test_empty_table_partitions():
    table = PartitionedTable(
        "t", {"key": np.empty(0, dtype=np.int64)}, "key", 4
    )
    assert len(table) == 0
    index = table.build_hash_index("key")
    assert len(index) == 0
    assert index.lookup(np.asarray([3])).counts.tolist() == [0]


def test_rejects_bad_shard_key_and_count():
    with pytest.raises(KeyError, match="shard key"):
        PartitionedTable("t", {"a": [1]}, "missing", 2)
    with pytest.raises(ValueError, match="num_shards"):
        PartitionedTable("t", {"a": [1]}, "a", 0)
    with pytest.raises(TypeError, match="integer key"):
        shard_ids(np.asarray([1.5, 2.5]), 2)


def test_fingerprint_distinguishes_layouts():
    columns, table = make_partitioned(num_shards=4)
    digests = {
        table.fingerprint(),
        PartitionedTable("t", columns, "key", 2).fingerprint(),
        PartitionedTable("t", columns, "payload", 4).fingerprint(),
        Table("t", columns).fingerprint(),
    }
    assert len(digests) == 4


def test_from_table_round_trip():
    columns, _ = make_partitioned()
    base = Table("t", columns)
    part = PartitionedTable.from_table(base, "key", 4)
    assert part.name == base.name and len(part) == len(base)
    assert sorted(part.column("payload").tolist()) == sorted(
        base.column("payload").tolist()
    )


# ----------------------------------------------------------------------
# The index of a partitioned table answers like the base table's
# ----------------------------------------------------------------------


def physical_and_base(keys, num_shards):
    """(index over the partitioned column, partitioned table, index over
    the base column)."""
    table = PartitionedTable("t", {"k": keys}, "k", num_shards)
    return table.build_hash_index("k"), table, HashIndex(keys)


@pytest.mark.parametrize("num_shards", [1, 2, 3, 8])
def test_sharded_lookup_matches_merged(num_shards):
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 30, 400)
    probes = rng.integers(-10, 40, 300)
    index, table, merged = physical_and_base(keys, num_shards)
    expected = merged.lookup(probes)
    got = index.lookup(probes)
    assert (got.counts == expected.counts).all()
    assert (got.matched_mask == expected.matched_mask).all()
    # a key's rows sit in one shard in base order, so mapped back they
    # are the base index's group, in the base index's order
    assert table.original_rows(got.matching_rows()).tolist() == \
        expected.matching_rows().tolist()


def test_sharded_contains_and_probe_stats_match_merged():
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 25, 350)
    probes = rng.integers(-5, 30, 200)
    index, _, merged = physical_and_base(keys, 5)
    assert (index.contains(probes) == merged.contains(probes)).all()
    assert index.probe_stats(probes) == merged.probe_stats(probes)


def test_sharded_structure_aggregates():
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 20, 240)
    index, _, merged = physical_and_base(keys, 4)
    assert len(index) == len(merged) == 240
    assert index.num_distinct == merged.num_distinct
    assert (index.distinct_keys() == merged.distinct_keys()).all()


def test_sharded_rows_for_key():
    index, table, _ = physical_and_base(np.asarray([4, 9, 4, 4, 9]), 2)
    assert table.original_rows(index.rows_for_key(4)).tolist() == [0, 2, 3]
    assert index.rows_for_key(123).tolist() == []


def test_shard_ids_deterministic_and_in_range():
    values = np.arange(-1000, 1000)
    ids = shard_ids(values, 8)
    assert ((ids >= 0) & (ids < 8)).all()
    assert (ids == shard_ids(values, 8)).all()
    # the mixer spreads a contiguous range instead of clumping it
    counts = np.bincount(ids, minlength=8)
    assert counts.min() > 0


# ----------------------------------------------------------------------
# Catalog integration
# ----------------------------------------------------------------------


def test_catalog_serves_sharded_index_on_shard_key_only():
    """One plain index per (table, attribute), shard key or not: mapped
    through ``original_rows`` its matches are the base table's."""
    columns, table = make_partitioned(num_shards=4)
    catalog = Catalog()
    catalog.add(table)
    base = Catalog()
    base.add_table("t", columns)
    for attribute, probes in (("key", np.arange(-2, 42)),
                              ("payload", np.arange(-2, 502, 3))):
        index = catalog.hash_index("t", attribute)
        assert type(index) is HashIndex
        assert catalog.hash_index("t", attribute) is index  # cached
        expected = base.hash_index("t", attribute).lookup(probes)
        got = index.lookup(probes)
        assert got.counts.tolist() == expected.counts.tolist()
        assert sorted(table.original_rows(got.matching_rows()).tolist()) == \
            sorted(expected.matching_rows().tolist())


def test_partitioned_catalog_replaces_probe_targets_only():
    catalog = scan_probe_catalog(200, 400, seed=2)
    query = scan_probe_query()
    derived = partitioned_catalog(catalog, query, 4)
    assert isinstance(derived.table("build"), PartitionedTable)
    assert not isinstance(derived.table("driver"), PartitionedTable)
    # base catalog untouched
    assert not isinstance(catalog.table("build"), PartitionedTable)
    # num_shards <= 1 is the identity
    assert partitioned_catalog(catalog, query, 1) is catalog


def test_partitioned_catalog_skips_unshardable_tables():
    catalog = Catalog()
    catalog.add_table("driver", {"k": [1, 2]})
    catalog.add_table("empty", {"k": np.empty(0, dtype=np.int64)})
    catalog.add_table("floats", {"k": np.asarray([1.5, 2.5])})
    from repro.core.query import JoinEdge, JoinQuery

    query = JoinQuery("driver", [
        JoinEdge("driver", "empty", "k", "k"),
        JoinEdge("driver", "floats", "k", "k"),
    ])
    derived = partitioned_catalog(catalog, query, 4)
    assert derived is catalog  # nothing shardable -> no derivation


def test_deep_derivation_sharing_partitioned_table_refreshes_from_origin():
    """A grandchild catalog sharing a PartitionedTable by identity must
    refresh from the *originally mutated* table, not re-cluster the
    stale intermediate copies it shares."""
    c1 = Catalog()
    c1.add(Table("t", {"a": np.asarray([1, 2, 3, 4], dtype=np.int64)}))
    c2 = c1.derived_with({
        "t": PartitionedTable.from_table(c1.table("t"), "a", 2)
    })
    c3 = c2.derived_with({})
    assert c3.table("t") is c2.table("t")
    c1.table("t").column("a")[:] = [10, 20, 30, 40]
    c1.invalidate_indexes("t")
    for catalog in (c1, c2, c3):
        values = catalog.table("t").gather(np.arange(4))["a"]
        assert sorted(values.tolist()) == [10, 20, 30, 40], catalog
    assert c3.hash_index("t", "a").contains(np.asarray([10])).tolist() == [True]


# ----------------------------------------------------------------------
# Degenerate batches
# ----------------------------------------------------------------------


def test_all_miss_batch_agrees_with_single_key_probes():
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 100, 300)
    index, _, _ = physical_and_base(keys, 4)
    misses = np.asarray([-3, 100, 250, 10**9], dtype=np.int64)
    batch = index.lookup(misses)
    assert batch.counts.tolist() == [0, 0, 0, 0]
    assert not batch.matched_mask.any()
    assert batch.total_matches() == 0
    assert batch.matching_rows().tolist() == []
    assert not index.contains(misses).any()
    assert index.probe_stats(misses) == (0, 0)
    for key in misses.tolist():
        single = index.lookup(np.asarray([key], dtype=np.int64))
        assert single.counts.tolist() == [0], key
        assert single.matching_rows().tolist() == [], key
        assert index.rows_for_key(key).tolist() == [], key


def test_empty_probe_batch_on_sharded_index():
    keys = np.asarray([1, 2, 3], dtype=np.int64)
    index, _, _ = physical_and_base(keys, 2)
    empty = np.asarray([], dtype=np.int64)
    result = index.lookup(empty)
    assert len(result) == 0
    assert result.total_matches() == 0
    assert result.matching_rows().tolist() == []
    assert index.contains(empty).tolist() == []
    assert index.probe_stats(empty) == (0, 0)


def test_each_shard_picks_its_own_layout():
    """The layout is a function of the key multiset, which
    re-clustering does not change: whatever the shard count, the
    partitioned index picks the layout, and the bytes, of the base
    index, and answers alike."""
    keys = np.random.default_rng(5).permutation(200_000).astype(np.int64)
    base = HashIndex(keys)
    probes = np.arange(-10, 200_010, 7)
    for num_shards in (4, 16):
        index, table, _ = physical_and_base(keys, num_shards)
        assert (index._offsets is None) == (base._offsets is None)
        assert index.nbytes == base.nbytes
        assert index.lookup(probes).counts.tolist() == \
            base.lookup(probes).counts.tolist()
        assert table.original_rows(index.lookup(probes).matching_rows()) \
            .tolist() == base.lookup(probes).matching_rows().tolist()


def test_sharded_restricted_matches_scratch_build():
    rng = np.random.default_rng(6)
    keys = rng.integers(0, 500, size=3000)
    table = PartitionedTable("t", {"k": keys}, "k", 4)
    column = table.column("k")
    base = table.build_hash_index("k")
    rows = np.flatnonzero(rng.random(3000) < 0.4)
    derived = base.restricted(rows)
    scratch = table.build_hash_index("k", rows=rows)
    probes = np.arange(-3, 503)
    assert type(derived) is HashIndex and len(derived) == len(rows)
    assert derived.lookup(probes).matching_rows().tolist() == \
        scratch.lookup(probes).matching_rows().tolist()
    assert derived.probe_stats(column) == scratch.probe_stats(column)
    assert base.restricted(np.arange(3000)) is base
    # the same rows restricted on the base layout answer alike
    base_rows = np.sort(table.original_rows(rows))
    merged = HashIndex(keys).restricted(base_rows)
    assert table.original_rows(derived.lookup(probes).matching_rows()) \
        .tolist() == merged.lookup(probes).matching_rows().tolist()


def test_partitioned_execution_starts_no_thread(monkeypatch):
    """Executing a partitioned plan whose probe batches are far above
    16 384 keys runs on the calling thread: no thread is started, and
    every index probe (statistics included) happens on the caller."""
    import threading

    from repro import QuerySession

    probing_threads = set()
    for name in ("lookup", "contains", "probe_stats"):
        def spy(self, keys, _probe=getattr(HashIndex, name)):
            probing_threads.add(threading.get_ident())
            return _probe(self, keys)
        monkeypatch.setattr(HashIndex, name, spy)

    rows = 3 * 16_384
    catalog = Catalog()
    catalog.add_table("R", {"k": np.arange(rows) % (rows // 2)})
    catalog.add_table("S", {"k": np.arange(rows // 2)})
    before = set(threading.enumerate())
    session = QuerySession(catalog, partitioning=8)
    report = session.execute("select * from R, S where R.k = S.k")
    assert report.ok, report.error
    assert report.shards_used == 8
    assert report.result.output_size == rows
    assert set(threading.enumerate()) - before == set()
    assert probing_threads == {threading.get_ident()}
