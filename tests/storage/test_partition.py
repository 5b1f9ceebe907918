"""Unit tests for hash-partitioned tables and sharded hash indexes."""

import numpy as np
import pytest

from repro.storage import (
    Catalog,
    HashIndex,
    PartitionedTable,
    ShardedHashIndex,
    Table,
    partitioned_catalog,
    shard_ids,
)
from repro.workloads.partitioned import scan_probe_catalog, scan_probe_query


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
    bounds = table.shard_bounds
    assert bounds[0] == 0 and bounds[-1] == len(table)
    assert (np.diff(bounds) >= 0).all()
    ids = shard_ids(table.column("key"), table.num_shards)
    for shard in range(table.num_shards):
        start, stop = table.shard_slice(shard)
        assert (ids[start:stop] == shard).all()


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
    for shard in range(table.num_shards):
        start, stop = table.shard_slice(shard)
        base = table.original_rows(np.arange(start, stop))
        assert (np.diff(base) > 0).all()


def test_single_shard_is_identity_layout():
    columns, table = make_partitioned(num_shards=1)
    assert (table.original_rows(np.arange(len(table)))
            == np.arange(len(table))).all()
    assert (table.column("key") == columns["key"]).all()
    # single-shard index is the plain merged HashIndex
    assert isinstance(table.build_hash_index("key"), HashIndex)


def test_empty_table_partitions():
    table = PartitionedTable(
        "t", {"key": np.empty(0, dtype=np.int64)}, "key", 4
    )
    assert len(table) == 0
    assert table.shard_bounds.tolist() == [0, 0, 0, 0, 0]
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
# Sharded index equivalence with the monolithic index
# ----------------------------------------------------------------------


@pytest.mark.parametrize("num_shards", [1, 2, 3, 8])
def test_sharded_lookup_matches_merged(num_shards):
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 30, 400)
    probes = rng.integers(-10, 40, 300)
    sharded = ShardedHashIndex(keys, num_shards)
    merged = HashIndex(keys)
    expected = merged.lookup(probes)
    got = sharded.lookup(probes)
    assert (got.counts == expected.counts).all()
    assert (got.matched_mask == expected.matched_mask).all()
    assert got.total_matches() == expected.total_matches()
    # per-probe-key match groups agree as sets
    offsets = np.concatenate([[0], np.cumsum(expected.counts)])
    got_rows, exp_rows = got.matching_rows(), expected.matching_rows()
    for i in range(len(probes)):
        lo, hi = offsets[i], offsets[i + 1]
        assert sorted(got_rows[lo:hi].tolist()) == sorted(
            exp_rows[lo:hi].tolist()
        )


def test_sharded_contains_and_probe_stats_match_merged():
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 25, 350)
    probes = rng.integers(-5, 30, 200)
    sharded = ShardedHashIndex(keys, 5)
    merged = HashIndex(keys)
    assert (sharded.contains(probes) == merged.contains(probes)).all()
    assert sharded.probe_stats(probes) == merged.probe_stats(probes)


def test_sharded_structure_aggregates():
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 20, 240)
    sharded = ShardedHashIndex(keys, 4)
    merged = HashIndex(keys)
    assert len(sharded) == len(merged) == 240
    assert sharded.num_distinct == merged.num_distinct
    assert (sharded.distinct_keys() == merged.distinct_keys()).all()
    sketches = sharded.sketches()
    assert sum(s.num_rows for s in sketches) == 240
    assert sum(s.num_distinct for s in sketches) == merged.num_distinct


def test_sharded_row_restriction_routes_by_key():
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 15, 120)
    rows = np.flatnonzero(keys % 2 == 0)
    sharded = ShardedHashIndex(keys, 3, rows=rows)
    merged = HashIndex(keys, rows=rows)
    probes = np.arange(-2, 20)
    assert (sharded.contains(probes) == merged.contains(probes)).all()
    assert sorted(sharded.lookup(probes).matching_rows().tolist()) == sorted(
        merged.lookup(probes).matching_rows().tolist()
    )


def test_sharded_empty_probe_batch():
    sharded = ShardedHashIndex(np.arange(50), 4)
    result = sharded.lookup(np.empty(0, dtype=np.int64))
    assert len(result) == 0
    assert result.total_matches() == 0
    assert result.matching_rows().tolist() == []
    assert sharded.contains(np.empty(0, dtype=np.int64)).tolist() == []
    assert sharded.probe_stats(np.empty(0, dtype=np.int64)) == (0, 0)


def test_sharded_rows_for_key():
    keys = np.asarray([4, 9, 4, 4, 9])
    sharded = ShardedHashIndex(keys, 2)
    assert sorted(sharded.rows_for_key(4).tolist()) == [0, 2, 3]
    assert sharded.rows_for_key(123).tolist() == []


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
    columns, table = make_partitioned(num_shards=4)
    catalog = Catalog()
    catalog.add(table)
    on_key = catalog.hash_index("t", "key")
    on_other = catalog.hash_index("t", "payload")
    assert isinstance(on_key, ShardedHashIndex)
    assert isinstance(on_other, HashIndex)  # merged-view fallback
    assert on_key.num_shards == 4


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


def test_thread_pool_fanout_path_matches_serial(monkeypatch):
    """Force the ThreadPoolExecutor branch (single-core CI skips it)."""
    import repro.storage.partition as partition

    monkeypatch.setattr(partition, "_MAX_WORKERS", 4)
    monkeypatch.setattr(partition, "PARALLEL_MIN_KEYS", 1)
    rng = np.random.default_rng(13)
    keys = rng.integers(0, 40, 600)
    probes = rng.integers(-10, 50, 400)
    sharded = ShardedHashIndex(keys, 4)  # parallel build
    merged = HashIndex(keys)
    got = sharded.lookup(probes)        # parallel probe
    expected = merged.lookup(probes)
    assert (got.counts == expected.counts).all()
    assert sorted(got.matching_rows().tolist()) == sorted(
        expected.matching_rows().tolist()
    )
    assert (sharded.contains(probes) == merged.contains(probes)).all()
    assert sharded.probe_stats(probes) == merged.probe_stats(probes)


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
# Single-key vs batch probe agreement (degenerate batches)
# ----------------------------------------------------------------------


def test_single_key_probes_agree_with_batch_on_empty_shards():
    """An index whose keys all route to a few shards leaves the rest
    empty; single-key probes and batch lookups must agree anyway."""
    keys = np.asarray([7, 7, 7, 7], dtype=np.int64)  # one distinct key
    index = ShardedHashIndex(keys, 8)
    assert sum(len(s) == 0 for s in index.shards) >= 6
    probes = np.asarray([7, 8, 9, -1, 0], dtype=np.int64)
    batch = index.lookup(probes)
    merged = HashIndex(keys)
    expected = merged.lookup(probes)
    assert batch.counts.tolist() == expected.counts.tolist()
    assert batch.matched_mask.tolist() == expected.matched_mask.tolist()
    assert sorted(batch.matching_rows().tolist()) == \
        sorted(expected.matching_rows().tolist())
    for key in probes.tolist():
        single = index.lookup(np.asarray([key], dtype=np.int64))
        position = probes.tolist().index(key)
        assert single.counts.tolist() == [batch.counts[position]], key
        assert sorted(index.rows_for_key(key).tolist()) == \
            sorted(merged.rows_for_key(key).tolist()), key
        assert index.contains(np.asarray([key]))[0] == \
            merged.contains(np.asarray([key]))[0], key


def test_all_miss_batch_agrees_with_single_key_probes():
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 100, 300)
    index = ShardedHashIndex(keys, 4)
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
    index = ShardedHashIndex(keys, 2)
    empty = np.asarray([], dtype=np.int64)
    result = index.lookup(empty)
    assert len(result) == 0
    assert result.total_matches() == 0
    assert result.matching_rows().tolist() == []
    assert index.contains(empty).tolist() == []
    assert index.probe_stats(empty) == (0, 0)


def test_each_shard_picks_its_own_layout():
    # hash-sharding thins key density by the shard count: with 4-byte
    # offsets a 4-shard index over a full key range still fits the
    # byte budget, a 16-shard one does not — each shard decides alone
    keys = np.random.default_rng(5).permutation(200_000).astype(np.int64)
    few = PartitionedTable("t", {"k": keys}, "k", 4).build_hash_index("k")
    many = PartitionedTable("t", {"k": keys}, "k", 16).build_hash_index("k")
    assert all(shard._offsets is not None for shard in few.shards)
    assert all(shard._offsets is None for shard in many.shards)
    assert few.nbytes == sum(shard.nbytes for shard in few.shards)
    assert few.nbytes < many.nbytes
    probes = np.arange(-10, 200_010, 7)
    assert few.lookup(probes).counts.tolist() == \
        many.lookup(probes).counts.tolist()


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
    assert derived.num_shards == 4 and len(derived) == len(rows)
    assert derived.lookup(probes).matching_rows().tolist() == \
        scratch.lookup(probes).matching_rows().tolist()
    assert derived.probe_stats(column) == scratch.probe_stats(column)
    assert base.restricted(np.arange(3000)) is base
