"""Unit tests for Table and Catalog."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.storage import Catalog, PartitionedTable, Table


def test_table_basic_properties():
    table = Table("t", {"a": [1, 2, 3], "b": [4, 5, 6]})
    assert len(table) == 3
    assert table.column_names == ["a", "b"]
    assert table.column("a").dtype == np.int64


def test_table_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="length"):
        Table("t", {"a": [1, 2], "b": [1]})


def test_table_rejects_empty_schema():
    with pytest.raises(ValueError, match="at least one column"):
        Table("t", {})


def test_table_unknown_column_message():
    table = Table("t", {"a": [1]})
    with pytest.raises(KeyError, match="no column 'z'"):
        table.column("z")


def test_distinct_count():
    table = Table("t", {"a": [1, 1, 2, 3, 3, 3]})
    assert table.distinct_count("a") == 3


def test_gather_selects_rows_and_columns():
    table = Table("t", {"a": [10, 20, 30], "b": [1, 2, 3]})
    got = table.gather([2, 0], columns=["b"])
    assert list(got) == ["b"]
    assert got["b"].tolist() == [3, 1]


def test_chunks_iteration():
    table = Table("t", {"a": np.arange(5)})
    chunks = list(table.chunks(chunk_size=2))
    assert [len(c) for c in chunks] == [2, 2, 1]


def test_catalog_registration_and_lookup():
    catalog = Catalog()
    catalog.add_table("t", {"a": [1, 2]})
    assert "t" in catalog
    assert catalog.table_names == ["t"]
    assert len(catalog.table("t")) == 2


def test_catalog_unknown_table_message():
    catalog = Catalog()
    with pytest.raises(KeyError, match="no table named 'x'"):
        catalog.table("x")


def test_catalog_rejects_non_table():
    catalog = Catalog()
    with pytest.raises(TypeError, match="expected Table"):
        catalog.add({"a": [1]})


def test_hash_index_cached_and_invalidated():
    catalog = Catalog()
    catalog.add_table("t", {"a": [1, 2, 2]})
    idx1 = catalog.hash_index("t", "a")
    idx2 = catalog.hash_index("t", "a")
    assert idx1 is idx2
    # Replacing the table drops the cache.
    catalog.add_table("t", {"a": [5, 5]})
    idx3 = catalog.hash_index("t", "a")
    assert idx3 is not idx1
    assert idx3.num_distinct == 1


def test_invalidate_indexes_scoped():
    catalog = Catalog()
    catalog.add_table("t", {"a": [1]})
    catalog.add_table("u", {"a": [1]})
    idx_t = catalog.hash_index("t", "a")
    idx_u = catalog.hash_index("u", "a")
    catalog.invalidate_indexes("t")
    assert catalog.hash_index("t", "a") is not idx_t
    assert catalog.hash_index("u", "a") is idx_u
    catalog.invalidate_indexes()
    assert catalog.hash_index("u", "a") is not idx_u


# ----------------------------------------------------------------------
# Derived catalogs and index invalidation (regression: a derivative
# must never serve a stale index over arrays it shares with its parent)
# ----------------------------------------------------------------------


def test_derived_catalog_snapshot_survives_parent_replacement():
    parent = Catalog()
    parent.add_table("t", {"a": [1, 2, 2]})
    parent.add_table("u", {"a": [9]})
    old_index = parent.hash_index("t", "a")
    derived = parent.derived_with({"u": Table("u", {"a": [7]})})
    # Replacing t in the parent must not corrupt the derivative: its
    # snapshot keeps the old table, and its index stays consistent
    # with that snapshot.
    parent.add_table("t", {"a": [5]})
    assert derived.table("t").column("a").tolist() == [1, 2, 2]
    assert derived.hash_index("t", "a") is old_index
    assert sorted(derived.hash_index("t", "a").rows_for_key(2).tolist()) == [1, 2]
    # while the parent itself rebuilt
    assert parent.hash_index("t", "a") is not old_index


def test_parent_invalidation_reaches_derived_catalog():
    parent = Catalog()
    parent.add_table("t", {"a": [1, 2, 2]})
    parent.add_table("u", {"a": [9]})
    derived = parent.derived_with({"u": Table("u", {"a": [7]})})
    stale = derived.hash_index("t", "a")
    assert stale.rows_for_key(1).tolist() == [0]
    # In-place mutation of the shared arrays, acknowledged on the
    # parent only — the derivative shares those arrays, so its cached
    # index must be dropped too.
    parent.table("t").column("a")[0] = 2
    parent.invalidate_indexes("t")
    rebuilt = derived.hash_index("t", "a")
    assert rebuilt is not stale
    assert sorted(rebuilt.rows_for_key(2).tolist()) == [0, 1, 2]


def test_parent_invalidation_spares_replaced_tables_in_derived():
    parent = Catalog()
    parent.add_table("t", {"a": [1, 2]})
    derived = parent.derived_with({"t": Table("t", {"a": [5, 5]})})
    own_index = derived.hash_index("t", "a")
    parent.invalidate_indexes("t")
    # the derivative's t is its own replacement, not shared: keep it
    assert derived.hash_index("t", "a") is own_index


def test_full_invalidation_propagates_through_derivation_chain():
    parent = Catalog()
    parent.add_table("t", {"a": [1, 1]})
    middle = parent.derived_with({})
    leaf = middle.derived_with({})
    stale = leaf.hash_index("t", "a")
    parent.table("t").column("a")[:] = [3, 4]
    parent.invalidate_indexes()
    rebuilt = leaf.hash_index("t", "a")
    assert rebuilt is not stale
    assert rebuilt.num_distinct == 2


# ----------------------------------------------------------------------
# Structures belong to table contents: renames share one cache
# ----------------------------------------------------------------------


@pytest.mark.parametrize("partitioned", [False, True])
def test_rename_shares_arrays_layout_and_indexes(partitioned):
    table = Table("t", {"a": np.arange(12) % 4, "b": np.arange(12)})
    if partitioned:
        table = PartitionedTable.from_table(table, "a", 3)
    alias = table.renamed("x")
    assert type(alias) is type(table)
    assert alias.name == "x" and table.name == "t"
    assert alias.fingerprint() != table.fingerprint()
    assert all(alias.column(c) is table.column(c) for c in table.columns)
    assert alias.original_rows(np.arange(12)).tolist() \
        == table.original_rows(np.arange(12)).tolist()
    base = Catalog()
    base.add(table)
    derived = base.derive([alias, table.renamed("y")])
    index = base.hash_index("t", "a")
    assert derived.hash_index("x", "a") is index
    assert derived.hash_index("y", "a") is index


def test_invalidation_rebuilds_one_index_for_base_and_rename():
    base = Catalog()
    base.add_table("t", {"a": [1, 2, 2]})
    derived = base.derive([base.table("t").renamed("alias")])
    stale = derived.hash_index("alias", "a")
    base.table("t").column("a")[0] = 2
    base.invalidate_indexes("t")
    rebuilt = derived.hash_index("alias", "a")
    assert rebuilt is not stale
    assert sorted(rebuilt.rows_for_key(2).tolist()) == [0, 1, 2]
    assert base.hash_index("t", "a") is rebuilt


def test_pickled_tables_ship_no_structures():
    table = Table("t", {"a": np.arange(6) % 2})
    table.structure("a", lambda t: t.build_hash_index("a"))
    copy = pickle.loads(pickle.dumps(table))
    assert copy.column("a").tolist() == table.column("a").tolist()
    assert copy.fingerprint() == table.fingerprint()
    builds = []

    def build(source):
        builds.append(source.name)
        return source.build_hash_index("a")

    index = copy.structure("a", build)
    assert copy.renamed("x").structure("a", build) is index
    assert builds == ["t"]  # rebuilt once after the trip, then shared


def test_racing_renames_agree_on_one_index():
    base = Catalog()
    base.add_table("t", {"a": np.arange(400_000) % 997})
    aliases = [base.table("t").renamed(f"x{i}") for i in range(8)]
    derived = base.derive(aliases)
    barrier = threading.Barrier(len(aliases), timeout=10)
    got = {}

    def probe(alias):
        barrier.wait()
        got[alias.name] = derived.hash_index(alias.name, "a")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=probe, args=(alias,))
                   for alias in aliases]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == len(aliases)
    assert {id(index) for index in got.values()} \
        == {id(base.hash_index("t", "a"))}
