"""Unit tests for Table and Catalog."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.storage import Catalog, PartitionedTable
from repro.storage.table import Table


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


def test_table_rejects_multidimensional_column():
    with pytest.raises(ValueError, match="1-D"):
        Table("t", {"a": np.zeros((2, 2), dtype=np.int64)})


@pytest.mark.parametrize("dtype, stored", [
    (np.int8, np.int64),
    (np.int32, np.int64),
    (np.uint16, np.int64),
    (np.float32, np.float32),
    (np.float64, np.float64),
])
def test_integer_columns_widen_to_int64_only(dtype, stored):
    table = Table("t", {"a": np.arange(4, dtype=dtype)})
    assert table.column("a").dtype == stored
    assert table.column("a").tolist() == [0, 1, 2, 3]


def test_uint64_above_int64_range_is_refused_not_wrapped():
    top = np.iinfo(np.int64).max
    fits = Table("t", {"a": np.array([0, top], dtype=np.uint64)})
    assert fits.column("a").dtype == np.int64
    assert fits.column("a").tolist() == [0, top]
    wide = np.array([1, 2**63, 2**64 - 1], dtype=np.uint64)
    with pytest.raises(ValueError, match="table 'big' column 'k'"):
        Table("big", {"a": np.arange(3), "k": wide})


def test_int64_columns_are_held_without_a_copy():
    values = np.arange(5, dtype=np.int64)
    assert Table("t", {"a": values}).column("a") is values


def test_table_repr_names_rows_and_columns():
    table = Table("t", {"a": [1, 2, 3], "b": [4, 5, 6]})
    assert repr(table) == "Table('t', rows=3, columns=['a', 'b'])"


def test_gather_defaults_to_every_column():
    table = Table("t", {"a": [10, 20, 30], "b": [1, 2, 3]})
    got = table.gather(np.array([1, 1, 0], dtype=np.int32))
    assert list(got) == ["a", "b"]
    assert got["a"].tolist() == [20, 20, 10]
    assert got["b"].tolist() == [2, 2, 1]


def test_plain_table_rows_are_base_rows():
    table = Table("t", {"a": np.arange(5)})
    rows = table.original_rows([3, 1, 4])
    assert rows.dtype == np.int64 and rows.tolist() == [3, 1, 4]
    assert table.base_row_ids() is None
    assert table.refreshed() is table
    assert table.refreshed(table.renamed("x")) is table


def test_shares_data_with_tracks_arrays_not_contents():
    table = Table("t", {"a": np.arange(4), "b": np.arange(4)})
    copy = Table("t", {name: values.copy()
                       for name, values in table.columns.items()})
    partial = Table("u", {"a": table.column("a"), "c": np.arange(4)})
    assert table.shares_data_with(table)
    assert table.shares_data_with(table.renamed("x"))
    assert table.renamed("x").shares_data_with(table)
    assert partial.shares_data_with(table)
    assert not copy.shares_data_with(table)
    assert copy.fingerprint() == table.fingerprint()


def test_build_hash_index_restricted_to_rows():
    table = Table("t", {"a": [5, 6, 5, 6, 5]})
    index = table.build_hash_index("a", rows=np.array([0, 3, 4]))
    assert sorted(index.rows_for_key(5).tolist()) == [0, 4]
    assert index.rows_for_key(6).tolist() == [3]
    full = table.build_hash_index("a")
    assert sorted(full.rows_for_key(6).tolist()) == [1, 3]


def test_structure_builds_once_per_key_and_invalidate_clears():
    table = Table("t", {"a": [1, 2, 3]})
    builds = []

    def build(source):
        builds.append(source.name)
        return object()

    first = table.structure(("domain", "a"), build)
    assert table.structure(("domain", "a"), build) is first
    assert table.structure(("domain", "b"), build) is not first
    assert builds == ["t", "t"]
    fingerprint = table.fingerprint()
    table.invalidate()
    assert table.structure(("domain", "a"), build) is not first
    assert builds == ["t", "t", "t"]
    assert table.fingerprint() == fingerprint  # same bytes, same digest


def test_invalidate_recomputes_fingerprint_after_in_place_mutation():
    table = Table("t", {"a": np.arange(4)})
    before = table.fingerprint()
    table.column("a")[0] = 7
    assert table.fingerprint() == before  # cached until invalidated
    table.invalidate()
    assert table.fingerprint() != before


def test_replacement_table_starts_its_own_structure_cache():
    catalog = Catalog()
    catalog.add_table("t", {"a": [1, 1, 2]})
    old = catalog.hash_index("t", "a")
    held = catalog.table("t")
    catalog.add_table("t", {"a": [2, 2, 2]})
    new = catalog.hash_index("t", "a")
    assert new is not old
    assert new.rows_for_key(2).tolist() == [0, 1, 2]
    assert held.structure("a", lambda t: t.build_hash_index("a")) is old


def test_catalog_version_counts_registrations_and_invalidations():
    catalog = Catalog()
    assert catalog.version == 0
    catalog.add_table("t", {"a": [1]})
    catalog.add_table("u", {"a": [2]})
    assert catalog.version == 2
    catalog.add_table("t", {"a": [3]})
    assert catalog.version == 3
    catalog.invalidate_indexes("t")
    assert catalog.version == 4
    catalog.invalidate_indexes()
    assert catalog.version == 5


def test_invalidating_an_unknown_table_keeps_other_structures():
    catalog = Catalog()
    catalog.add_table("t", {"a": [1, 2]})
    index = catalog.hash_index("t", "a")
    fingerprint = catalog.fingerprint()
    catalog.invalidate_indexes("missing")
    assert catalog.hash_index("t", "a") is index
    assert catalog.fingerprint() == fingerprint


def test_catalog_membership_and_names_follow_registration():
    catalog = Catalog()
    assert "t" not in catalog and catalog.table_names == []
    catalog.add_table("t", {"a": [1]})
    catalog.add(Table("u", {"b": [2]}))
    catalog.add_table("t", {"a": [3]})
    assert catalog.table_names == ["t", "u"]
    assert "u" in catalog and "a" not in catalog
    assert catalog.table("t").column("a").tolist() == [3]


def test_derive_holds_exactly_the_given_tables():
    base = Catalog()
    base.add_table("t", {"a": [1, 2]})
    base.add_table("u", {"a": [3]})
    alias = base.table("t").renamed("x")
    derived = base.derive([alias])
    assert derived.table_names == ["x"]
    assert derived.table("x") is alias
    assert "t" not in derived


def test_pickled_catalog_keeps_contents_and_drops_derivatives():
    base = Catalog()
    base.add_table("t", {"a": np.arange(6) % 3})
    derived = base.derive([base.table("t").renamed("x")])
    derived.hash_index("x", "a")
    copy = pickle.loads(pickle.dumps(base))
    assert copy.fingerprint() == base.fingerprint()
    assert copy.table_names == ["t"]
    assert len(copy._derived) == 0
    # the copy's in-place escape hatch reaches nothing of the original
    copy.table("t").column("a")[0] = 9
    copy.invalidate_indexes("t")
    assert base.table("t").column("a")[0] == 0
    assert derived.hash_index("x", "a").rows_for_key(0).tolist() == [0, 3]
