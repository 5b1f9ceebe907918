"""Content fingerprints on tables and catalogs (cache invalidation)."""

import numpy as np

from repro.storage import Catalog
from repro.storage.table import Table
from tests.helpers import make_small_catalog


def test_table_fingerprint_is_deterministic():
    a = Table("T", {"x": np.arange(10), "y": np.arange(10) % 3})
    b = Table("T", {"x": np.arange(10), "y": np.arange(10) % 3})
    assert a.fingerprint() == b.fingerprint()
    # cached: repeated calls return the identical string
    assert a.fingerprint() is a.fingerprint()


def test_table_fingerprint_sees_data_changes():
    base = Table("T", {"x": np.arange(10)})
    changed = Table("T", {"x": np.arange(10) + 1})
    assert base.fingerprint() != changed.fingerprint()


def test_table_fingerprint_sees_name_schema_and_order():
    data = {"x": np.arange(5), "y": np.arange(5)}
    assert Table("A", data).fingerprint() != Table("B", data).fingerprint()
    renamed = Table("A", {"x": np.arange(5), "z": np.arange(5)})
    assert Table("A", data).fingerprint() != renamed.fingerprint()
    # column *insertion* order is not part of the content
    swapped = Table("A", {"y": np.arange(5), "x": np.arange(5)})
    assert Table("A", data).fingerprint() == swapped.fingerprint()


def test_string_columns_fingerprint():
    a = Table("T", {"s": np.array(["x", "y"])})
    b = Table("T", {"s": np.array(["x", "z"])})
    assert a.fingerprint() != b.fingerprint()


def test_catalog_fingerprint_stable_between_mutations():
    catalog = make_small_catalog()
    first = catalog.fingerprint()
    assert catalog.fingerprint() == first
    assert make_small_catalog().fingerprint() == first


def test_catalog_fingerprint_changes_on_add_and_replace():
    catalog = make_small_catalog()
    before = catalog.fingerprint()
    version = catalog.version
    catalog.add_table("extra", {"k": np.arange(3)})
    assert catalog.version > version
    after_add = catalog.fingerprint()
    assert after_add != before
    # replacing a table with different contents changes it again
    catalog.add_table("extra", {"k": np.arange(4)})
    assert catalog.fingerprint() != after_add


def test_derived_with_shares_tables_and_indexes():
    catalog = Catalog()
    catalog.add_table("keep", {"k": np.arange(100) % 7})
    catalog.add_table("swap", {"k": np.arange(50) % 5})
    kept_index = catalog.hash_index("keep", "k")
    old_index = catalog.hash_index("swap", "k")

    derived = catalog.derived_with(
        {"swap": Table("swap", {"k": np.array([1, 2, 3])})}
    )
    # unchanged table and its built index are shared by reference
    assert derived.table("keep") is catalog.table("keep")
    assert derived.hash_index("keep", "k") is kept_index
    # replaced table gets a fresh lazily-built index
    assert len(derived.table("swap")) == 3
    assert derived.hash_index("swap", "k") is not old_index
    # the source catalog is untouched
    assert len(catalog.table("swap")) == 50
    assert catalog.hash_index("swap", "k") is old_index


def test_catalog_fingerprint_ignores_registration_order():
    a = Catalog()
    a.add_table("T1", {"x": np.arange(3)})
    a.add_table("T2", {"y": np.arange(4)})
    b = Catalog()
    b.add_table("T2", {"y": np.arange(4)})
    b.add_table("T1", {"x": np.arange(3)})
    assert a.fingerprint() == b.fingerprint()
