"""In-memory tables and the catalog.

A :class:`Table` is a named collection of equal-length numpy columns.
Row identity is positional (the implicit ID column of Section 4.2); the
engine passes row-index arrays around instead of copying payloads.  A
table owns the structures built from its contents — per-attribute hash
indexes, the wcoj operator's domains and chains — and shares them with
every zero-copy rename (:meth:`Table.renamed`), so all catalogs, plans
and self-join aliases over one table probe one index per attribute.
The :class:`Catalog` maps names to tables.
"""

from __future__ import annotations

import hashlib
import weakref

import numpy as np

from .hashindex import HashIndex

__all__ = ["Table", "Catalog"]


class Table:
    """A named, immutable-by-convention columnar table."""

    def __init__(self, name, columns):
        if not columns:
            raise ValueError(f"table {name!r} must have at least one column")
        self.name = name
        self.columns = {}
        n = None
        for col_name, values in columns.items():
            arr = np.asarray(values)
            if np.issubdtype(arr.dtype, np.integer):
                arr = arr.astype(np.int64, copy=False)
            if arr.ndim != 1:
                raise ValueError(f"column {col_name!r} must be 1-D")
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise ValueError(
                    f"column {col_name!r} has length {len(arr)}, expected {n}"
                )
            self.columns[col_name] = arr
        self.num_rows = n
        self._fingerprint = None
        #: structures built from these contents, shared by every rename
        #: (see :meth:`structure`)
        self._structures = {}

    def __len__(self):
        return self.num_rows

    def _layout_descriptor(self):
        """Physical-layout tag mixed into the fingerprint.

        The base table has no layout beyond its row order (returns
        ``b""``); :class:`~repro.storage.partition.PartitionedTable`
        overrides this so two partitionings of identical content
        fingerprint differently.
        """
        return b""

    def fingerprint(self):
        """A stable content digest of the table (hex string, cached).

        Covers the table name, schema (column names, dtypes) and the
        raw column bytes, so two tables with identical data fingerprint
        identically and any data change is detected.  Tables are
        immutable by convention, so the digest is computed once and
        cached; it anchors the statistics and plan caches (a plan or
        stats entry is only reusable while every input table's
        fingerprint is unchanged).
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)

            def feed(payload):
                # length-prefix every field so adjacent fields can never
                # be re-split into a colliding stream
                digest.update(str(len(payload)).encode() + b":")
                digest.update(payload)

            feed(self.name.encode())
            feed(self._layout_descriptor())
            feed(str(self.num_rows).encode())
            for col_name in sorted(self.columns):
                values = self.columns[col_name]
                feed(col_name.encode())
                feed(str(values.dtype).encode())
                if values.dtype.hasobject:
                    feed(repr(values.tolist()).encode())
                else:
                    feed(np.ascontiguousarray(values).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def invalidate(self):
        """Drop the cached content digest and every derived structure
        (after an in-place mutation).

        Called by :meth:`Catalog.invalidate_indexes`, the acknowledged
        escape hatch for in-place column mutation, so every
        fingerprint-keyed cache (stats, plans, re-clustered relations)
        misses instead of serving results for the old bytes.  The
        structure cache is cleared in place, so every rename sharing it
        rebuilds — once, into the one cache they share.
        """
        self._fingerprint = None
        self._structures.clear()

    def __getstate__(self):
        """Pickle without the structures: the copy rebuilds what it
        probes from the contents that do travel (renames pickled
        together each start their own cache)."""
        state = self.__dict__.copy()
        del state["_structures"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state, _structures={})

    def renamed(self, name):
        """A zero-copy alias of this table under another name.

        Shares the column arrays, any physical layout and the cache of
        derived structures, so a query alias — an unselected relation,
        a self-join — probes the one index built on these contents.
        Only the name, and with it the fingerprint, differ.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, name=name, _fingerprint=None)
        return clone

    def structure(self, key, build):
        """Return (building with ``build(self)`` if necessary) a
        structure derived from this table's contents.

        A hash index's ``key`` is its attribute name; other structures
        (the wcoj operator's value domains and chain indexes) use tuple
        keys.  The cache belongs to the contents: renames share it, a
        replacement table starts its own, and :meth:`invalidate`
        clears it.  Threads racing on a miss may each build, but the
        first to store wins and every caller gets its structure.
        """
        structure = self._structures.get(key)
        if structure is None:
            structure = self._structures.setdefault(key, build(self))
        return structure

    def shares_data_with(self, other):
        """True when mutating ``other``'s arrays in place corrupts us.

        Identity, shared column arrays (renames), or — for
        :class:`~repro.storage.partition.PartitionedTable`, which
        overrides this — a re-clustered *copy* of ``other``'s data.
        """
        if self is other:
            return True
        other_arrays = {id(values) for values in other.columns.values()}
        return any(id(values) in other_arrays
                   for values in self.columns.values())

    def refreshed(self, mutated=None):
        """A replacement for this table after ``mutated``'s arrays
        changed in place.

        Plain tables hold the mutated arrays themselves, so they *are*
        the refreshed version; a
        :class:`~repro.storage.partition.PartitionedTable` re-clusters
        — from its own columns when those are the mutated arrays, or
        from its source when its columns are stale copies of it.
        """
        return self

    def __repr__(self):
        return f"Table({self.name!r}, rows={self.num_rows}, columns={list(self.columns)})"

    def column(self, name):
        """Return the raw numpy array for a column."""
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"table {self.name!r} has no column {name!r}; "
                f"available: {list(self.columns)}"
            ) from None

    @property
    def column_names(self):
        return list(self.columns)

    def distinct_count(self, column):
        """Number of distinct values in ``column`` (V(A, R) in the paper)."""
        return int(len(np.unique(self.column(column))))

    def gather(self, rows, columns=None):
        """Return {column: values[rows]} for the given row indices."""
        rows = np.asarray(rows, dtype=np.int64)
        names = columns if columns is not None else self.column_names
        return {name: self.columns[name][rows] for name in names}

    def original_rows(self, rows):
        """Map engine row ids back to base-table row ids.

        The identity for an unpartitioned table;
        :class:`~repro.storage.partition.PartitionedTable` (which
        re-clusters rows into contiguous shards) overrides this with
        its physical-to-base permutation.
        """
        return np.asarray(rows, dtype=np.int64)

    def base_row_ids(self):
        """The physical-to-base row permutation, or ``None``.

        ``None`` means :meth:`original_rows` is the identity (ordinary
        tables).  :class:`~repro.storage.partition.PartitionedTable`
        returns its re-clustering permutation; the interpreted
        execution kernels walk it row by row instead of fancy-indexing.
        """
        return None

    def build_hash_index(self, attribute, rows=None):
        """A hash index on ``attribute`` (optionally row-restricted).

        Row ids are physical positions, so over a
        :class:`~repro.storage.partition.PartitionedTable` the index
        reports re-clustered rows (``original_rows`` maps them back).
        ``rows`` builds from scratch; a caller that already holds the
        full index (the semi-join reduction does, through
        :meth:`Catalog.hash_index`) derives the restricted one with
        :meth:`HashIndex.restricted` instead.
        """
        return HashIndex(self.column(attribute), rows=rows)


class Catalog:
    """A registry of tables by name.

    Hash indexes are built lazily on first use, mirroring the build
    phase of a hash join, and cached on the table they were built from
    (:meth:`Table.structure`), not here: every catalog holding a table
    or a rename of it — derived catalogs, push-down catalogs, aliases
    of one base table — reads one index per attribute.  The semi-join
    reduction derives row-restricted indexes from the cached full one.
    """

    def __init__(self):
        self._tables = {}
        #: bumped on every mutation; guards the cached fingerprint
        self._version = 0
        self._fingerprint = None
        self._fingerprint_version = -1
        #: live derivative catalogs (see :meth:`derive`); index
        #: invalidation propagates to them for the tables they share
        self._derived = weakref.WeakSet()
        #: strong ref to the catalog this one was derived from — keeps
        #: every intermediate of a derivation chain alive while a leaf
        #: is, so parent invalidation can always walk down to us
        self._parent = None
        #: tables awaiting a lazy :meth:`Table.refreshed` after an
        #: acknowledged in-place mutation ({name: [mutated tables]});
        #: flushed on first access, so catalogs that are never touched
        #: again (e.g. evicted plan caches) pay nothing
        self._pending_refresh = {}

    def __getstate__(self):
        """Pickle without the live-derivative bookkeeping.

        The :class:`weakref.WeakSet` of derived catalogs (and the
        deferred-refresh queue) only matter for in-process mutation
        propagation; a pickled copy (e.g. one shipped to a planning
        worker process) starts with no derivatives.  Tables and the
        content fingerprint travel as-is — their derived structures
        are rebuilt on first use — so the copy is content-identical:
        ``fingerprint()`` returns the same hex string on both sides,
        which is what lets workers address catalogs by content.
        """
        self._flush_refresh()  # the copy must see current data
        state = self.__dict__.copy()
        state["_derived"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._derived = weakref.WeakSet()

    def add(self, table):
        """Register a table (replacing any previous table of that name).

        A replacement is a new :class:`Table` with its own, empty
        structure cache; catalogs still holding the old table keep the
        old table's structures, consistent with it.
        """
        if not isinstance(table, Table):
            raise TypeError(f"expected Table, got {type(table).__name__}")
        self._tables[table.name] = table
        self._pending_refresh.pop(table.name, None)
        self._version += 1
        return table

    def add_table(self, name, columns):
        """Convenience: build and register a Table from raw columns."""
        return self.add(Table(name, columns))

    def _flush_refresh(self):
        """Apply deferred post-mutation refreshes (see
        :meth:`invalidate_indexes`)."""
        if not self._pending_refresh:
            return
        pending, self._pending_refresh = self._pending_refresh, {}
        for name, triggers in pending.items():
            table = self._tables[name]
            for trigger in triggers:
                table = table.refreshed(trigger)
            self._tables[name] = table

    def table(self, name):
        self._flush_refresh()
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(
                f"no table named {name!r}; available: {list(self._tables)}"
            ) from None

    def __contains__(self, name):
        return name in self._tables

    @property
    def table_names(self):
        return list(self._tables)

    @property
    def version(self):
        """Monotone counter bumped whenever a table is (re)registered."""
        return self._version

    def fingerprint(self):
        """A stable digest of the whole catalog's contents (hex string).

        Combines every table's :meth:`Table.fingerprint`.  Cached
        against the catalog :attr:`version`, so repeated calls between
        mutations are O(#tables) dictionary work, not O(data); the
        per-table content digests themselves are computed at most once
        per table.  Process pools key on this value (a worker holds a
        replica of the whole catalog); the statistics, plan and
        re-clustered relation caches key on the tables they read instead
        (:meth:`table_fingerprints`).
        """
        self._flush_refresh()
        if self._fingerprint_version != self._version:
            digest = hashlib.blake2b(digest_size=16)
            for name, table_digest in sorted(
                    self.table_fingerprints().items()):
                payload = name.encode()
                digest.update(str(len(payload)).encode() + b":")
                digest.update(payload)
                # table fingerprints are fixed-width hex: no prefix needed
                digest.update(table_digest.encode())
            self._fingerprint = digest.hexdigest()
            self._fingerprint_version = self._version
        return self._fingerprint

    def table_fingerprints(self):
        """``{name: Table.fingerprint()}`` of every table (each digest
        cached on its table): what caches keyed by the tables they read
        compare their keys against when :attr:`version` moves."""
        self._flush_refresh()
        return {name: table.fingerprint()
                for name, table in sorted(self._tables.items())}

    def hash_index(self, table_name, attribute):
        """Return (building if necessary) the hash index on an attribute.

        One :class:`HashIndex` per ``(table, attribute)``, partitioned
        tables included (see :meth:`Table.build_hash_index`).
        """
        return self.table_structure(
            table_name, attribute,
            lambda table: table.build_hash_index(attribute),
        )

    def table_structure(self, table_name, key, build):
        """Return (building with ``build(table)`` if necessary) a
        structure derived from the contents of the table named
        ``table_name`` — :meth:`Table.structure` on it, so the cache is
        the table's: shared by its renames and by every catalog holding
        it, dropped by :meth:`invalidate_indexes`, and fresh for a
        table :meth:`add` replaced.
        """
        return self.table(table_name).structure(key, build)

    def derive(self, tables):
        """A catalog holding exactly ``tables`` (an iterable of
        :class:`Table`), registered with this one.

        The one derivation: selection push-down builds its per-query
        catalog of renames and filtered copies with it, and
        :meth:`derived_with` its snapshots.  Registration makes
        :meth:`invalidate_indexes` here reach the derivative for every
        table sharing data with the mutated one, so an in-place change
        acknowledged on the parent can never leave a derived catalog
        serving stale structures or fingerprints over shared arrays.
        """
        derived = Catalog()
        for table in tables:
            derived.add(table)
        derived._parent = self
        self._derived.add(derived)
        return derived

    def derived_with(self, replacements):
        """A derivative catalog with some tables replaced.

        Shares this catalog's tables — and with them their
        already-built structures (tables are immutable by convention)
        — except for the given ``{name: Table}`` replacements, whose
        structures are built lazily.  Used by prepared statements to
        re-bind selection constants without re-deriving the unchanged
        relations, and by hash-partitioning.  See :meth:`derive`.
        """
        self._flush_refresh()
        return self.derive({**self._tables, **replacements}.values())

    def invalidate_indexes(self, table_name=None):
        """Drop cached structures (all tables', or one table's).

        This is the escape hatch for callers that mutate a table's
        arrays in place (tables are only immutable *by convention*).
        It clears the affected tables' structure caches — shared with
        their renames — and content fingerprints, and bumps the catalog
        version, so every fingerprint-keyed cache (statistics, plans,
        re-clustered relations) misses instead of serving
        results derived from the old bytes.  The drop propagates to
        catalogs derived from this one — but only for tables that
        still share data with us; a derivative whose table was
        replaced keeps its own consistent structures.
        """
        if table_name is None:
            affected = list(self._tables)
        else:
            affected = [table_name] if table_name in self._tables else []
        origins = []
        for name in affected:
            table = self._tables[name]
            table.invalidate()
            # a directly-held partitioned table's shard layout is now
            # inconsistent with its (own, mutated) key column; refresh
            # re-clusters it lazily on next access
            self._pending_refresh.setdefault(name, []).append(table)
            origins.append(table)
        self._version += 1
        for derived in tuple(self._derived):
            derived._invalidate_shared(self._tables, table_name, origins)

    def _invalidate_shared(self, parent_tables, table_name, origins):
        """Drop structures of tables sharing data with a mutated parent.

        ``parent_tables`` establishes *connectivity* (we are stale if
        we share data with the parent's affected table, directly or
        through a copy), but the refresh trigger recorded is always one
        of ``origins`` — the tables whose arrays were actually mutated.
        Deep derivations would otherwise receive a stale intermediate
        copy as the "mutated" table and re-cluster from the wrong side.
        Stale tables are scheduled for a lazy :meth:`Table.refreshed`
        on this catalog's next access — so a held plan pinning this
        catalog reads current data on its next run, while catalogs
        never touched again pay nothing.
        """
        if table_name is None:
            mutated = list(parent_tables.values())
        elif table_name in parent_tables:
            mutated = [parent_tables[table_name]]
        else:
            mutated = []
        stale = set()
        for name, table in self._tables.items():
            if any(table.shares_data_with(parent) for parent in mutated):
                stale.add(name)
        if not stale:
            return
        for name in stale:
            table = self._tables[name]
            # renames and copies cache their own digest of the shared
            # (now mutated) bytes; a partitioned copy its own indexes
            table.invalidate()
            # the origin whose arrays this table holds directly, if
            # any — Table-level check, so a partitioned *copy* of an
            # origin correctly refreshes from its source instead
            trigger = next(
                (origin for origin in origins
                 if Table.shares_data_with(table, origin)),
                origins[0] if origins else None,
            )
            self._pending_refresh.setdefault(name, []).append(trigger)
        # bump our version so the cached catalog digest recomputes
        self._version += 1
        for derived in tuple(self._derived):
            for name in stale:
                derived._invalidate_shared(self._tables, name, origins)
