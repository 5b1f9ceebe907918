"""The execution-kernel layer: vectorized data plane, interpreted oracle.

Every data-plane primitive the engine executes per tuple batch — hash
probes, semi-join membership tests, bitvector probes, the fan-out of a
join step (one lineage pointer per step; every other column follows by
a gather through it), residual-predicate key comparison, and
base-row-id gather/remap — is routed through a *kernel object* so the
whole data plane can be swapped as a unit:

* :class:`VectorizedKernels` (the default) delegates to the NumPy
  implementations that live with their data structures
  (:meth:`~repro.storage.hashindex.HashIndex.lookup`, ``np.repeat``,
  :func:`~repro.storage.hashindex.fan_out`,
  :func:`~repro.core.cyclic.exact_equal`, ...) — array in, array out,
  no per-tuple interpreter work;
* :class:`InterpretedKernels` is the pure-Python tuple-at-a-time
  **oracle**: dict-based group lookups, list-append expansion, scalar
  comparisons.  It exists so the vectorized path has something
  bit-identical to be tested against — results, expansion order *and*
  every :class:`~repro.engine.executor.ExecutionCounters` field must
  match exactly, which is what keeps the cost model calibrated.

The boundary is the *data plane*: per-batch structure builds (hash
indexes, the partitioned layout, the factorized grouping tables) stay
shared — they are built once per execution, not per tuple, and both
paths must probe the same build-side structures for the counters to
agree.  The interpreted kernels derive their dict views *from* those
structures (:meth:`~repro.storage.hashindex.HashIndex.iter_groups`,
which answers the same for the dense and the sorted index layout —
the oracle never sees which one it was handed), then do every per-key
probe in the interpreter.

Selection is the ``execution`` knob (``"vectorized"`` /
``"interpreted"`` / ``"auto"``) threaded from
:class:`~repro.planner.Planner` / :class:`~repro.service.QuerySession`
down to :func:`~repro.engine.executor.execute`.  ``"auto"`` resolves to
the :data:`REPRO_EXECUTION` environment variable when set (CI forces
``interpreted`` there so the oracle cannot rot) and to ``"vectorized"``
otherwise; explicit choices are never overridden by the environment.
"""

from __future__ import annotations

import os
import weakref

import numpy as np

from ..storage.hashindex import fan_out as _np_fan_out

__all__ = [
    "EXECUTION_CHOICES",
    "INTERPRETED",
    "REPRO_EXECUTION",
    "VECTORIZED",
    "InterpretedKernels",
    "VectorizedKernels",
    "get_kernels",
    "resolve_execution",
]

#: accepted values of the ``execution`` knob
EXECUTION_CHOICES = ("vectorized", "interpreted", "auto")

#: environment variable that redirects ``execution="auto"`` (only
#: ``"auto"`` — explicit choices always win); CI sets it to
#: ``interpreted`` to run the whole suite on the oracle path
REPRO_EXECUTION = "REPRO_EXECUTION"

_exact_equal = None  # lazily bound to repro.core.cyclic.exact_equal


def resolve_execution(execution=None):
    """The concrete kernel set a request resolves to.

    ``None`` means ``"auto"``.  ``"auto"`` resolves to the
    :data:`REPRO_EXECUTION` environment variable when it is set (it must
    name a concrete path), else ``"vectorized"``.  Explicit
    ``"vectorized"`` / ``"interpreted"`` resolve to themselves — the
    environment never overrides an explicit choice, so equivalence
    tests can pin both paths no matter how CI is configured.  The
    resolved string is what plan fingerprints, :class:`PlanSpec` s and
    the service plan-cache key carry.
    """
    if execution is None:
        execution = "auto"
    if execution not in EXECUTION_CHOICES:
        raise ValueError(
            f"execution must be one of {EXECUTION_CHOICES}, got {execution!r}"
        )
    if execution != "auto":
        return execution
    forced = os.environ.get(REPRO_EXECUTION)
    if forced:
        if forced not in ("vectorized", "interpreted"):
            raise ValueError(
                f'{REPRO_EXECUTION} must be "vectorized" or "interpreted", '
                f"got {forced!r}"
            )
        return forced
    return "vectorized"


def get_kernels(execution=None):
    """The kernel singleton for an ``execution`` request (resolves
    ``"auto"`` via :func:`resolve_execution`)."""
    return (
        VECTORIZED if resolve_execution(execution) == "vectorized"
        else INTERPRETED
    )


# ----------------------------------------------------------------------
# Vectorized kernels (the default data plane)
# ----------------------------------------------------------------------


def _find_positions(sorted_unique, values):
    """Position of each value in an ascending unique array, ``-1`` for
    misses.

    Comparison happens in the searchsorted common dtype — the same
    hash-index probe semantics as :meth:`VectorizedKernels.lookup` (a
    :class:`~repro.storage.hashindex.HashIndex` over ``sorted_unique``
    answers exactly these positions): a lossy float64 upcast collision
    resolves to the leftmost colliding position (``side="left"``), NaN
    probes and NaN array entries never match.
    """
    out = np.full(len(values), -1, dtype=np.int64)
    if not len(sorted_unique) or not len(values):
        return out
    pos = np.searchsorted(sorted_unique, values)
    clipped = np.minimum(pos, len(sorted_unique) - 1)
    hit = sorted_unique[clipped] == values
    out[hit] = clipped[hit]
    return out


class VectorizedKernels:
    """NumPy data plane: delegates to the storage layer's batch APIs."""

    name = "vectorized"

    def lookup(self, index, keys):
        """Probe a key batch; a result with ``counts`` / ``matched_mask``
        / ``matching_rows()`` grouped per probe key in probe order, and
        ``fan_out()`` — those matches with their probe positions."""
        return index.lookup(keys)

    def contains(self, index, keys):
        """Semi-join membership mask for a probe batch."""
        return index.contains(keys)

    def bitvector_contains(self, bitvector, keys):
        """Bitvector probe mask for a key batch."""
        return bitvector.might_contain(keys)

    def repeat_rows(self, values, counts):
        """``values`` repeated elementwise ``counts`` times (over
        ``arange(len(counts))``, the lineage half of :meth:`fan_out`)."""
        return np.repeat(values, counts)

    def fan_out(self, starts, counts):
        """``(lineage, positions)`` of the ranges ``arange(s, s + c)``:
        the concatenated ranges, and per output position the range it
        came from (one join step's fan-out; see
        :func:`~repro.storage.hashindex.fan_out`)."""
        return _np_fan_out(starts, counts)

    def find_positions_exact(self, sorted_unique, values):
        """Position of each value under exact numeric-key semantics.

        The positional analogue of :meth:`equal_mask`
        (:func:`~repro.core.cyclic.exact_equal`): integer/float pairs
        compare in integer space where the float is finite, exactly
        integral and int64-convertible, so huge keys at or beyond
        ``2**53`` never spuriously match after a lossy upcast; NaN
        matches nothing.
        """
        sorted_unique = np.asarray(sorted_unique)
        values = np.asarray(values)
        if sorted_unique.dtype == bool:
            sorted_unique = sorted_unique.astype(np.int64)
        if values.dtype == bool:
            values = values.astype(np.int64)
        out = np.full(len(values), -1, dtype=np.int64)
        if not len(sorted_unique) or not len(values):
            return out
        a_int = np.issubdtype(sorted_unique.dtype, np.integer)
        b_int = np.issubdtype(values.dtype, np.integer)
        if a_int == b_int:
            # same numeric family: the searchsorted comparison is
            # already exact (float/float NaN probes miss the == check)
            return _find_positions(sorted_unique, values)
        if b_int:
            # int probes into a float array: an int can only equal its
            # exact float64 representation, which must round-trip back
            as_float = sorted_unique.astype(np.float64)
            pos = _find_positions(as_float, values.astype(np.float64))
            hit = np.flatnonzero(pos >= 0)
            if len(hit):
                found = as_float[pos[hit]]
                in_range = (
                    np.isfinite(found)
                    & (found >= float(-(2 ** 63)))
                    & (found < float(2 ** 63))
                )
                exact = np.zeros(len(hit), dtype=bool)
                idx = np.flatnonzero(in_range)
                if len(idx):
                    exact[idx] = (
                        found[idx].astype(np.int64) == values[hit][idx]
                    )
                out[hit[exact]] = pos[hit[exact]]
            return out
        # float probes into an int array: only finite, exactly integral,
        # int64-convertible probes can match, compared in integer space
        # (mirrors exact_equal's convertibility test bit for bit)
        convertible = np.flatnonzero(
            np.isfinite(values)
            & (values >= float(-(2 ** 63)))
            & (values < float(2 ** 63))
        )
        if len(convertible):
            as_int = values[convertible].astype(np.int64)
            integral = as_int.astype(values.dtype) == values[convertible]
            idx = convertible[integral]
            pos = _find_positions(
                sorted_unique.astype(np.int64), as_int[integral]
            )
            keep = pos >= 0
            out[idx[keep]] = pos[keep]
        return out

    def original_rows(self, table, rows):
        """Physical row ids mapped to base-table ids (identity for
        ordinary tables)."""
        return table.original_rows(rows)

    def gather(self, table, attr, rows):
        """Column values for *base* row ids (layout-independent)."""
        return table.gather(np.asarray(rows, dtype=np.int64),
                            columns=[attr])[attr]

    def equal_mask(self, values_a, values_b):
        """Elementwise exact-key equality (residual predicates)."""
        global _exact_equal
        if _exact_equal is None:
            from ..core.cyclic import exact_equal

            _exact_equal = exact_equal
        return _exact_equal(values_a, values_b)

    def __repr__(self):
        return "VectorizedKernels()"


# ----------------------------------------------------------------------
# Interpreted kernels (the tuple-at-a-time oracle)
# ----------------------------------------------------------------------


class _InterpretedLookup:
    """Probe outcome of the interpreted path.

    Same surface as :class:`~repro.storage.hashindex.LookupResult`:
    ``counts`` aligned with the probe batch, ``matched_mask``,
    ``total_matches()``, ``matching_rows()`` (flattened matches grouped
    per probe key, in probe order) and ``fan_out()`` (those matches
    with the probe position each one matched).
    """

    __slots__ = ("counts", "_groups")

    def __init__(self, counts, groups):
        self.counts = counts
        self._groups = groups

    def __len__(self):
        return len(self.counts)

    @property
    def matched_mask(self):
        return self.counts > 0

    def total_matches(self):
        return int(self.counts.sum())

    def matching_rows(self):
        return self.fan_out()[1]

    def fan_out(self):
        lineage = []
        matches = []
        for position, rows in enumerate(self._groups):
            lineage.extend([position] * len(rows))
            matches.extend(rows)
        return (np.asarray(lineage, dtype=np.int64),
                np.asarray(matches, dtype=np.int64))


class InterpretedKernels:
    """Pure-Python tuple-at-a-time data plane — the correctness oracle.

    Probes run against *dict views* of the engine's hash indexes: each
    view maps a key (cast to the probe batch's comparison dtype, the
    same common type ``np.searchsorted`` would compare in) to the list
    of matching build-side row ids in index order, built once per
    (index, dtype) from :meth:`HashIndex.iter_groups` and cached
    weakly.  Building the view walks an existing vectorized structure —
    that is the shared build side both paths must agree on — but every
    per-key probe, every repeat, every comparison after that is plain
    Python, which is what makes this path the oracle: it computes the
    same answers with none of the vectorized machinery under test.

    Exactness notes (mirroring the vectorized semantics bit for bit):

    * keys are compared in ``np.result_type(index dtype, probe dtype)``
      — two int64 columns compare exactly (huge ints never collide); a
      float on either side compares in float64, exactly like a
      ``searchsorted`` upcast;
    * when a float64 cast collides two build keys, the view keeps the
      *first* group in ascending key order — ``searchsorted``'s
      ``side="left"`` position;
    * NaN never matches (build keys holding NaN are not inserted, NaN
      probes miss unconditionally).
    """

    name = "interpreted"

    def __init__(self):
        #: index -> {dtype tag -> {key: [row ids]}}, weak so views die
        #: with their index
        self._group_views = weakref.WeakKeyDictionary()
        #: table -> {attr -> base-row-ordered value list}
        self._column_views = weakref.WeakKeyDictionary()
        #: table -> base-row-id list (None entries never cached)
        self._base_views = weakref.WeakKeyDictionary()

    # -- dict views ------------------------------------------------------

    def _view(self, index, common):
        views = self._group_views.get(index)
        if views is None:
            views = {}
            self._group_views[index] = views
        tag = np.dtype(common).str
        view = views.get(tag)
        if view is None:
            view = {}
            cast = np.dtype(common).type
            for key, rows in index.iter_groups():
                key = cast(key).item()
                if key != key:  # NaN build keys can never match
                    continue
                # first group wins on a lossy-cast collision, matching
                # searchsorted's side="left" position
                view.setdefault(key, rows)
            views[tag] = view
        return view

    def _probe_view(self, index, keys):
        keys = np.asarray(keys)
        common = np.result_type(index.key_dtype, keys.dtype)
        view = self._view(index, common)
        return view, keys.astype(common, copy=False).tolist()

    def lookup(self, index, keys):
        view, probe_keys = self._probe_view(index, keys)
        counts = np.zeros(len(probe_keys), dtype=np.int64)
        groups = []
        for position, key in enumerate(probe_keys):
            rows = view.get(key) if key == key else None
            if rows:
                counts[position] = len(rows)
                groups.append(rows)
            else:
                groups.append(())
        return _InterpretedLookup(counts, groups)

    def contains(self, index, keys):
        view, probe_keys = self._probe_view(index, keys)
        return np.asarray(
            [key == key and key in view for key in probe_keys], dtype=bool
        )

    def bitvector_contains(self, bitvector, keys):
        keys = np.asarray(keys)
        return np.asarray(
            [bitvector.contains_one(key) for key in keys.tolist()],
            dtype=bool,
        )

    # -- expansion -------------------------------------------------------

    def repeat_rows(self, values, counts):
        values = np.asarray(values)
        out = []
        for value, count in zip(values.tolist(),
                                np.asarray(counts).tolist()):
            out.extend([value] * count)
        return np.asarray(out, dtype=values.dtype)

    def fan_out(self, starts, counts):
        lineage = []
        positions = []
        for position, (start, count) in enumerate(zip(
                np.asarray(starts).tolist(), np.asarray(counts).tolist())):
            lineage.extend([position] * count)
            positions.extend(range(start, start + count))
        return (np.asarray(lineage, dtype=np.int64),
                np.asarray(positions, dtype=np.int64))

    def find_positions_exact(self, sorted_unique, values):
        # Python numeric equality is exact across int/float/bool (no
        # lossy upcast, equal numbers hash equal) and NaN-propagating —
        # the same semantics exact_equal implements vectorized.
        table = {}
        for position, value in enumerate(np.asarray(sorted_unique).tolist()):
            if value != value:
                continue
            table.setdefault(value, position)
        out = []
        for value in np.asarray(values).tolist():
            out.append(-1 if value != value else table.get(value, -1))
        return np.asarray(out, dtype=np.int64)

    # -- base-row-id remapping and value gather --------------------------

    def original_rows(self, table, rows):
        rows = np.asarray(rows, dtype=np.int64)
        if table.base_row_ids() is None:
            return rows.copy()
        base = self._base_views.get(table)
        if base is None:
            base = table.base_row_ids().tolist()
            self._base_views[table] = base
        return np.asarray([base[row] for row in rows.tolist()],
                          dtype=np.int64)

    def gather(self, table, attr, rows):
        columns = self._column_views.get(table)
        if columns is None:
            columns = {}
            self._column_views[table] = columns
        values = columns.get(attr)
        if values is None:
            # one-time structure build (base-row-ordered value list);
            # the per-row picks below are the interpreted data plane
            values = table.gather(
                np.arange(len(table), dtype=np.int64), columns=[attr]
            )[attr].tolist()
            columns[attr] = values
        rows = np.asarray(rows, dtype=np.int64)
        return np.asarray([values[row] for row in rows.tolist()],
                          dtype=table.column(attr).dtype)

    # -- residual comparison ---------------------------------------------

    def equal_mask(self, values_a, values_b):
        # Python scalar comparison is exact across int/float (no lossy
        # upcast) and NaN-propagating (nan == anything is False) — the
        # same semantics exact_equal implements vectorized.
        pairs = zip(np.asarray(values_a).tolist(),
                    np.asarray(values_b).tolist())
        return np.asarray([a == b for a, b in pairs], dtype=bool)

    def __repr__(self):
        return "InterpretedKernels()"


#: the process-wide kernel singletons ``get_kernels`` hands out
VECTORIZED = VectorizedKernels()
INTERPRETED = InterpretedKernels()
