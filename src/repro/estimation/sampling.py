"""Correlated sampling estimator (join synopses, Section 3.2 / Figure 4).

Adapting Acharya et al.'s join synopses: sample tuples uniformly from
the probing relation and store, per sampled tuple, its match count in
the build relation plus a uniform sample of the matching build rows.
The synopsis answers match-probability and fanout queries of the form
``sigma_{R.a = x and S.c = y}(R |><|_B S)`` with appropriate scaling,
capturing cross-relation correlations the naive estimator misses.
"""

from __future__ import annotations

import numpy as np

from ..core.stats import EdgeStats
from ..storage.hashindex import HashIndex

__all__ = ["CorrelatedSample", "true_join_stats"]


class CorrelatedSample:
    """A join synopsis between a probe table and a build table.

    Parameters
    ----------
    probe_table, build_table:
        :class:`repro.storage.table.Table` instances.
    probe_attr, build_attr:
        The equi-join columns.
    sample_fraction:
        Fraction of probe tuples sampled uniformly at random.
    max_matches_per_tuple:
        Cap on stored matches per sampled tuple; counts beyond the cap
        are retained exactly, only the stored rows are subsampled, and
        estimates are scaled accordingly.
    """

    def __init__(
        self,
        probe_table,
        build_table,
        probe_attr,
        build_attr,
        sample_fraction=0.01,
        max_matches_per_tuple=64,
        seed=0,
    ):
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {sample_fraction}"
            )
        self.probe_table = probe_table
        self.build_table = build_table
        self.probe_attr = probe_attr
        self.build_attr = build_attr
        rng = np.random.default_rng(seed)
        n = len(probe_table)
        sample_size = max(1, int(round(sample_fraction * n)))
        self.sample_rows = rng.choice(n, size=min(sample_size, n), replace=False)
        index = HashIndex(build_table.column(build_attr))
        keys = probe_table.column(probe_attr)[self.sample_rows]
        lookup = index.lookup(keys)
        self.match_counts = lookup.counts
        flat_matches = lookup.matching_rows()
        # Per-tuple slices into flat_matches; subsample over-long ones.
        offsets = np.concatenate(([0], np.cumsum(self.match_counts)))
        kept_rows = []
        kept_counts = np.zeros(len(self.sample_rows), dtype=np.int64)
        for i in range(len(self.sample_rows)):
            matches = flat_matches[offsets[i]:offsets[i + 1]]
            if len(matches) > max_matches_per_tuple:
                matches = rng.choice(
                    matches, size=max_matches_per_tuple, replace=False
                )
            kept_rows.append(matches)
            kept_counts[i] = len(matches)
        self.kept_counts = kept_counts
        self.kept_rows = (
            np.concatenate(kept_rows) if kept_rows else np.empty(0, np.int64)
        )
        self.kept_offsets = np.concatenate(([0], np.cumsum(kept_counts)))

    @property
    def sample_size(self):
        return len(self.sample_rows)

    def _probe_mask(self, probe_predicate):
        mask = np.ones(len(self.sample_rows), dtype=bool)
        for column, value in (probe_predicate or {}).items():
            mask &= self.probe_table.column(column)[self.sample_rows] == value
        return mask

    def _surviving_counts(self, build_predicate):
        """Estimated matches per sampled tuple after the build predicate."""
        if not build_predicate:
            return self.match_counts.astype(np.float64)
        pass_mask = np.ones(len(self.kept_rows), dtype=bool)
        for column, value in build_predicate.items():
            pass_mask &= self.build_table.column(column)[self.kept_rows] == value
        passing_per_tuple = np.add.reduceat(
            np.concatenate((pass_mask.astype(np.float64), [0.0])),
            self.kept_offsets[:-1],
        ) if len(self.kept_rows) else np.zeros(len(self.sample_rows))
        # reduceat quirk: empty slices copy the element at the offset;
        # zero them out explicitly.
        passing_per_tuple = np.where(self.kept_counts > 0, passing_per_tuple, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(
                self.kept_counts > 0,
                self.match_counts / np.maximum(self.kept_counts, 1),
                0.0,
            )
        return passing_per_tuple * scale

    def estimate(self, probe_predicate=None, build_predicate=None):
        """Estimate :class:`EdgeStats` for the predicated join."""
        probe_mask = self._probe_mask(probe_predicate)
        if not probe_mask.any():
            return EdgeStats(m=0.0, fo=1.0)
        surviving = self._surviving_counts(build_predicate)[probe_mask]
        matched = surviving > 0
        m = float(matched.mean())
        if matched.any():
            fo = float(surviving[matched].mean())
        else:
            fo = 1.0
        return EdgeStats(m=min(m, 1.0), fo=max(fo, 0.0))


def true_join_stats(
    probe_table,
    build_table,
    probe_attr,
    build_attr,
    probe_predicate=None,
    build_predicate=None,
):
    """Exact ``(m, fo)`` of a predicated join (ground truth for Figure 4)."""
    probe_mask = np.ones(len(probe_table), dtype=bool)
    for column, value in (probe_predicate or {}).items():
        probe_mask &= probe_table.column(column) == value
    build_mask = np.ones(len(build_table), dtype=bool)
    for column, value in (build_predicate or {}).items():
        build_mask &= build_table.column(column) == value
    probe_keys = probe_table.column(probe_attr)[probe_mask]
    if len(probe_keys) == 0:
        return EdgeStats(m=0.0, fo=1.0)
    build_rows = np.nonzero(build_mask)[0]
    index = HashIndex(build_table.column(build_attr), rows=build_rows)
    lookup = index.lookup(probe_keys)
    matched = lookup.matched_mask
    m = float(matched.mean())
    if matched.any():
        fo = float(lookup.counts[matched].mean())
    else:
        fo = 1.0
    return EdgeStats(m=m, fo=fo)
