"""A small thread-safe LRU cache with hit/miss accounting.

The one cache type of the package: the statistics store, the plan
cache, the partition layouts and a worker's rehydrated plans are each
an :class:`LRUCache`.  Keys must be hashable; capacity ``None`` means
unbounded.  A cache whose entries read table contents keys each entry
by the fingerprints of the tables it read, first
(:meth:`LRUCache.reclaim`).

Every operation (including the stats counters) runs under an internal
re-entrant lock, so one cache instance can back several concurrently
planning :class:`~repro.service.QuerySession` threads without corrupting
the underlying ``OrderedDict`` or dropping counter increments.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["CacheStats", "LRUCache"]

_MISSING = object()


@dataclass
class CacheStats:
    """Counters describing a cache's behaviour so far."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __repr__(self):
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, invalidations={self.invalidations})"
        )


class LRUCache:
    """Least-recently-used mapping with bounded capacity.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently *used* entry is
        evicted when a put would exceed it.  ``None`` disables eviction.
    """

    def __init__(self, capacity=128):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._entries = OrderedDict()
        self.stats = CacheStats()
        # Re-entrant so get_or_compute's compute() may itself use the
        # cache (e.g. nested stats derivations) without deadlocking.
        self._lock = threading.RLock()
        #: key -> Event for in-flight get_or_compute computations
        self._inflight = {}

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def get(self, key, default=None):
        """Look up ``key``, refreshing its recency; counts hit/miss."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key, value):
        """Insert/overwrite ``key``, evicting the LRU entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            if self.capacity is not None and len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            return value

    def get_or_compute(self, key, compute):
        """Return the cached value, computing and inserting on a miss.

        Concurrent misses of one key are **single-flight**: the first
        caller computes, the rest wait for its result.  The compute runs
        *outside* the cache lock, so a slow derivation (e.g. a
        data-scanning stats derivation) never blocks lookups of other
        keys.  If the owning compute raises, the exception propagates
        to that caller and one of the waiters takes over the
        computation.  ``compute`` must not re-enter the cache for the
        *same* key (other keys are fine).
        """
        while True:
            with self._lock:
                value = self._entries.get(key, _MISSING)
                if value is not _MISSING:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return value
                event = self._inflight.get(key)
                if event is None:
                    self.stats.misses += 1
                    event = self._inflight[key] = threading.Event()
                    break  # this caller owns the computation
            # Someone else is computing this key: wait, then re-check
            # (a hit normally; a re-miss if the owner failed or the
            # entry was already evicted, in which case one waiter
            # becomes the new owner).
            event.wait()
        try:
            value = compute()
            self.put(key, value)
        finally:
            # Always release the in-flight marker — even when compute()
            # or the insert raises — so waiters re-check instead of
            # blocking forever on a stranded event.
            with self._lock:
                del self._inflight[key]
            event.set()
        return value

    def clear(self):
        """Drop every entry (counted as invalidations)."""
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()

    def reclaim(self, live):
        """Drop every entry that read table contents the catalog no
        longer holds (counted as invalidations).

        The rule of every table-keyed cache: a key's first element is
        the tuple of the :meth:`~repro.storage.table.Table.fingerprint`
        s of the tables the entry read, and the entry is stale once one
        of them is not in ``live`` — unreachable by key, it would only
        pin superseded data until LRU churn.
        """
        with self._lock:
            stale = [key for key in self._entries
                     if not live.issuperset(key[0])]
            for key in stale:
                del self._entries[key]
            self.stats.invalidations += len(stale)

    def __getstate__(self):
        """Pickle as an *empty* cache of the same capacity.

        Locks, in-flight events and cached values never cross process
        boundaries: a cache shipped to a planning worker (see
        :mod:`repro.service.async_service`) re-derives entries on demand
        from the content-addressed keys, which is both correct and far
        cheaper than serializing plans or re-clustered tables.
        """
        return {"capacity": self.capacity}

    def __setstate__(self, state):
        self.__init__(state["capacity"])

    def keys(self):
        with self._lock:
            return list(self._entries)

    def __repr__(self):
        return (
            f"LRUCache(size={len(self)}, capacity={self.capacity}, "
            f"{self.stats})"
        )
