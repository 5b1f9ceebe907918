"""The shared LRU cache (repro.core.lru)."""

import pytest

from repro.core.lru import CacheStats, LRUCache


def test_basic_get_put_and_counters():
    cache = LRUCache(capacity=2)
    assert cache.get("a") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.5


def test_lru_eviction_order():
    cache = LRUCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")          # refresh a's recency; b is now LRU
    cache.put("c", 3)
    assert "b" not in cache
    assert "a" in cache and "c" in cache
    assert cache.stats.evictions == 1


def test_overwrite_does_not_evict():
    cache = LRUCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)
    assert len(cache) == 2
    assert cache.get("a") == 10
    assert cache.stats.evictions == 0


def test_get_or_compute_only_computes_on_miss():
    cache = LRUCache(capacity=4)
    calls = []

    def compute():
        calls.append(1)
        return "value"

    assert cache.get_or_compute("k", compute) == "value"
    assert cache.get_or_compute("k", compute) == "value"
    assert len(calls) == 1
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_clear_counts_invalidations():
    cache = LRUCache(capacity=4)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.invalidations == 2


def test_reclaim_drops_only_stale_keys_and_keeps_recency():
    """An entry is stale once one fingerprint its key leads with is not
    live; the survivors keep their order, and no lookup is counted."""
    cache = LRUCache(capacity=4)
    for key in [(("a",), 1), (("b",), 1), (("a", "b"), 2), (("b",), 2)]:
        cache.put(key, key)
    cache.reclaim({"b"})
    assert cache.keys() == [(("b",), 1), (("b",), 2)]
    assert cache.stats.invalidations == 2
    assert cache.stats.evictions == cache.stats.lookups == 0
    cache.reclaim({"b", "c"})
    assert len(cache) == 2 and cache.stats.invalidations == 2


def test_unbounded_capacity():
    cache = LRUCache(capacity=None)
    for i in range(1000):
        cache.put(i, i)
    assert len(cache) == 1000
    assert cache.stats.evictions == 0


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        LRUCache(capacity=0)


def test_cache_stats_repr_and_empty_rate():
    stats = CacheStats()
    assert stats.hit_rate == 0.0
    assert "hits=0" in repr(stats)


# ----------------------------------------------------------------------
# Thread safety: concurrent QuerySession use shares the statistics
# store and plan cache (both LRUCaches), so the LRU must survive
# parallel mutation.
# ----------------------------------------------------------------------


def test_concurrent_mixed_access_is_safe():
    import threading

    cache = LRUCache(capacity=32)
    num_threads, ops = 8, 4_000
    errors = []
    barrier = threading.Barrier(num_threads)

    def hammer(worker):
        try:
            barrier.wait()
            for i in range(ops):
                key = (worker * i) % 64
                if i % 3 == 0:
                    cache.put(key, i)
                elif i % 97 == 0:
                    cache.clear()
                else:
                    cache.get(key)
                if i % 11 == 0:
                    cache.get_or_compute(key, lambda: key)
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(w,))
        for w in range(num_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors, errors
    assert len(cache) <= 32
    stats = cache.stats
    # every get/get_or_compute counted exactly once: no lost updates
    expected_lookups = num_threads * (
        sum(1 for i in range(ops) if i % 3 != 0 and i % 97 != 0)
        + sum(1 for i in range(ops) if i % 11 == 0)
    )
    assert stats.lookups == expected_lookups
    assert stats.hits + stats.misses == stats.lookups


def test_get_or_compute_is_single_flight_per_key():
    import threading

    cache = LRUCache(capacity=8)
    calls = []
    barrier = threading.Barrier(6)

    def compute():
        calls.append(1)
        return "value"

    def worker():
        barrier.wait()
        assert cache.get_or_compute("key", compute) == "value"

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1  # computed once despite 6 concurrent misses


def test_slow_compute_does_not_block_other_keys():
    import threading
    import time

    cache = LRUCache(capacity=8)
    release = threading.Event()
    started = threading.Event()

    def slow():
        started.set()
        release.wait(timeout=5.0)
        return "slow-value"

    owner = threading.Thread(
        target=lambda: cache.get_or_compute("slow-key", slow)
    )
    owner.start()
    assert started.wait(timeout=5.0)
    # While slow-key is computing, other keys stay fully usable.
    t0 = time.perf_counter()
    cache.put("other", 1)
    assert cache.get("other") == 1
    assert cache.get_or_compute("third", lambda: 3) == 3
    elapsed = time.perf_counter() - t0
    release.set()
    owner.join(timeout=5.0)
    assert not owner.is_alive()
    assert elapsed < 1.0  # never waited on the slow computation
    assert cache.get("slow-key") == "slow-value"


def test_get_or_compute_failure_releases_waiters():
    import threading

    cache = LRUCache(capacity=8)
    attempts = []
    barrier = threading.Barrier(3)
    results = []

    def compute():
        attempts.append(threading.get_ident())
        if len(attempts) == 1:
            raise RuntimeError("first attempt fails")
        return "recovered"

    def worker():
        barrier.wait()
        try:
            results.append(cache.get_or_compute("key", compute))
        except RuntimeError:
            results.append("raised")

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5.0)
    # the failing owner raised; everyone else eventually got the value
    assert sorted(r for r in results if r == "raised") == ["raised"]
    assert [r for r in results if r == "recovered"] == ["recovered"] * 2
