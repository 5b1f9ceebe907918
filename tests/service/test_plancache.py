"""Plan-cache keys: fingerprints read + structural normalization + options."""

import pytest

from repro.core.parser import parse_query
from repro.core.query import JoinEdge, JoinQuery
from repro.core.lru import LRUCache
from repro.service.plancache import normalized_query_key

SQL = ("select * from R1, R2, R3 "
       "where R1.B = R2.B and R2.C = R3.C and R1.A = 5")


def test_whitespace_and_case_insensitive():
    same = ("SELECT * FROM R1,   R2,R3 "
            "WHERE R1.B = R2.B AND R2.C = R3.C AND R1.A = 5")
    assert normalized_query_key(SQL) == normalized_query_key(same)


def test_from_order_is_part_of_key():
    # The first FROM relation is the implicit driver under
    # driver="fixed"; different FROM orders plan different drivers and
    # must not share a cache entry.
    swapped = ("select * from R2, R1, R3 "
               "where R1.B = R2.B and R2.C = R3.C and R1.A = 5")
    assert normalized_query_key(SQL) != normalized_query_key(swapped)


def test_predicate_order_insensitive():
    reordered = ("select * from R1, R2, R3 "
                 "where R1.A = 5 and R2.C = R3.C and R1.B = R2.B")
    assert normalized_query_key(SQL) == normalized_query_key(reordered)


def test_join_direction_insensitive():
    flipped = ("select * from R1, R2, R3 "
               "where R2.B = R1.B and R3.C = R2.C and R1.A = 5")
    assert normalized_query_key(SQL) == normalized_query_key(flipped)


def test_different_constants_are_different_keys():
    other = SQL.replace("R1.A = 5", "R1.A = 6")
    assert normalized_query_key(SQL) != normalized_query_key(other)


def test_literal_types_distinguished():
    number = "select * from R1, R2 where R1.B = R2.B and R1.A = 5"
    string = "select * from R1, R2 where R1.B = R2.B and R1.A = '5'"
    assert normalized_query_key(number) != normalized_query_key(string)


def test_parsed_query_matches_sql_key():
    assert normalized_query_key(parse_query(SQL)) == normalized_query_key(SQL)


def test_join_query_rooting_is_part_of_key():
    query = JoinQuery("R1", [JoinEdge("R1", "R2", "B", "B")])
    rerooted = query.rerooted("R2")
    assert normalized_query_key(query) != normalized_query_key(rerooted)
    # but edge declaration order is not
    two_edges = JoinQuery("R1", [
        JoinEdge("R1", "R2", "B", "B"), JoinEdge("R1", "R3", "E", "E"),
    ])
    swapped = JoinQuery("R1", [
        JoinEdge("R1", "R3", "E", "E"), JoinEdge("R1", "R2", "B", "B"),
    ])
    assert normalized_query_key(two_edges) == normalized_query_key(swapped)


def test_rejects_unknown_types():
    with pytest.raises(TypeError):
        normalized_query_key(42)


def key(fingerprints, options=()):
    """A plan-cache key as :class:`repro.QuerySession` builds one."""
    return (tuple(fingerprints), normalized_query_key(SQL), options)


def test_cache_keys_include_fingerprint_and_options():
    cache = LRUCache(capacity=8)
    key_a = key(["fp-1"], ("COM",))
    key_b = key(["fp-2"], ("COM",))
    key_c = key(["fp-1"], ("STD",))
    assert len({key_a, key_b, key_c}) == 3
    cache.put(key_a, "plan")
    assert cache.get(key_a) == "plan"
    assert cache.get(key_b) is None
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    # membership routes without counting, as the async fast path needs
    assert key_a in cache and key_b not in cache
    assert cache.stats.lookups == 2


def test_cache_lru_eviction():
    cache = LRUCache(capacity=2)
    keys = [key([f"fp-{i}"]) for i in range(3)]
    for each in keys:
        cache.put(each, each)
    assert len(cache) == 2
    assert cache.get(keys[0]) is None
    assert cache.stats.evictions == 1
    cache.clear()
    assert len(cache) == 0
