"""Shared windowed LRU cache."""

import pytest

from repro.cache import CacheStats, WindowedLruCache


def test_constructor_validation():
    with pytest.raises(ValueError):
        WindowedLruCache(window_s=0.0)
    with pytest.raises(ValueError):
        WindowedLruCache(window_s=1.0, max_entries=0)


def test_same_window_hits_different_window_misses():
    cache = WindowedLruCache(window_s=0.1)
    calls = []

    def compute(t):
        calls.append(t)
        return t

    assert cache.get("k", 0.01, lambda: compute(0.01)) == 0.01
    # Any t in [0.0, 0.1) hits the stored value.
    assert cache.get("k", 0.09, lambda: compute(0.09)) == 0.01
    assert cache.get("k", 0.11, lambda: compute(0.11)) == 0.11
    assert calls == [0.01, 0.11]
    assert cache.stats.hits == 1
    assert cache.stats.misses == 2
    assert cache.stats.hit_rate == pytest.approx(1 / 3)


def test_distinct_keys_do_not_collide():
    cache = WindowedLruCache(window_s=1.0)
    assert cache.get("a", 0.5, lambda: "A") == "A"
    assert cache.get("b", 0.5, lambda: "B") == "B"
    assert cache.get("a", 0.5, lambda: "wrong") == "A"


def test_window_index_floors_negative_times():
    cache = WindowedLruCache(window_s=1.0)
    assert cache.window_index(-0.5) == -1
    assert cache.window_index(0.5) == 0


def test_lru_eviction_keeps_recently_used_entries():
    """Overflow drops the *least recently used* entry — never the hot
    window wholesale (the old clear-everything behaviour)."""
    cache = WindowedLruCache(window_s=1.0, max_entries=3)
    for key in ("a", "b", "c"):
        cache.get(key, 0.0, lambda k=key: k)
    cache.get("a", 0.0, lambda: "wrong")     # refresh 'a' → LRU is 'b'
    cache.get("d", 0.0, lambda: "d")         # overflow evicts 'b' only
    assert cache.stats.evictions == 1
    assert cache.contains("a", 0.0)
    assert cache.contains("c", 0.0)
    assert cache.contains("d", 0.0)
    assert not cache.contains("b", 0.0)
    assert len(cache) == 3


def test_hot_window_survives_a_scan_of_cold_windows():
    """A long scan over many time windows must not dislodge the entry the
    current window keeps re-reading."""
    cache = WindowedLruCache(window_s=0.1, max_entries=8)
    t_hot = 0.05
    cache.get("hot", t_hot, lambda: "hot-value")
    for k in range(50):  # 50 cold windows, interleaved with hot re-reads
        cache.get("cold", 1.0 + 0.1 * k, lambda: k)
        assert cache.get("hot", t_hot, lambda: "wrong") == "hot-value"
    assert cache.stats.evictions > 0
    assert cache.contains("hot", t_hot)


def test_stats_reset_and_clear():
    cache = WindowedLruCache(window_s=1.0)
    cache.get("a", 0.0, lambda: 1)
    cache.get("a", 0.0, lambda: 1)
    assert cache.stats.lookups == 2
    cache.stats.reset()
    assert cache.stats == CacheStats()
    cache.clear()
    assert len(cache) == 0
    cache.get("a", 0.0, lambda: 2)
    assert cache.get("a", 0.5, lambda: "wrong") == 2


def test_dropped_entries_are_evicted_first_and_counted():
    """A restored cache's ``dropped`` count stands for entries at the
    LRU front: overflow evicts them before any real entry, and every
    one counts as an eviction."""
    cache = WindowedLruCache(window_s=1.0, max_entries=4)
    for key in ("a", "b"):
        cache.get(key, 5.0, lambda k=key: k)
    cache.dropped = 2  # full: two phantoms in front of 'a' and 'b'
    cache.get("c", 5.0, lambda: "c")
    assert cache.dropped == 1
    assert cache.stats.evictions == 1
    cache.get("d", 5.0, lambda: "d")
    assert cache.dropped == 0
    assert cache.stats.evictions == 2
    assert all(cache.contains(key, 5.0) for key in "abcd")
    cache.get("e", 5.0, lambda: "e")  # phantoms gone: LRU 'a' goes
    assert cache.stats.evictions == 3
    assert not cache.contains("a", 5.0)
    assert len(cache) == 4
    cache.dropped = 3
    cache.clear()
    assert cache.dropped == 0
