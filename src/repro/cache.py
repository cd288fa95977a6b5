"""Shared windowed link-metric cache with LRU eviction.

Both fluid-level and frame-level simulation read link metrics that are
effectively constant over short time windows: the scenario runner's
capacity lookups (channel drift is minutes-scale) and the CSMA simulator's
per-frame BLE/PBerr reads (tone maps hold for ~100 ms). Recomputing them
from the channel model on every access is the hot path of both loops.

:class:`WindowedLruCache` memoises ``compute()`` results under a
``(key, window_index)`` pair, where ``window_index = floor(t / window_s)``.
Eviction is LRU *per entry*: when the cache is full, the least-recently
used window results are dropped one at a time, so the hot (current) window
always survives — unlike a wholesale ``dict.clear()``, which throws away
exactly the entries the next lookup needs.

Hit/miss/eviction counters live in :class:`CacheStats`, surfaced by the
scenario runner's ``RunnerStats`` for observability.

A checkpoint (:func:`repro.snapshot.world.snapshot_cache`) keeps only
the windows a continued run can still read and replaces the rest by a
count, :attr:`WindowedLruCache.dropped`: phantom entries at the LRU
front, evicted before any real one, so a full cache evicts the same
real entries and counts the same ``evictions`` as one that never
paused.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Tuple


@dataclass
class CacheStats:
    """Lookup counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total > 0 else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class WindowedLruCache:
    """Memoise time-dependent values per ``window_s``-wide time window.

    Values are assumed constant within a window; the first lookup in a
    window computes and stores, later lookups (any ``t`` in the same
    window) hit. ``max_entries`` bounds memory; overflow evicts the
    least-recently-used entries only.
    """

    def __init__(self, window_s: float, max_entries: int = 50_000):
        if window_s <= 0:
            raise ValueError("window must be positive")
        if max_entries < 1:
            raise ValueError("need at least one cache entry")
        self.window_s = window_s
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple[Hashable, int], Any]" = (
            OrderedDict())
        #: Entries a checkpoint dropped as unreadable: they still take
        #: room at the LRU front and are the first evicted.
        self.dropped = 0

    def window_index(self, t: float) -> int:
        """Index of the window containing ``t`` (floor, not truncation)."""
        return int(math.floor(t / self.window_s))

    def get(self, key: Hashable, t: float,
            compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key`` in ``t``'s window, or
        compute, store and return it."""
        entry_key = (key, self.window_index(t))
        try:
            value = self._entries[entry_key]
        except KeyError:
            self.stats.misses += 1
            value = compute()
            self._entries[entry_key] = value
            while len(self._entries) + self.dropped > self.max_entries:
                if self.dropped:
                    self.dropped -= 1
                else:
                    self._entries.popitem(last=False)
                self.stats.evictions += 1
            return value
        self._entries.move_to_end(entry_key)
        self.stats.hits += 1
        return value

    def contains(self, key: Hashable, t: float) -> bool:
        """Whether ``key`` is cached for ``t``'s window (no LRU touch)."""
        return (key, self.window_index(t)) in self._entries

    def clear(self) -> None:
        self._entries.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._entries)
