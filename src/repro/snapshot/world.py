"""World codecs: JSON-safe state capture for the scenario runner.

Each ``snapshot_*`` function turns one live component into a plain-JSON
payload fragment; the matching ``restore_*`` pushes that fragment back
into a *freshly constructed* component of the same shape. The contract
is bit-identity going forward: after restore, every subsequent draw,
lookup or update produces exactly the bytes the un-snapshotted original
would have produced. :meth:`repro.netsim.runner.ScenarioRunner.snapshot`
is the one client; it captures two stateful parts:

* **RNG streams** — the full PCG64 ``bit_generator.state`` per named
  stream. Restoring via ``streams.get(name)`` works because components
  hold the *same* generator object the factory handed out.
* **Windowed capacity cache** — the entries of windows at or after the
  paused time, in LRU order (eviction order is part of observable
  behaviour), a count of the earlier ones, and the hit/miss/eviction
  counters. An earlier window can never be read again by a run whose
  lookups move forward in time, so only its room in the cache is kept.

Pure functions of ``(seed, t)`` — powergrid appliance activity, channel
attenuation/fading, the mains clock — carry no state and need no codec;
the world they describe is reconstructed from the testbed preset. Nor
is history state: the scenario runner keeps no per-quantum log (its
peaks are registry gauges; the per-quantum time series is the tracer's
``runner.quantum`` events), so a runner checkpoint does not grow with
the quanta already run.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.cache import WindowedLruCache
from repro.sim.random import RandomStreams

# --- RNG streams --------------------------------------------------------------


def snapshot_streams(streams: RandomStreams) -> Dict[str, object]:
    """Root seed plus the PCG64 state of every stream drawn so far.

    Streams never drawn carry no entry: on the restore side they are
    lazily re-created at their initial state, which is exactly where the
    original would have created them.
    """
    return {
        "seed": int(streams.seed),
        "streams": {
            name: _deep_plain(gen.bit_generator.state)
            for name, gen in sorted(streams._streams.items())
        },
    }


def restore_streams(streams: RandomStreams,
                    payload: Dict[str, object]) -> None:
    if int(payload["seed"]) != streams.seed:
        raise ValueError(
            f"stream snapshot was taken at seed {payload['seed']}, "
            f"target factory is seeded {streams.seed}")
    for name, state in payload["streams"].items():
        streams.get(name).bit_generator.state = state


def _deep_plain(value):
    # Stream states and cached capacities leave as plain JSON numbers:
    # no numpy scalar reaches the encoder.
    if isinstance(value, dict):
        return {k: _deep_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_deep_plain(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


# --- windowed LRU cache -------------------------------------------------------


def snapshot_cache(cache: WindowedLruCache,
                   now: float) -> Dict[str, object]:
    """Live entries in LRU order (front = next eviction victim), the
    count of dropped ones, and the counters.

    An entry is live when its window index is at least ``now``'s: a run
    paused at ``now`` looks up no earlier window. Order matters: a
    straight run's eviction sequence must be reproduced by the restored
    cache, or a long run with cache pressure would diverge from its
    sliced twin in *which* windows stay warm. Lookups only move forward
    in time, so every dead entry sits in front of every live one in LRU
    order; ``dropped`` (the dead entries plus any count an earlier
    restore carried over) stands in for them at the front and keeps the
    eviction sequence and the ``evictions`` counter exact.

    A restored cache does not hold the dropped entries: only a later
    ``run()`` that goes back before ``now`` could have read them.
    """
    first_live = cache.window_index(now)
    entries = []
    dropped = cache.dropped
    for (key, window_index), value in cache._entries.items():
        if window_index < first_live:
            dropped += 1
            continue
        entries.append([list(key) if isinstance(key, tuple) else key,
                        int(window_index), _deep_plain(value)])
    return {
        "window_s": float(cache.window_s),
        "max_entries": int(cache.max_entries),
        "entries": entries,
        "dropped": dropped,
        "stats": {
            "hits": int(cache.stats.hits),
            "misses": int(cache.stats.misses),
            "evictions": int(cache.stats.evictions),
        },
    }


def restore_cache(cache: WindowedLruCache,
                  payload: Dict[str, object]) -> None:
    if float(payload["window_s"]) != cache.window_s \
            or int(payload["max_entries"]) != cache.max_entries:
        raise ValueError(
            "cache snapshot geometry mismatch: snapshot is "
            f"(window_s={payload['window_s']}, "
            f"max_entries={payload['max_entries']}), target is "
            f"(window_s={cache.window_s}, "
            f"max_entries={cache.max_entries})")
    cache._entries.clear()
    for key, window_index, value in payload["entries"]:
        entry_key = tuple(key) if isinstance(key, list) else key
        cache._entries[(entry_key, int(window_index))] = value
    cache.dropped = int(payload["dropped"])
    stats = payload["stats"]
    cache.stats.hits = int(stats["hits"])
    cache.stats.misses = int(stats["misses"])
    cache.stats.evictions = int(stats["evictions"])
