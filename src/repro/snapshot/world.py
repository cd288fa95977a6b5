"""Component codecs: JSON-safe state capture for every stateful part.

Each ``snapshot_*`` function turns one live component into a plain-JSON
payload fragment; the matching ``restore_*`` pushes that fragment back
into a *freshly constructed* component of the same shape. The contract
is bit-identity going forward: after restore, every subsequent draw,
lookup or update produces exactly the bytes the un-snapshotted original
would have produced.

What gets captured, and what deliberately does not:

* **RNG streams** — the full PCG64 ``bit_generator.state`` per named
  stream. Restoring via ``streams.get(name)`` works because components
  hold the *same* generator object the factory handed out.
* **Windowed capacity cache** — the entries of windows at or after the
  paused time, in LRU order (eviction order is part of observable
  behaviour), a count of the earlier ones, and the hit/miss/eviction
  counters. An earlier window can never be read again by a run whose
  lookups move forward in time, so only its room in the cache is kept.
* **Tone-map process** — the current :class:`~repro.plc.tonemap.ToneMap`
  (bits grid, FEC, PBerr), the update history, clock and TMI counter.
  The ``(signature, jitter-window)`` evaluation memo is *dropped*: it
  memoises a pure function of channel state, so recomputing it on the
  other side yields identical values.
* **Channel estimator** — observed-PB count, collision penalty,
  one-symbol pin, burst-collapse deadline and its private RNG state.
* **Reorder buffer** — pending packets by field, the next expected
  sequence, the hole timer, and delivery statistics.

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
from repro.hybrid.reorder import ReorderBuffer
from repro.plc.channel_estimation import ChannelEstimator
from repro.plc.tonemap import ToneMap, ToneMapProcess, ToneMapUpdate
from repro.sim.random import RandomStreams
from repro.traffic.packet import Packet

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
            name: _jsonify_bitgen_state(gen.bit_generator.state)
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
        streams.get(name).bit_generator.state = _pythonify_bitgen_state(
            state)


def _jsonify_bitgen_state(state: Dict[str, object]) -> Dict[str, object]:
    # PCG64's state dict nests arbitrary-precision Python ints — already
    # JSON-safe — but guard against numpy scalars leaking in.
    return _deep_plain(state)


def _pythonify_bitgen_state(state: Dict[str, object]) -> Dict[str, object]:
    return state


def _deep_plain(value):
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


# --- reorder buffer -----------------------------------------------------------

def _packet_to_dict(packet: Packet) -> Dict[str, object]:
    return {
        "seq": int(packet.seq),
        "size_bytes": int(packet.size_bytes),
        "created_at": float(packet.created_at),
        "flow_id": packet.flow_id,
        "medium": packet.medium,
        "delivered_at": (None if packet.delivered_at is None
                         else float(packet.delivered_at)),
    }


def snapshot_reorder_buffer(buffer: ReorderBuffer) -> Dict[str, object]:
    return {
        "hole_timeout_s": float(buffer.hole_timeout_s),
        "max_window": int(buffer.max_window),
        "next_seq": int(buffer._next_seq),
        "oldest_wait_since": (None if buffer._oldest_wait_since is None
                              else float(buffer._oldest_wait_since)),
        "pending": [_packet_to_dict(buffer._pending[seq])
                    for seq in sorted(buffer._pending)],
        "stats": {
            "delivered": int(buffer.stats.delivered),
            "reordered_arrivals": int(buffer.stats.reordered_arrivals),
            "holes_flushed": int(buffer.stats.holes_flushed),
            "release_times": [float(t)
                              for t in buffer.stats.release_times],
        },
    }


def restore_reorder_buffer(buffer: ReorderBuffer,
                           payload: Dict[str, object]) -> None:
    if float(payload["hole_timeout_s"]) != buffer.hole_timeout_s \
            or int(payload["max_window"]) != buffer.max_window:
        raise ValueError(
            "reorder snapshot geometry mismatch: snapshot is "
            f"(hole_timeout_s={payload['hole_timeout_s']}, "
            f"max_window={payload['max_window']}), target is "
            f"(hole_timeout_s={buffer.hole_timeout_s}, "
            f"max_window={buffer.max_window})")
    buffer._pending = {
        int(p["seq"]): Packet(
            seq=int(p["seq"]), size_bytes=int(p["size_bytes"]),
            created_at=float(p["created_at"]), flow_id=p["flow_id"],
            medium=p["medium"],
            delivered_at=(None if p["delivered_at"] is None
                          else float(p["delivered_at"])))
        for p in payload["pending"]
    }
    buffer._next_seq = int(payload["next_seq"])
    buffer._oldest_wait_since = (
        None if payload["oldest_wait_since"] is None
        else float(payload["oldest_wait_since"]))
    stats = payload["stats"]
    buffer.stats.delivered = int(stats["delivered"])
    buffer.stats.reordered_arrivals = int(stats["reordered_arrivals"])
    buffer.stats.holes_flushed = int(stats["holes_flushed"])
    buffer.stats.release_times = [float(t)
                                  for t in stats["release_times"]]


# --- tone-map process ---------------------------------------------------------


def snapshot_tone_map_process(proc: ToneMapProcess) -> Dict[str, object]:
    tm = proc.tone_map
    return {
        "check_interval": float(proc.check_interval),
        "drift_threshold": float(proc.drift_threshold),
        "backoff_db": float(proc.backoff_db),
        "now": float(proc._now),
        "tone_map": {
            "tmi": int(tm.tmi),
            "bits": np.asarray(tm.bits).tolist(),
            "bits_dtype": str(np.asarray(tm.bits).dtype),
            "fec_rate": float(tm.fec_rate),
            "pb_err": float(tm.pb_err),
            "created_at": float(tm.created_at),
            "symbol_duration_s": float(tm.symbol_duration_s),
        },
        "updates": [
            {"time": float(u.time), "tmi": int(u.tmi),
             "avg_ble_bps": float(u.avg_ble_bps), "reason": u.reason}
            for u in proc.updates
        ],
    }


def restore_tone_map_process(proc: ToneMapProcess,
                             payload: Dict[str, object]) -> None:
    import itertools

    proc.check_interval = float(payload["check_interval"])
    proc.drift_threshold = float(payload["drift_threshold"])
    proc.backoff_db = float(payload["backoff_db"])
    proc._now = float(payload["now"])
    tm = payload["tone_map"]
    proc.tone_map = ToneMap(
        tmi=int(tm["tmi"]),
        bits=np.asarray(tm["bits"], dtype=np.dtype(tm["bits_dtype"])),
        fec_rate=float(tm["fec_rate"]),
        pb_err=float(tm["pb_err"]),
        created_at=float(tm["created_at"]),
        symbol_duration_s=float(tm["symbol_duration_s"]))
    proc.updates = [
        ToneMapUpdate(time=float(u["time"]), tmi=int(u["tmi"]),
                      avg_ble_bps=float(u["avg_ble_bps"]),
                      reason=u["reason"])
        for u in payload["updates"]
    ]
    # TMIs are consumed monotonically; the live tone map always carries
    # the last one handed out.
    proc._tmi_counter = itertools.count(proc.tone_map.tmi + 1)
    # The (signature, jitter-window) evaluation memo caches a pure
    # function of channel state — recomputed identically on demand.
    proc._eval_key = None
    proc._eval_value = None


# --- channel estimator --------------------------------------------------------


def snapshot_channel_estimator(
        estimator: ChannelEstimator) -> Dict[str, object]:
    return {
        "overreact_to_bursts": bool(estimator.overreact_to_bursts),
        "pbs_observed": float(estimator._pbs_observed),
        "penalty_db": float(estimator._penalty_db),
        "pinned_at_one_symbol": bool(estimator._pinned_at_one_symbol),
        "burst_collapse_until": float(estimator._burst_collapse_until),
        "rng_state": _jsonify_bitgen_state(
            estimator._rng.bit_generator.state),
    }


def restore_channel_estimator(estimator: ChannelEstimator,
                              payload: Dict[str, object]) -> None:
    if bool(payload["overreact_to_bursts"]) \
            != estimator.overreact_to_bursts:
        raise ValueError(
            "estimator snapshot was taken with overreact_to_bursts="
            f"{payload['overreact_to_bursts']}, target has "
            f"{estimator.overreact_to_bursts}")
    estimator._pbs_observed = float(payload["pbs_observed"])
    estimator._penalty_db = float(payload["penalty_db"])
    estimator._pinned_at_one_symbol = bool(
        payload["pinned_at_one_symbol"])
    estimator._burst_collapse_until = float(
        payload["burst_collapse_until"])
    estimator._rng.bit_generator.state = payload["rng_state"]
