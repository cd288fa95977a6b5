"""Shared world state under thread contention.

Forks of one compiled world share its ``ElectricalLoad`` (with the
activity model's compiled schedules and draw memo, the grid's
shortest-path trees, the receiver rows and the last instant's
signature) and its PLC channels (with their direction geometry, their
tap-state path losses, and their base-SNR, tracked tone-map layout and
jitter memos). The thread backend runs tasks on such forks
concurrently, so every memo reachable from a fork must return what a
single thread computes, whatever the interleaving. The first test
drives four forks over disjoint and overlapping time windows with a
tiny switch interval and compares every ``state_matrix`` row, every
channel state read through ``state_at`` (signature, jittered SNR,
impulse rate), both directions' noise-free throughput at each instant
and every path loss with a single-threaded reference from an
independent build of the same world. The second starts the forks from
freshly compiled worlds, whose geometry memos are still empty, so they
race to resolve them first. Both shrink the path-loss memo to two tap
states, so it also clears under contention.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

from repro.compile import compile_testbed
from repro.plc import channel as plc_channel
from repro.testbed.experiments import night_start, working_hours_start

PRESET = "office"
SEED = 41
#: Wall-clock budget of the contended phase, and the join timeout.
BUDGET_S = 6.0
JOIN_TIMEOUT_S = 60.0
#: State-matrix rows checked per chunk.
CHUNK = 16
#: Forks racing over each fresh world, and the pairs they resolve.
RACERS = 4
RACE_PAIRS = 12
#: Tap states a path-loss memo keeps in these tests: small enough that
#: the windows fill and clear it again and again.
MEMO_LIMIT = 2


def _windows():
    work, night = working_hours_start(), night_start()
    step = np.arange(0.0, 90.0, 0.25)
    # Two disjoint windows and one overlapping each of them.
    return [work + step, night + step, work + 45.0 + step,
            night + 20.0 + step]


def _pair(world):
    pairs = [(i, j) for i, j in world.same_board_pairs()
             if world.plc_link(i, j) is not None]
    return pairs[len(pairs) // 3]


def _state_bytes(state):
    """What a channel state's readers see: signature, jittered SNR and
    impulse rate."""
    return (state.signature, state.snr_db.tobytes(),
            state.impulsive_rate_hz)


def _scalar_reads(world, i, j, t):
    """What the runner's scalar path reads at ``t``: the noise-free
    throughput of both directions of the pair, one after the other (so
    they share the load's signature memo), and the path loss."""
    forward, backward = world.plc_link(i, j), world.plc_link(j, i)
    return (forward.throughput_bps(t, measured=False),
            backward.throughput_bps(t, measured=False),
            forward.channel.path_loss_db(t).tobytes())


def test_forks_share_memos_safely_under_contention(monkeypatch):
    monkeypatch.setattr(plc_channel, "_PATH_LOSS_MEMO_LIMIT", MEMO_LIMIT)
    windows = _windows()
    reference = compile_testbed(PRESET, seed=SEED).template
    i, j = _pair(reference)
    ref_channel = reference.plc_link(i, j).channel
    ref_states = {}
    ref_rows = {}
    ref_scalar = {}
    for ts in windows:
        for row, t in zip(reference.load.state_matrix(ts), ts.tolist()):
            ref_rows[t] = row.tobytes()
            state = ref_channel.state_at(t)
            ref_states[t] = _state_bytes(state)
            ref_scalar[t] = _scalar_reads(reference, i, j, t)
            # The jitter memo is keyed by (interval, state); every read
            # must be the draw that key replays.
            index = int(t / state.jitter.hold_time_s)
            assert state.interval == index
            rng = reference.streams.fresh(
                f"plc.jitter.{ref_channel.name}.{index}")
            jitter = ref_channel._draw_jitter(rng, state.jitter)
            assert state.snr_db.tobytes() == (
                state.base_snr_db + jitter[None, :]).tobytes()

    compiled = compile_testbed(PRESET, seed=SEED)
    forks = [compiled.instantiate() for _ in windows]
    channel = forks[0].plc_link(i, j).channel
    assert all(f.plc_link(i, j).channel is channel for f in forks)
    assert all(f.load is forks[0].load for f in forks)

    reads = [0] * len(forks)
    wrong: list = []
    errors: list = []
    deadline = time.monotonic() + BUDGET_S

    def worker(k, fork, ts):
        try:
            ch = fork.plc_link(i, j).channel
            times = ts.tolist()
            while time.monotonic() < deadline:
                for start in range(0, len(times), CHUNK):
                    chunk = times[start:start + CHUNK]
                    rows = fork.load.state_matrix(chunk)
                    for row, t in zip(rows, chunk):
                        if row.tobytes() != ref_rows[t]:
                            wrong.append(("state_matrix", t))
                        if _state_bytes(ch.state_at(t)) != ref_states[t]:
                            wrong.append(("state_at", t))
                        if _scalar_reads(fork, i, j, t) != ref_scalar[t]:
                            wrong.append(("scalar", t))
                        reads[k] += 1
                    if time.monotonic() >= deadline:
                        return
        except Exception as exc:  # surfaced by the main thread
            errors.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(k, fork, ts),
                                daemon=True)
               for k, (fork, ts) in enumerate(zip(forks, windows))]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert all(n > 0 for n in reads)
    assert not wrong, f"{len(wrong)} of {sum(reads)} reads differ: {wrong[:5]}"


def _probe(world, i, j, t):
    """Every geometry-derived read of one direction at one instant, and
    the scalar path's reads of the pair."""
    channel = world.plc_link(i, j).channel
    return (channel.path_loss_db(t).tobytes(), channel.snr_db(t).tobytes(),
            world.load.noise_psd_at(channel.dst_outlet, t).tobytes(),
            world.load.impulsive_event_rate_at(channel.dst_outlet, t),
            world.cable_distance(i, j), _scalar_reads(world, i, j, t))


def test_forks_race_to_resolve_empty_geometry_memos(monkeypatch):
    monkeypatch.setattr(plc_channel, "_PATH_LOSS_MEMO_LIMIT", MEMO_LIMIT)
    reference = compile_testbed(PRESET, seed=SEED).template
    pairs = reference.same_board_pairs()[::7][:RACE_PAIRS]
    # Day, night and early morning: three tap states per direction, one
    # more than the path-loss memo keeps.
    instants = [working_hours_start() + 13.0, night_start() + 7.0,
                working_hours_start(hour=7.0)]
    expected = {(i, j, t): _probe(reference, i, j, t)
                for i, j in pairs for t in instants}

    worlds = 0
    wrong: list = []
    errors: list = []
    deadline = time.monotonic() + BUDGET_S
    while worlds == 0 or time.monotonic() < deadline:
        compiled = compile_testbed(PRESET, seed=SEED)
        template = compiled.template
        assert not template.load.grid._trees and not template.load._rows
        forks = [compiled.instantiate() for _ in range(RACERS)]
        barrier = threading.Barrier(RACERS, timeout=JOIN_TIMEOUT_S)

        def worker(k, fork):
            try:
                # Half the racers walk the pairs forwards, half backwards,
                # so every memo is raced from both ends.
                order = pairs if k % 2 == 0 else pairs[::-1]
                barrier.wait()
                for i, j in order:
                    for t in instants:
                        if _probe(fork, i, j, t) != expected[(i, j, t)]:
                            wrong.append((k, i, j, t))
            except Exception as exc:  # surfaced by the main thread
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(k, fork),
                                    daemon=True)
                   for k, fork in enumerate(forks)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=JOIN_TIMEOUT_S)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        worlds += 1
    assert not errors
    assert not wrong, f"{len(wrong)} racing reads differ: {wrong[:5]}"
