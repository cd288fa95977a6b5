"""Shared world state under thread contention.

Forks of one compiled world share its ``ElectricalLoad`` (with the
activity model's compiled schedules and draw memo) and its PLC channels
(with their signature and jitter memos). The thread backend runs tasks
on such forks concurrently, so every memo reachable from a fork must
return what a single thread computes, whatever the interleaving. This
test drives four forks over disjoint and overlapping time windows with a
tiny switch interval and compares every jitter read and every
``state_matrix`` row with a single-threaded reference from an
independent build of the same world.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

from repro.compile import compile_testbed
from repro.testbed.experiments import night_start, working_hours_start

PRESET = "office"
SEED = 41
#: Wall-clock budget of the contended phase, and the join timeout.
BUDGET_S = 6.0
JOIN_TIMEOUT_S = 60.0
#: State-matrix rows checked per chunk.
CHUNK = 16


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


def test_forks_share_memos_safely_under_contention():
    windows = _windows()
    reference = compile_testbed(PRESET, seed=SEED).template
    i, j = _pair(reference)
    ref_channel = reference.plc_link(i, j).channel
    ref_jitter = {}
    ref_rows = {}
    seen_states = {}
    for ts in windows:
        for row, t in zip(reference.load.state_matrix(ts), ts.tolist()):
            ref_rows[t] = row.tobytes()
            jitter, state = ref_channel.jitter_db(t)
            ref_jitter[t] = jitter.tobytes()
            # The jitter memo is keyed by (interval, sigma); the windows
            # must not hold two states that share a key.
            key = (int(t / state.hold_time_s), round(state.sigma_db, 6))
            assert seen_states.setdefault(key, state) == state

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
                        jitter, _ = ch.jitter_db(t)
                        if jitter.tobytes() != ref_jitter[t]:
                            wrong.append(("jitter", t))
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
