"""Versioned, content-addressed snapshots of the simulation world.

The snapshot plane serialises every stateful component of a running
simulation — named RNG streams, the windowed capacity cache, the
metrics registry, PLC tone-map / channel-estimation processes, the
hybrid reorder buffer — into one canonical JSON document that restores
bit-identically. ``ScenarioRunner.snapshot()/resume()`` and
``HybridDevice.snapshot()/restore()`` build on these codecs; the
campaign engine chains them into time-sliced execution
(``repro campaign --slice-horizon``).

Byte-identity is the contract, not an aspiration: the
``diff_slice_equivalence`` verify oracle and the hypothesis round-trip
battery in ``tests/test_snapshot_properties.py`` enforce that a
restored world continues exactly — same artifacts, same trace
sidecars, same goldens — as one that never paused.
"""

from repro.snapshot.codec import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    Snapshot,
    content_hash,
    dump_snapshot,
    load_snapshot,
    read_snapshot,
    write_snapshot,
)
from repro.snapshot.store import SnapshotStore, snapshot_dir_for
from repro.snapshot.world import (
    restore_cache,
    restore_channel_estimator,
    restore_reorder_buffer,
    restore_streams,
    restore_tone_map_process,
    snapshot_cache,
    snapshot_channel_estimator,
    snapshot_reorder_buffer,
    snapshot_streams,
    snapshot_tone_map_process,
)
from repro.wire import FormatError, IntegrityError

__all__ = [
    "FormatError",
    "IntegrityError",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotStore",
    "content_hash",
    "dump_snapshot",
    "load_snapshot",
    "read_snapshot",
    "restore_cache",
    "restore_channel_estimator",
    "restore_reorder_buffer",
    "restore_streams",
    "restore_tone_map_process",
    "snapshot_cache",
    "snapshot_channel_estimator",
    "snapshot_dir_for",
    "snapshot_reorder_buffer",
    "snapshot_streams",
    "snapshot_tone_map_process",
    "write_snapshot",
]
