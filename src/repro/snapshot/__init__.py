"""Versioned, content-addressed snapshots of the simulation world.

The snapshot plane serialises a paused scenario run — its named RNG
streams, the windowed capacity cache and the metrics registry — into
one canonical JSON document that restores bit-identically.
``ScenarioRunner.snapshot()/resume()`` is its one client; the campaign
engine chains it into time-sliced execution
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
    restore_streams,
    snapshot_cache,
    snapshot_streams,
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
    "restore_streams",
    "snapshot_cache",
    "snapshot_dir_for",
    "snapshot_streams",
    "write_snapshot",
]
