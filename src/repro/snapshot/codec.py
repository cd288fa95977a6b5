"""The snapshot wire format: versioned, content-addressed, canonical.

One document shape for every snapshot kind, written on one line::

    {"content_hash":"<sha256 of the canonical payload JSON>",
     "format":"repro-snapshot",
     "kind":"scenario-runner",            # who produced the payload
     "payload":{...},                     # component state, JSON-safe
     "version":2}

The file format is decided in :mod:`repro.wire`: an explicit
``format`` / ``version`` header so foreign, older or future documents
are *refused* (a :class:`repro.wire.FormatError`), never half-parsed;
the compact canonical form — the same as the campaign artifacts, the
trace sidecar and the verify report — so identical worlds produce
identical bytes; and an atomic write. The payload is content-addressed:
a blob whose ``content_hash`` no longer matches its payload raises
:class:`repro.wire.IntegrityError` instead of silently restoring a
corrupted world into a "deterministic" run.

Floats survive exactly: ``json`` emits the shortest ``repr`` that
round-trips, so an accumulated simulation time ``t`` restores to the
very same IEEE double and the continued run stays bit-identical.
Payload builders must hand us plain Python scalars — numpy types are
rejected by the encoder, which is the point: an ``np.float64`` smuggled
into a payload would serialise today and desynchronise dtype semantics
on restore.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

from repro.wire import (
    FormatError,
    IntegrityError,
    atomic_write,
    check_envelope,
    dumps_compact,
    loads,
)

SNAPSHOT_FORMAT = "repro-snapshot"
#: 2: compact one-line canonical form; runner checkpoints hold live
#: cache windows plus a ``dropped`` count and no quantum log.
SNAPSHOT_VERSION = 2


@dataclass
class Snapshot:
    """A typed payload: ``kind`` names the producer, ``payload`` is its
    JSON-safe state."""

    kind: str
    payload: Dict[str, object] = field(default_factory=dict)


def content_hash(payload: Dict[str, object]) -> str:
    """sha256 over the canonical payload JSON — the snapshot's address."""
    return hashlib.sha256(dumps_compact(payload).encode("utf-8")).hexdigest()


def dump_snapshot(snap: Snapshot) -> str:
    """Canonical text: same world state, same bytes.

    The payload is encoded once; its bytes are both hashed and spliced
    into the envelope, whose keys sort as ``content_hash < format <
    kind < payload < version`` — so the result equals the compact
    canonical dump of the whole envelope plus ``"\\n"``.
    """
    payload = dumps_compact(snap.payload)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return (f'{{"content_hash":"{digest}",'
            f'"format":{dumps_compact(SNAPSHOT_FORMAT)},'
            f'"kind":{dumps_compact(snap.kind)},'
            f'"payload":{payload},'
            f'"version":{SNAPSHOT_VERSION}}}\n')


def load_snapshot(text: str, source: object = "snapshot") -> Snapshot:
    data = check_envelope(loads(text, source), SNAPSHOT_FORMAT,
                          SNAPSHOT_VERSION, source)
    kind = data.get("kind")
    if not isinstance(kind, str) or not kind:
        raise FormatError(f"{source}: snapshot has no 'kind'")
    payload = data.get("payload")
    if not isinstance(payload, dict):
        raise FormatError(f"{source}: snapshot has no 'payload' object")
    expected = data.get("content_hash")
    actual = content_hash(payload)
    if expected != actual:
        raise IntegrityError(
            f"{source}: snapshot content hash mismatch: header says "
            f"{expected!r}, payload hashes to {actual!r} — blob is "
            f"corrupt or hand-edited")
    return Snapshot(kind=kind, payload=payload)


def write_snapshot(path: Path, snap: Snapshot) -> None:
    """Atomic write: a crash mid-checkpoint leaves the previous
    checkpoint intact, never a torn file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, dump_snapshot(snap))


def read_snapshot(path: Path) -> Snapshot:
    return load_snapshot(Path(path).read_text(encoding="utf-8"), path)
