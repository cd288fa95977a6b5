"""Checkpoint placement: where a sliced campaign keeps its snapshots.

One directory per campaign artifact (``<artifact stem>.snapshots/``,
the same sidecar convention as ``.trace.jsonl`` and the quarantine
sidecar), one file per ``(task, slice)`` pair. File names hash the task
key — task keys contain ``/`` and are unbounded, so they cannot be path
components directly — and append the slice index, which keeps a task's
checkpoint chain ``ls``-adjacent. Which checkpoint a rerun continues
from is the campaign engine's rule
(``CampaignEngine._resume_slice_index``), not the store's.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.snapshot.codec import Snapshot, read_snapshot, write_snapshot


def snapshot_dir_for(artifact_path: Path) -> Path:
    """The checkpoint directory that travels with a campaign artifact."""
    artifact_path = Path(artifact_path)
    return artifact_path.with_name(artifact_path.stem + ".snapshots")


class SnapshotStore:
    """Read/write checkpoints under one root directory."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def path_for(self, task_key: str, index: int) -> Path:
        digest = hashlib.sha256(task_key.encode("utf-8")).hexdigest()
        return self.root / f"{digest[:16]}-{int(index):04d}.json"

    def save(self, task_key: str, index: int, snap: Snapshot) -> Path:
        path = self.path_for(task_key, index)
        write_snapshot(path, snap)
        return path

    def load(self, task_key: str, index: int) -> Snapshot:
        return read_snapshot(self.path_for(task_key, index))
