"""Campaign artifact persistence: resumable, canonical JSONL.

Layout: one header line (campaign metadata) followed by one line per
completed task. Two properties matter and are worth stating as contracts:

**Resume contract.** Task lines are appended and flushed as tasks finish,
so a killed run leaves a valid prefix (plus at most one truncated line,
which reopening discards). On restart the engine reads the surviving task
keys and skips those specs.

**Determinism contract.** A task line is a pure function of its spec —
no timestamps, host names or durations — and :meth:`ArtifactWriter.finalize`
rewrites the file with task lines sorted by task key under a canonical
header. Two finalized runs of the same spec list are therefore
byte-identical at any worker count, on any schedule, resumed or not.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

ARTIFACT_FORMAT = "repro-campaign-artifacts"
ARTIFACT_VERSION = 1
QUARANTINE_FORMAT = "repro-campaign-quarantine"


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class TaskArtifact:
    """The persisted outcome of one campaign task."""

    task_key: str
    spec: Dict[str, Any]
    task_seed: int
    records: List[Dict[str, Any]]
    stats: Dict[str, Any]

    def to_line(self) -> str:
        return _canonical({
            "task_key": self.task_key, "spec": self.spec,
            "task_seed": self.task_seed, "records": self.records,
            "stats": self.stats})

    @classmethod
    def from_line(cls, line: str) -> "TaskArtifact":
        data = json.loads(line)
        return cls(task_key=data["task_key"], spec=data["spec"],
                   task_seed=data["task_seed"],
                   records=data.get("records", []),
                   stats=data.get("stats", {}))


def _header(name: str, root_seed: Optional[int]) -> Dict[str, Any]:
    return {"format": ARTIFACT_FORMAT, "version": ARTIFACT_VERSION,
            "name": name, "root_seed": root_seed}


def is_artifact_file(path: Union[str, Path]) -> bool:
    """True if ``path`` starts with a campaign-artifact header."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
    except (OSError, json.JSONDecodeError):
        return False
    return (isinstance(header, dict)
            and header.get("format") == ARTIFACT_FORMAT)


def read_artifacts(path: Union[str, Path]
                   ) -> Tuple[Dict[str, Any], List[TaskArtifact]]:
    """Load header + all complete task lines (a trailing truncated line —
    the signature of a killed run — is silently dropped)."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.split("\n")
    if not lines or not lines[0]:
        raise ValueError(f"{path}: empty artifact file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not an artifact file") from exc
    if not isinstance(header, dict) or header.get(
            "format") != ARTIFACT_FORMAT:
        raise ValueError(f"{path}: not an artifact file")
    if header.get("version", 0) > ARTIFACT_VERSION:
        raise ValueError(f"{path}: artifact format v{header['version']} "
                         f"is newer than this library "
                         f"(v{ARTIFACT_VERSION})")
    tasks: List[TaskArtifact] = []
    # If the file does not end with a newline its last line may be a
    # partial write from a killed process; only lines terminated by "\n"
    # (every element but the final split fragment) are trusted.
    complete, trailing = lines[1:-1], lines[-1]
    for line in complete:
        if not line.strip():
            continue
        tasks.append(TaskArtifact.from_line(line))
    if trailing.strip():
        try:
            tasks.append(TaskArtifact.from_line(trailing))
        except (json.JSONDecodeError, KeyError):
            pass  # truncated by a kill — the resume pass re-runs it
    return header, tasks


def iter_task_records(path: Union[str, Path]
                      ) -> Iterator[Tuple[TaskArtifact, Dict[str, Any]]]:
    """Yield (task, record) pairs across the whole artifact file."""
    _, tasks = read_artifacts(path)
    for task in tasks:
        for record in task.records:
            yield task, record


class ArtifactWriter:
    """Append-mode artifact sink with resume and canonical finalize."""

    def __init__(self, path: Union[str, Path], name: str,
                 root_seed: Optional[int] = None, resume: bool = True):
        self.path = Path(path)
        self.name = name
        self.root_seed = root_seed
        self._tasks: Dict[str, TaskArtifact] = {}
        if resume and self.path.exists():
            header, tasks = read_artifacts(self.path)
            if header.get("name") not in (None, name):
                raise ValueError(
                    f"{self.path}: artifact belongs to campaign "
                    f"{header.get('name')!r}, not {name!r}")
            self._tasks = {t.task_key: t for t in tasks}
        # Rewrite the surviving prefix so the file is exactly header +
        # complete lines before any appends (drops truncated tails).
        self._rewrite(sorted(self._tasks))
        self._fh = self.path.open("a", encoding="utf-8")

    # --- the resume contract --------------------------------------------------

    def completed_keys(self) -> Set[str]:
        return set(self._tasks)

    # --- writes ---------------------------------------------------------------

    def write(self, artifact: TaskArtifact) -> None:
        if artifact.task_key in self._tasks:
            return  # resume already has it
        self._tasks[artifact.task_key] = artifact
        self._fh.write(artifact.to_line() + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def finalize(self) -> None:
        """Rewrite in canonical order; see the determinism contract."""
        self._fh.close()
        self._rewrite(sorted(self._tasks))
        self._fh = self.path.open("a", encoding="utf-8")

    def close(self) -> None:
        self._fh.close()

    def _rewrite(self, ordered_keys: List[str]) -> None:
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(_canonical(_header(self.name, self.root_seed)) + "\n")
            for key in ordered_keys:
                fh.write(self._tasks[key].to_line() + "\n")
        tmp.replace(self.path)


# --- poison-task quarantine ---------------------------------------------------


def quarantine_path_for(artifact_path: Union[str, Path]) -> Path:
    """The quarantine sidecar of an artifact file.

    ``campaign.jsonl`` → ``campaign.quarantine.jsonl`` (next to the
    artifact, so resume/report tooling finds both with one base path).
    """
    path = Path(artifact_path)
    return path.with_name(f"{path.stem}.quarantine.jsonl")


@dataclass
class QuarantineEntry:
    """One permanently failing (poison) task, parked out of the way."""

    task_key: str
    spec: Dict[str, Any]
    attempts: int
    error: str

    def to_line(self) -> str:
        return _canonical({
            "task_key": self.task_key, "spec": self.spec,
            "attempts": self.attempts, "error": self.error})

    @classmethod
    def from_line(cls, line: str) -> "QuarantineEntry":
        data = json.loads(line)
        return cls(task_key=data["task_key"], spec=data.get("spec", {}),
                   attempts=int(data.get("attempts", 0)),
                   error=str(data.get("error", "")))


def read_quarantine(path: Union[str, Path]) -> List[QuarantineEntry]:
    """All entries of a quarantine sidecar ([] if it does not exist)."""
    path = Path(path)
    if not path.exists():
        return []
    entries: List[QuarantineEntry] = []
    with path.open("r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if not (isinstance(header, dict)
                and header.get("format") == QUARANTINE_FORMAT):
            raise ValueError(f"{path}: not a quarantine sidecar")
        for line in fh:
            if line.strip() and line.endswith("\n"):
                entries.append(QuarantineEntry.from_line(line))
    return entries


class QuarantineWriter:
    """Sidecar sink for poison tasks; canonical like the artifact file.

    Entries are a pure function of the failing spec (no timestamps, no
    hostnames; error strings must be deterministic for the determinism
    contract to extend here), and :meth:`finalize` sorts lines by task
    key — so a chaos campaign's quarantine file is byte-identical at any
    worker count. A task that *recovers* on a later run (its key shows
    up in the artifact's completed set) is dropped at finalize.
    """

    def __init__(self, artifact_path: Union[str, Path], name: str,
                 resume: bool = True):
        self.path = quarantine_path_for(artifact_path)
        self.name = name
        self._entries: Dict[str, QuarantineEntry] = {}
        if resume and self.path.exists():
            self._entries = {e.task_key: e
                             for e in read_quarantine(self.path)}

    def add(self, entry: QuarantineEntry) -> None:
        self._entries[entry.task_key] = entry

    def finalize(self, completed_keys: Set[str]) -> None:
        """Write the sidecar (sorted, minus recovered tasks).

        An empty quarantine removes the file entirely, so a clean rerun
        of a previously poisoned campaign leaves no stale sidecar.
        """
        for key in completed_keys & set(self._entries):
            del self._entries[key]
        if not self._entries:
            if self.path.exists():
                self.path.unlink()
            return
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(_canonical({"format": QUARANTINE_FORMAT,
                                 "version": 1, "name": self.name}) + "\n")
            for key in sorted(self._entries):
                fh.write(self._entries[key].to_line() + "\n")
        tmp.replace(self.path)
