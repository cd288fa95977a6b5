"""The canonical, versioned BENCH document.

One schema replaces the four ad-hoc ``BENCH_*.json`` shapes the repo
accumulated (medium speedups, obs overhead, campaign backend matrix,
verify wall time): a :class:`BenchDocument` is an environment
fingerprint plus a mapping of benchmark name to :class:`BenchResult`
(per-repeat wall-time samples and derived metrics). The format is
versioned and the loader refuses every other version outright — a
baseline written by an incompatible harness must fail loudly, not gate
silently on reinterpreted numbers. The document is the indented
canonical form of :mod:`repro.wire`, so its diff reviews like code.

Round-trip contract (property-tested in ``tests/test_bench_schema.py``):
``load_document(dump_document(doc)) == doc`` for any document built
from finite floats; ``NaN``/``Inf`` are refused at dump time.

The *trajectory* is the repo's perf history: one compact JSON line per
run (git SHA, environment, min-of-repeats per benchmark), appended by
``repro bench run --trajectory`` and by the CI bench job, so speedup
claims stay comparable across PRs instead of living in commit messages.
"""

from __future__ import annotations

import os
import platform as _platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.wire import (
    append_jsonl,
    atomic_write,
    check_envelope,
    dumps_compact,
    dumps_indented,
    loads,
    read_jsonl,
)

#: Document identity: loaders check both before touching any number.
BENCH_FORMAT = "repro-bench"
BENCH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Environment:
    """Where a run happened — enough to judge baseline affinity."""

    python: str
    platform: str
    cpu_count: int
    numpy: str
    git_sha: Optional[str] = None

    @classmethod
    def capture(cls) -> "Environment":
        import numpy

        return cls(
            python=_platform.python_version(),
            platform=sys.platform,
            cpu_count=os.cpu_count() or 1,
            numpy=numpy.__version__,
            git_sha=_git_sha(),
        )

    def to_dict(self) -> Dict[str, object]:
        return {"python": self.python, "platform": self.platform,
                "cpu_count": self.cpu_count, "numpy": self.numpy,
                "git_sha": self.git_sha}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Environment":
        return cls(python=str(data["python"]),
                   platform=str(data["platform"]),
                   cpu_count=int(data["cpu_count"]),
                   numpy=str(data["numpy"]),
                   git_sha=(None if data.get("git_sha") is None
                            else str(data["git_sha"])))


def _git_sha() -> Optional[str]:
    """HEAD of the repo this package runs from, or None (e.g. an
    installed wheel outside any checkout)."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@dataclass
class BenchResult:
    """One benchmark's record: raw samples first, aggregates derived.

    ``samples_s`` are the recorded repeat wall times *after* warmup
    discard (the discarded count is kept for provenance). ``metrics``
    are benchmark-specific numbers the body returned (sample counts,
    cache hit rates, trace-event counts) — informational and
    smoke-checked, never regression-gated directly.
    """

    name: str
    samples_s: Tuple[float, ...]
    warmup_discarded: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()
    figure: Optional[str] = None

    def __post_init__(self) -> None:
        self.samples_s = tuple(float(s) for s in self.samples_s)
        self.tags = tuple(self.tags)
        if not self.samples_s:
            raise ValueError(f"{self.name}: need at least one sample")

    @property
    def repeats(self) -> int:
        return len(self.samples_s)

    @property
    def min_s(self) -> float:
        """Min-of-repeats: the compute-floor estimator every comparison
        uses (the minimum converges on true cost; means absorb noise)."""
        return min(self.samples_s)

    @property
    def mean_s(self) -> float:
        return sum(self.samples_s) / len(self.samples_s)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "samples_s": list(self.samples_s),
            "warmup_discarded": self.warmup_discarded,
            "metrics": dict(self.metrics),
            "tags": list(self.tags),
            "figure": self.figure,
            # Derived aggregates ride along for human readers and
            # external tooling; the loader recomputes/ignores them.
            "min_s": self.min_s,
            "mean_s": self.mean_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BenchResult":
        return cls(
            name=str(data["name"]),
            samples_s=tuple(float(s) for s in data["samples_s"]),
            warmup_discarded=int(data.get("warmup_discarded", 0)),
            metrics=dict(data.get("metrics", {})),
            tags=tuple(str(t) for t in data.get("tags", ())),
            figure=(None if data.get("figure") is None
                    else str(data["figure"])),
        )


@dataclass
class BenchDocument:
    """A full run: environment + every benchmark's result."""

    environment: Environment
    results: Dict[str, BenchResult] = field(default_factory=dict)

    def add(self, result: BenchResult) -> None:
        self.results[result.name] = result

    def domains(self) -> Tuple[str, ...]:
        return tuple(sorted({name.split(".", 1)[0]
                             for name in self.results}))

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": BENCH_FORMAT,
            "version": BENCH_SCHEMA_VERSION,
            "environment": self.environment.to_dict(),
            "results": {name: result.to_dict()
                        for name, result in sorted(self.results.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object],
                  source: object = "BENCH document") -> "BenchDocument":
        check_envelope(data, BENCH_FORMAT, BENCH_SCHEMA_VERSION, source)
        results = {
            name: BenchResult.from_dict(entry)
            for name, entry in dict(data.get("results", {})).items()}
        return cls(environment=Environment.from_dict(data["environment"]),
                   results=results)


# --- (de)serialisation --------------------------------------------------------


def dump_document(doc: BenchDocument) -> str:
    """Canonical JSON text (indented form plus a trailing newline)."""
    return dumps_indented(doc.to_dict()) + "\n"


def load_document(text: str,
                  source: object = "BENCH document") -> BenchDocument:
    return BenchDocument.from_dict(loads(text, source), source)


def write_document(path: Union[str, Path], doc: BenchDocument) -> None:
    atomic_write(path, dump_document(doc))


def read_document(path: Union[str, Path]) -> BenchDocument:
    return load_document(Path(path).read_text(encoding="utf-8"), path)


def find_document(path: Union[str, Path],
                  default_name: str = "BENCH.json") -> Path:
    """Resolve a baseline argument: a file, or a directory holding
    ``BENCH.json`` (the checked-in ``benchmarks/baselines/`` layout)."""
    p = Path(path)
    if p.is_dir():
        return p / default_name
    return p


# --- the trajectory -----------------------------------------------------------


def _trajectory_record(doc: BenchDocument) -> Dict[str, object]:
    return {
        "format": BENCH_FORMAT,
        "version": BENCH_SCHEMA_VERSION,
        "environment": doc.environment.to_dict(),
        "min_s": {name: result.min_s
                  for name, result in sorted(doc.results.items())},
    }


def trajectory_line(doc: BenchDocument) -> str:
    """One compact JSON line: provenance + min-of-repeats per benchmark."""
    return dumps_compact(_trajectory_record(doc))


def append_trajectory(path: Union[str, Path], doc: BenchDocument) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        append_jsonl(fh, _trajectory_record(doc))


def read_trajectory(path: Union[str, Path]) -> List[Dict[str, object]]:
    """All repro-bench records, oldest first; records of another format
    are skipped. The torn tail of a killed append is tolerated, a
    corrupt line anywhere else is a :class:`repro.wire.FormatError`."""
    try:
        return [entry for entry in read_jsonl(path)
                if isinstance(entry, dict)
                and entry.get("format") == BENCH_FORMAT]
    except FileNotFoundError:
        return []
