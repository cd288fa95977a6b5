"""Span/event tracing keyed on sim-time, persisted as a JSONL sidecar.

The determinism rule: a trace event carries **sim-time only**, so the
event stream of a task is a pure function of its spec — identical at any
worker count, stable across seeds of the *scheduler* (task seeds still
shape the simulated behaviour, as they should). Wall-clock may be added
as an optional annotation for local debugging (``Tracer(wall_clock=...)``)
at the cost of that identity; it is off by default and campaign tracing
never enables it.

Traces are a **sidecar** (``<artifact>.trace.jsonl``), never part of the
result artifact: turning tracing on must not move a single byte of
results. The sidecar has its own canonical form — header line, then one
line per event sorted by ``(task_key, seq)`` — so two traced runs of the
same campaign produce byte-identical sidecars too. It is written and
read through :mod:`repro.wire`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.obs.clock import Clock
from repro.wire import atomic_write, dumps_jsonl, read_headed_jsonl

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


@dataclass
class TraceEvent:
    """One point (or span) on the sim-time axis.

    ``duration_s`` distinguishes spans (>= 0) from point events (None);
    both are anchored at ``sim_time``. ``wall`` is the optional wall-clock
    annotation and MUST stay None for any trace meant to be deterministic.
    """

    name: str
    sim_time: float
    duration_s: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    wall: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name,
                                "sim_time": self.sim_time}
        if self.duration_s is not None:
            data["duration_s"] = self.duration_s
        if self.attrs:
            data["attrs"] = self.attrs
        if self.wall is not None:
            data["wall"] = self.wall
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEvent":
        return cls(name=data["name"], sim_time=data["sim_time"],
                   duration_s=data.get("duration_s"),
                   attrs=dict(data.get("attrs", {})),
                   wall=data.get("wall"))


class Tracer:
    """Collects :class:`TraceEvent` values; a disabled tracer is free.

    Instrumented code guards with ``if tracer.enabled:`` so the hot path
    pays one attribute read when tracing is off.
    """

    def __init__(self, enabled: bool = True,
                 wall_clock: Optional[Clock] = None):
        self.enabled = enabled
        self.wall_clock = wall_clock
        self.events: List[TraceEvent] = []

    def event(self, name: str, sim_time: float, **attrs: Any) -> None:
        """Record a point event at ``sim_time``."""
        if not self.enabled:
            return
        self.events.append(TraceEvent(
            name=name, sim_time=float(sim_time), attrs=attrs,
            wall=self.wall_clock.now() if self.wall_clock else None))

    def span(self, name: str, sim_start: float, sim_end: float,
             **attrs: Any) -> None:
        """Record a span covering ``[sim_start, sim_end]`` in sim-time."""
        if not self.enabled:
            return
        self.events.append(TraceEvent(
            name=name, sim_time=float(sim_start),
            duration_s=float(sim_end) - float(sim_start), attrs=attrs,
            wall=self.wall_clock.now() if self.wall_clock else None))

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Events as plain dicts, in emission order (which is itself
        deterministic for sim-driven code)."""
        return [event.to_dict() for event in self.events]

    def clear(self) -> None:
        self.events.clear()


#: Shared no-op tracer for call sites without one injected.
NULL_TRACER = Tracer(enabled=False)


# --- the per-task current tracer ----------------------------------------------

#: Thread-local slot: the ``thread`` execution backend runs several
#: tasks concurrently in one process, so a process-global here would let
#: overlapping :func:`task_trace` installs capture each other's events.
_CURRENT = threading.local()


def current_tracer() -> Tracer:
    """The tracer of the currently executing task (disabled by default).

    Campaign task executors cannot grow a ``tracer`` parameter without
    breaking every registered kind, so the engine's worker shim installs
    one around :func:`repro.campaign.tasks.execute_spec` via
    :func:`task_trace`; executors just read this.
    """
    return getattr(_CURRENT, "tracer", NULL_TRACER)


@contextmanager
def task_trace(enabled: bool) -> Iterator[Tracer]:
    """Install a fresh tracer as :func:`current_tracer` for one task."""
    previous = getattr(_CURRENT, "tracer", NULL_TRACER)
    _CURRENT.tracer = Tracer(enabled=enabled)
    try:
        yield _CURRENT.tracer
    finally:
        _CURRENT.tracer = previous


# --- sidecar persistence ------------------------------------------------------


def trace_path_for(artifact_path: Union[str, Path]) -> Path:
    """``campaign.jsonl`` -> ``campaign.trace.jsonl`` (next to the
    artifact, mirroring the quarantine sidecar convention)."""
    path = Path(artifact_path)
    return path.with_name(f"{path.stem}.trace.jsonl")


def write_trace(path: Union[str, Path],
                events_by_task: Mapping[str, List[Dict[str, Any]]],
                name: str = "trace") -> Path:
    """Write the canonical trace sidecar.

    One header line, then every event as ``{"task_key", "seq", ...}``
    sorted by ``(task_key, seq)`` — per-task emission order is preserved
    (it is sim-deterministic), task order is canonicalised, so the bytes
    are identical at any worker count.
    """
    path = Path(path)
    header = {"format": TRACE_FORMAT, "version": TRACE_VERSION,
              "name": name}
    atomic_write(path, dumps_jsonl([header] + [
        {**event, "task_key": task_key, "seq": seq}
        for task_key in sorted(events_by_task)
        for seq, event in enumerate(events_by_task[task_key])]))
    return path


def read_trace(path: Union[str, Path]
               ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load a trace sidecar: (header, event lines in file order)."""
    header, lines = read_headed_jsonl(path, TRACE_FORMAT, TRACE_VERSION)
    return header, list(lines)
