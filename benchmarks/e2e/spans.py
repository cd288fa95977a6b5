"""In-memory span recording around the program's public entry points.

The traced run installs a wrapper around each entry point named in
:data:`ENTRY_POINTS`. A wrapper records one span — name, start, end,
parent span and the task key of the dispatch unit it ran under — and
may tally counts from the call's arguments and result. Spans stay in
memory until the run ends. Nothing here touches the program's own
metrics, profiler or tracer planes: parent and change are measured by
this file alone.

Wrap granularity matters: ``ElectricalLoad.state_signature`` (thousands
of calls per round) is cheap enough to wrap, ``ActivityModel.is_on``
(hundreds of thousands) is not.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

ROOT_SPAN = "round"


class Span(NamedTuple):
    span_id: int
    parent_id: int  # -1 for a root span
    name: str
    start: float
    end: float
    task_key: str


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per span name: each span's duration minus the time its
    direct children cover. Children of one parent never overlap (one
    thread, strictly nested calls), so their durations add up."""
    child_cover: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id >= 0:
            child_cover[span.parent_id] += span.end - span.start
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += (span.end - span.start
                              - child_cover.get(span.span_id, 0.0))
    return dict(totals)


@dataclass
class SpanRecorder:
    """A stack of open spans plus everything closed so far."""

    clock: Callable[[], float] = time.perf_counter
    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=lambda:
                                     defaultdict(float))
    task_key: str = ""
    _stack: List[tuple] = field(default_factory=list)
    _next_id: int = 0

    def open(self, name: str) -> None:
        self._stack.append((self._next_id, name, self.clock()))
        self._next_id += 1

    def close(self) -> Span:
        end = self.clock()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        span = Span(span_id, parent, name, start, end, self.task_key)
        self.spans.append(span)
        return span

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def take(self) -> tuple:
        """Hand over and forget the spans and counts recorded so far."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


# --- what gets wrapped ----------------------------------------------------------

Tally = Callable[[SpanRecorder, tuple, dict, object], None]


class EntryPoint(NamedTuple):
    module: str
    #: ``"name"`` (module function) or ``"Class.method"``.
    attr: str
    span: str
    tally: Optional[Tally] = None


def _count_calls(counter: str) -> Tally:
    def tally(rec, args, kwargs, result):
        rec.count(counter)
    return tally


def _tally_plc_series(rec, args, kwargs, result):
    rec.count("plc.samples", len(args[1]))


def _tally_snr_groups(rec, args, kwargs, result):
    rec.count("plc.groups", len(result))


def _tally_wifi_series(rec, args, kwargs, result):
    rec.count("wifi.samples", len(args[1]))


def _tally_checkpoint(rec, args, kwargs, result):
    size = result.stat().st_size
    rec.count("snapshot.checkpoints")
    rec.count("snapshot.bytes", size)
    rec.counts["snapshot.bytes_max"] = max(
        rec.counts["snapshot.bytes_max"], size)


#: The public entry points of each layer, innermost first. A name bound
#: by ``from x import y`` must be wrapped where it is looked up:
#: ``repro.campaign.tasks`` binds ``checkout_testbed``, the backends bind
#: ``execute_spec`` and the runner binds the snapshot codecs.
ENTRY_POINTS = (
    EntryPoint("repro.powergrid.load", "ElectricalLoad.state_signature",
               "powergrid.signature",
               _count_calls("powergrid.signature_calls")),
    EntryPoint("repro.powergrid.load",
               "ElectricalLoad.impulsive_event_rate_at", "powergrid.impulse",
               _count_calls("powergrid.impulse_calls")),
    EntryPoint("repro.powergrid.load", "ElectricalLoad.noise_psd_at",
               "powergrid.noise", _count_calls("powergrid.noise_calls")),
    EntryPoint("repro.plc.phy", "ble_from_snr", "plc.phy",
               _count_calls("plc.phy_calls")),
    EntryPoint("repro.plc.phy", "pb_error_probability", "plc.phy",
               _count_calls("plc.phy_calls")),
    EntryPoint("repro.plc.channel", "PlcChannel.snr_db", "plc.snr"),
    EntryPoint("repro.plc.channel", "PlcChannel.snr_series_groups",
               "plc.batch", _tally_snr_groups),
    EntryPoint("repro.plc.link", "PlcLink.sample_series", "plc.batch",
               _tally_plc_series),
    EntryPoint("repro.plc.link", "PlcLink.throughput_bps", "plc.scalar",
               _count_calls("plc.scalar_calls")),
    EntryPoint("repro.wifi.link", "WifiLink.sample_series", "wifi.batch",
               _tally_wifi_series),
    EntryPoint("repro.wifi.link", "WifiLink.throughput_bps", "wifi.scalar",
               _count_calls("wifi.scalar_calls")),
    EntryPoint("repro.testbed.experiments", "measure_pair",
               "testbed.measure"),
    EntryPoint("repro.netsim.runner", "ScenarioRunner.run", "netsim.loop"),
    EntryPoint("repro.netsim.runner", "ScenarioRunner.resume",
               "netsim.loop"),
    EntryPoint("repro.netsim.runner", "ScenarioRunner.snapshot",
               "snapshot.save"),
    EntryPoint("repro.netsim.runner", "restore_streams", "snapshot.load"),
    EntryPoint("repro.netsim.runner", "restore_cache", "snapshot.load"),
    EntryPoint("repro.snapshot.store", "SnapshotStore.save",
               "snapshot.save", _tally_checkpoint),
    EntryPoint("repro.snapshot.store", "SnapshotStore.load",
               "snapshot.load"),
    EntryPoint("repro.compile", "compile_testbed", "compile.checkout",
               _count_calls("compile.builds")),
    EntryPoint("repro.campaign.tasks", "checkout_testbed",
               "compile.checkout", _count_calls("compile.checkouts")),
    EntryPoint("repro.campaign.artifacts", "ArtifactWriter.write",
               "campaign.write"),
    EntryPoint("repro.campaign.artifacts", "ArtifactWriter.finalize",
               "campaign.write"),
    EntryPoint("repro.campaign.backends", "execute_spec", "campaign.task"),
)


def _resolve(entry: EntryPoint):
    owner = importlib.import_module(entry.module)
    *path, name = entry.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _wrapper(rec: SpanRecorder, entry: EntryPoint, fn):
    span, tally = entry.span, entry.tally
    is_task = entry.span == "campaign.task"

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if is_task:
            rec.task_key = args[0].task_key()
        rec.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close()
        if tally is not None:
            tally(rec, args, kwargs, result)
        return result

    return wrapped


@contextmanager
def installed(rec: SpanRecorder):
    """Wrap every entry point for the ``with`` block, then restore them."""
    saved = []
    try:
        for entry in ENTRY_POINTS:
            owner, name = _resolve(entry)
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, _wrapper(rec, entry, original))
        yield rec
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
