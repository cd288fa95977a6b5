"""Sim-time tracing: the tracer, the task-scoped install, the sidecar.

The sidecar identity contract — header line plus events sorted by
``(task_key, seq)``, canonical JSON — is what makes a traced campaign's
``.trace.jsonl`` byte-identical at any worker count; the end-to-end check
lives in ``tests/test_campaign_properties.py``, the mechanism is pinned
here.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    FakeClock,
    TraceEvent,
    Tracer,
    current_tracer,
    read_trace,
    task_trace,
    trace_path_for,
    write_trace,
)


# --- the tracer ---------------------------------------------------------------


def test_events_and_spans_carry_sim_time_only():
    tracer = Tracer()
    tracer.event("flow_done", 12.5, flow="cbr")
    tracer.span("run", 10.0, 20.0, quanta=40)
    point, span = tracer.events
    assert point.sim_time == 12.5 and point.duration_s is None
    assert point.attrs == {"flow": "cbr"} and point.wall is None
    assert span.sim_time == 10.0 and span.duration_s == 10.0
    assert span.wall is None
    assert "wall" not in point.to_dict()


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.event("x", 1.0)
    tracer.span("y", 1.0, 2.0)
    assert tracer.events == []
    assert NULL_TRACER.enabled is False


def test_wall_clock_annotation_is_opt_in():
    tracer = Tracer(wall_clock=FakeClock(start=42.0))
    tracer.event("x", 1.0)
    assert tracer.events[0].wall == 42.0
    assert tracer.to_dicts()[0]["wall"] == 42.0


def test_event_roundtrips_through_dict():
    event = TraceEvent("a", 3.0, duration_s=1.5, attrs={"k": 1})
    assert TraceEvent.from_dict(event.to_dict()) == event


# --- the task-scoped current tracer -------------------------------------------


def test_task_trace_installs_and_restores():
    assert current_tracer() is NULL_TRACER
    with task_trace(enabled=True) as tracer:
        assert current_tracer() is tracer
        current_tracer().event("inside", 5.0)
    assert current_tracer() is NULL_TRACER
    assert [e.name for e in tracer.events] == ["inside"]


def test_task_trace_restores_on_error():
    with pytest.raises(RuntimeError):
        with task_trace(enabled=True):
            raise RuntimeError("boom")
    assert current_tracer() is NULL_TRACER


def test_task_trace_disabled_still_scopes():
    with task_trace(enabled=False) as tracer:
        current_tracer().event("dropped", 1.0)
    assert tracer.events == []


def test_task_trace_is_thread_local():
    """Regression: the ``thread`` execution backend runs tasks
    concurrently in one process; overlapping installs on a process-
    global slot captured each other's events (or none)."""
    import threading

    captured = {}
    barrier = threading.Barrier(4)

    def worker(name):
        with task_trace(enabled=True) as tracer:
            barrier.wait()  # every thread holds its tracer at once
            assert current_tracer() is tracer
            tracer.event(name, 1.0)
            barrier.wait()  # nobody restores until all have emitted
        captured[name] = [e.name for e in tracer.events]
        assert current_tracer() is NULL_TRACER

    threads = [threading.Thread(target=worker, args=(f"task-{k}",))
               for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert captured == {f"task-{k}": [f"task-{k}"] for k in range(4)}


# --- the sidecar --------------------------------------------------------------


def test_trace_path_for_mirrors_quarantine_convention(tmp_path):
    assert trace_path_for(tmp_path / "camp.jsonl") == \
        tmp_path / "camp.trace.jsonl"


def _events(n, offset=0.0):
    tracer = Tracer()
    for k in range(n):
        tracer.event("quantum", offset + k)
    return tracer.to_dicts()


def test_write_trace_is_canonical_in_task_order(tmp_path):
    by_task = {"b/task": _events(2, 10.0), "a/task": _events(3)}
    path_a = write_trace(tmp_path / "a.trace.jsonl", by_task, name="t")
    reversed_order = dict(reversed(list(by_task.items())))
    path_b = write_trace(tmp_path / "b.trace.jsonl", reversed_order,
                         name="t")
    assert path_a.read_bytes() == path_b.read_bytes()

    header, events = read_trace(path_a)
    assert header == {"format": "repro-trace", "version": 1, "name": "t"}
    assert [(e["task_key"], e["seq"]) for e in events] == [
        ("a/task", 0), ("a/task", 1), ("a/task", 2),
        ("b/task", 0), ("b/task", 1)]
    # Canonical JSON: sorted keys, no whitespace.
    line = path_a.read_text().splitlines()[1]
    assert json.dumps(json.loads(line), sort_keys=True,
                      separators=(",", ":")) == line


def test_write_trace_replaces_atomically(tmp_path):
    path = tmp_path / "x.trace.jsonl"
    write_trace(path, {"t": _events(1)})
    write_trace(path, {"t": _events(2)})
    _, events = read_trace(path)
    assert len(events) == 2
    assert not path.with_suffix(path.suffix + ".tmp").exists()


def test_read_trace_rejects_non_trace_files(tmp_path):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"format":"something-else"}\n')
    with pytest.raises(ValueError, match="not a repro-trace file"):
        read_trace(bogus)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="not a repro-trace file"):
        read_trace(empty)
