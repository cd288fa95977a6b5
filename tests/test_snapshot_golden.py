"""The snapshot wire format: golden document, refusals, store.

The checked-in golden under
``tests/golden/snapshot_runner.json`` freezes the exact document a
paused canonical run serialises to — any unintentional payload or
header change shows up as a golden diff, and an *intentional* change
forces a deliberate ``--update-golden`` (and, for shape changes, a
``SNAPSHOT_VERSION`` bump). The refusals pin the other half of the
contract: unversioned, foreign, future or corrupt blobs are refused
loudly, never half-restored into a "deterministic" run (the cases every
file format shares are in ``tests/test_wire.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.compile import checkout_testbed
from repro.netsim.runner import ScenarioRunner
from repro.netsim.scenario import Scenario, build_scenario
from repro.obs.metrics import MetricsRegistry
from repro.snapshot import (
    SNAPSHOT_VERSION,
    FormatError,
    Snapshot,
    SnapshotStore,
    content_hash,
    dump_snapshot,
    load_snapshot,
    read_snapshot,
    write_snapshot,
)

GOLDEN = Path(__file__).parent / "golden" / "snapshot_runner.json"

#: The canonical paused run the golden freezes: mini3-mixed on seed 7,
#: paused 37 s into a 120 s horizon starting Wednesday 2 pm.
PRESET, SEED = "mini3", 7
T0 = 2 * 24 * 3600.0 + 14 * 3600.0
HORIZON_S, PAUSE_AT_S = 120.0, 37.0


def _paused_runner():
    runner = ScenarioRunner(checkout_testbed(PRESET, seed=SEED),
                            metrics=MetricsRegistry())
    scenario = build_scenario("mini3-mixed", T0)
    results = runner.run(scenario, horizon_s=HORIZON_S,
                         until_s=T0 + PAUSE_AT_S)
    assert runner.paused
    return runner, scenario, results


# --- the golden document ------------------------------------------------------


def test_golden_snapshot_document(golden):
    runner, scenario, results = _paused_runner()
    document = json.loads(dump_snapshot(runner.snapshot(scenario,
                                                        results)))
    golden("snapshot_runner.json", document)


def test_golden_file_is_a_loadable_snapshot_and_resumes():
    """The checked-in golden is itself a valid wire blob (the conftest
    golden writer and ``dump_snapshot`` share one canonical JSON form):
    loading it and resuming on a fresh world completes the run."""
    snap = read_snapshot(GOLDEN)
    assert snap.kind == "scenario-runner"
    runner = ScenarioRunner(checkout_testbed(PRESET, seed=SEED),
                            metrics=MetricsRegistry())
    scenario = build_scenario("mini3-mixed", T0)
    results = runner.resume(scenario, snap)
    assert not runner.paused
    assert set(results) == {f.name for f in scenario.flows}

    # On the platform that generated the golden this is the full
    # determinism contract: identical to the never-paused run.
    straight = ScenarioRunner(checkout_testbed(PRESET, seed=SEED),
                              metrics=MetricsRegistry())
    reference = straight.run(scenario, horizon_s=HORIZON_S)
    assert {n: r.to_dict() for n, r in results.items()} == \
        {n: r.to_dict() for n, r in reference.items()}


def test_dump_is_canonical_and_roundtrip_stable():
    runner, scenario, results = _paused_runner()
    snap = runner.snapshot(scenario, results)
    blob = dump_snapshot(snap)
    assert blob.endswith("\n")
    assert dump_snapshot(load_snapshot(blob)) == blob
    header = json.loads(blob)
    assert header["format"] == "repro-snapshot"
    assert header["version"] == SNAPSHOT_VERSION
    assert header["content_hash"] == content_hash(snap.payload)
    # The wire form is the compact canonical dump of the whole envelope.
    assert blob == json.dumps(header, sort_keys=True, separators=(",", ":"),
                              allow_nan=False) + "\n"


# --- refusals -----------------------------------------------------------------


def _valid_document():
    return json.loads(dump_snapshot(Snapshot(kind="scenario-runner",
                                             payload={"t": 1.5})))


def test_refuses_unversioned_blob():
    blob = _valid_document()
    del blob["format"]
    with pytest.raises(FormatError,
                       match="not a repro-snapshot file \\(format None\\)"):
        load_snapshot(json.dumps(blob))


def test_refuses_missing_kind_and_payload():
    blob = _valid_document()
    del blob["kind"]
    with pytest.raises(FormatError, match="no 'kind'"):
        load_snapshot(json.dumps(blob))
    blob = _valid_document()
    blob["payload"] = "not-a-dict"
    with pytest.raises(FormatError, match="no 'payload'"):
        load_snapshot(json.dumps(blob))


def test_refuses_nan_payloads():
    with pytest.raises(ValueError):
        dump_snapshot(Snapshot(kind="k", payload={"x": float("nan")}))


def test_resume_refuses_wrong_kind_and_quantum():
    """Every resume refusal: a checkpoint of another kind, or one whose
    quantum, flow set, stream seed or cache geometry differs from the
    runner it is handed to, is refused before a quantum runs."""
    runner, scenario, results = _paused_runner()
    snap = runner.snapshot(scenario, results)

    def fresh(seed=SEED, **options):
        return ScenarioRunner(checkout_testbed(PRESET, seed=seed),
                              metrics=MetricsRegistry(), **options)

    with pytest.raises(ValueError, match="cannot resume a 'foreign-kind'"):
        fresh().resume(scenario, Snapshot(kind="foreign-kind",
                                          payload=snap.payload))
    with pytest.raises(ValueError, match="quantum_s"):
        fresh(quantum_s=0.25).resume(scenario, snap)
    fewer_flows = Scenario(name=scenario.name, flows=scenario.flows[1:])
    with pytest.raises(ValueError, match="flow set does not match"):
        fresh().resume(fewer_flows, snap)
    with pytest.raises(ValueError, match=f"taken at seed {SEED}"):
        fresh(seed=SEED + 1).resume(scenario, snap)
    with pytest.raises(ValueError, match="cache snapshot geometry"):
        fresh(cache_window_s=2.0).resume(scenario, snap)


# --- atomic writes and the checkpoint store -----------------------------------


def test_write_snapshot_is_atomic(tmp_path):
    path = tmp_path / "deep" / "nested" / "snap.json"
    snap = Snapshot(kind="scenario-runner", payload={"t": 3.0})
    write_snapshot(path, snap)
    assert read_snapshot(path).payload == {"t": 3.0}
    leftovers = [p for p in path.parent.iterdir() if p != path]
    assert not leftovers, f"temp files left behind: {leftovers}"


def test_store_roundtrip_and_chain_adjacency(tmp_path):
    store = SnapshotStore(tmp_path / "ckpt")
    key = "scenario/mini3/s7/abcdef123456"
    for index in range(3):
        store.save(key, index, Snapshot(kind="scenario-slice",
                                        payload={"slice": index}))
    assert store.load(key, 1).payload == {"slice": 1}
    names = sorted(p.name for p in (tmp_path / "ckpt").iterdir())
    assert len(names) == 3
    # One hashed prefix per task: the chain sorts ls-adjacent.
    assert len({n.split("-")[0] for n in names}) == 1
