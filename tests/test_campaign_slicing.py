"""Time-sliced campaign execution: byte-identity and crash-resume.

The tentpole contract: splitting a long-horizon scenario task into K
checkpointed slices (``slice_horizon_s``) changes *nothing* about the
finalized artifact — not at any K, not on any backend, not after a
crash anywhere in the run. These tests pin the engine mechanics the
``diff_slice_equivalence`` oracle sweeps more broadly: chain
scheduling, checkpoint placement, crash-resume from both the artifact
and the checkpoint store, and refusal of mismatched or corrupt
checkpoint chains (reusing the truncate-the-artifact kill harness from
``test_campaign_properties.py``), and checkpoints that stay the same
size however far into a run they are taken.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.campaign import CampaignAborted, ExperimentSpec, run_campaign
from repro.obs.trace import trace_path_for
from repro.snapshot import SnapshotStore, snapshot_dir_for

pytestmark = pytest.mark.slow

PRESET = "mini3"
HORIZON_S = 120.0
SLICE_HORIZON_S = 30.0  # -> 4 slices per scenario task
NUM_SLICES = 4


def _specs():
    """Two sliceable scenario tasks plus ride-along unsliced kinds."""
    return (
        [ExperimentSpec.make("scenario", PRESET, seed,
                             scenario="mini3-mixed",
                             horizon_s=HORIZON_S)
         for seed in (7, 8)]
        + [ExperimentSpec.make("rng_probe", PRESET, 7, idx=k, draws=4)
           for k in range(2)]
        + [ExperimentSpec.make("survey_pair", PRESET, 7, src=0, dst=1,
                               duration_s=2.0, interval_s=0.5)])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One straight and one sliced clean run, shared by every test."""
    base = tmp_path_factory.mktemp("slicing")
    straight = base / "straight.jsonl"
    run_campaign(_specs(), straight, workers=0, resume=False)

    sliced = base / "sliced.jsonl"
    events = []
    stats = run_campaign(
        _specs(), sliced, workers=0, resume=False,
        slice_horizon_s=SLICE_HORIZON_S,
        progress=lambda event, detail, s: events.append(event))
    assert stats.completed == len(_specs())
    return {
        "reference": straight.read_bytes(),
        "sliced_path": sliced,
        "sliced_bytes": sliced.read_bytes(),
        "checkpoints": snapshot_dir_for(sliced),
        "slice_events": events.count("slice"),
    }


def test_sliced_artifact_matches_straight(runs):
    assert runs["sliced_bytes"] == runs["reference"]


def test_intermediate_slices_checkpoint_to_the_sidecar_dir(runs):
    ckpt_dir = runs["checkpoints"]
    assert ckpt_dir.is_dir()
    files = sorted(p.name for p in ckpt_dir.glob("*.json"))
    # Two scenario tasks, up to NUM_SLICES-1 intermediate checkpoints
    # each (fewer when the scenario completes early inside a slice).
    assert files
    assert len({name.split("-")[0] for name in files}) == 2
    # Each task chained through at least one intermediate pause.
    assert runs["slice_events"] >= 2


def test_control_side_channel_never_reaches_the_artifact(runs):
    lines = runs["sliced_bytes"].decode("utf-8").splitlines()
    for line in lines:
        record = json.loads(line)
        assert "control" not in record
        spec = record.get("spec") or {}
        # Final results are rewritten to the original task identity.
        assert spec.get("kind") != "scenario_slice"


def test_sliced_process_backend_matches_straight(tmp_path):
    out = tmp_path / "pooled.jsonl"
    stats = run_campaign(_specs(), out, workers=2, backend="process",
                         resume=False,
                         slice_horizon_s=SLICE_HORIZON_S)
    assert stats.completed == len(_specs())
    ref = tmp_path / "straight.jsonl"
    run_campaign(_specs(), ref, workers=0, resume=False)
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("kill_after,torn", [(0, False), (1, True),
                                             (2, False), (4, True)])
def test_resume_after_kill_matches_uninterrupted_run(runs, tmp_path,
                                                     kill_after, torn):
    """Kill a sliced campaign mid-task (the truncate-the-artifact
    harness): keep ``kill_after`` finalized lines, maybe a torn partial
    line, and the full checkpoint sidecar — the finalized artifact
    after resume is byte-identical to the uninterrupted run."""
    lines = runs["sliced_bytes"].decode("utf-8").splitlines(keepends=True)
    survived = "".join(lines[: 1 + kill_after])
    if torn and 1 + kill_after < len(lines):
        tail = lines[1 + kill_after]
        survived += tail[: max(1, len(tail) // 2)]
    victim = tmp_path / "victim.jsonl"
    victim.write_text(survived)
    shutil.copytree(runs["checkpoints"], snapshot_dir_for(victim))

    events = []
    stats = run_campaign(
        _specs(), victim, workers=0, slice_horizon_s=SLICE_HORIZON_S,
        progress=lambda event, detail, s: events.append(event))
    assert stats.resumed == kill_after
    assert victim.read_bytes() == runs["reference"]
    # Interrupted scenario tasks restart from their newest on-disk
    # checkpoint, not from scratch: strictly fewer intermediate pauses
    # than the clean sliced run needed.
    if kill_after < len(_specs()):
        assert events.count("slice") < runs["slice_events"]


def test_resume_without_checkpoints_recomputes_from_scratch(runs,
                                                            tmp_path):
    """A crash that also lost the checkpoint sidecar still finalizes
    byte-identically — every slice chain just restarts at zero."""
    lines = runs["sliced_bytes"].decode("utf-8").splitlines(keepends=True)
    victim = tmp_path / "victim.jsonl"
    victim.write_text(lines[0])  # header only: no task completed
    events = []
    run_campaign(_specs(), victim, workers=0,
                 slice_horizon_s=SLICE_HORIZON_S,
                 progress=lambda event, detail, s: events.append(event))
    assert victim.read_bytes() == runs["reference"]
    assert events.count("slice") == runs["slice_events"]


def test_corrupt_newest_checkpoint_falls_back(runs, tmp_path):
    """A torn checkpoint (killed mid-``os.replace`` window) is skipped:
    resume restores the older slice and the artifact stays identical."""
    victim = tmp_path / "victim.jsonl"
    victim.write_text(
        runs["sliced_bytes"].decode("utf-8").splitlines(keepends=True)[0])
    ckpts = snapshot_dir_for(victim)
    shutil.copytree(runs["checkpoints"], ckpts)
    for path in sorted(ckpts.glob("*.json"))[-1:]:
        path.write_text("{torn", encoding="utf-8")
    run_campaign(_specs(), victim, workers=0,
                 slice_horizon_s=SLICE_HORIZON_S)
    assert victim.read_bytes() == runs["reference"]


def test_mismatched_slicing_plan_ignores_stale_checkpoints(runs,
                                                           tmp_path):
    """Checkpoints from a different ``--slice-horizon`` belong to a
    different chain: they are refused (not half-reused) and the run
    still finalizes byte-identically."""
    victim = tmp_path / "victim.jsonl"
    victim.write_text(
        runs["sliced_bytes"].decode("utf-8").splitlines(keepends=True)[0])
    shutil.copytree(runs["checkpoints"], snapshot_dir_for(victim))
    run_campaign(_specs(), victim, workers=0,
                 slice_horizon_s=40.0)  # 3 slices, not 4
    assert victim.read_bytes() == runs["reference"]


def test_older_snapshot_version_restarts_the_chain(runs, tmp_path):
    """Checkpoints in an older wire version are refused, not migrated:
    every chain restarts at slice 0 and the artifact stays identical."""
    victim = tmp_path / "victim.jsonl"
    victim.write_text(
        runs["sliced_bytes"].decode("utf-8").splitlines(keepends=True)[0])
    ckpts = snapshot_dir_for(victim)
    shutil.copytree(runs["checkpoints"], ckpts)
    for path in ckpts.glob("*.json"):
        document = json.loads(path.read_text(encoding="utf-8"))
        document["version"] = 1
        path.write_text(json.dumps(document, indent=1, sort_keys=True),
                        encoding="utf-8")
    events = []
    run_campaign(_specs(), victim, workers=0,
                 slice_horizon_s=SLICE_HORIZON_S,
                 progress=lambda event, detail, s: events.append(event))
    assert victim.read_bytes() == runs["reference"]
    assert events.count("slice") == runs["slice_events"]


def test_traced_rerun_restarts_an_untraced_chain(runs, tmp_path):
    """A traced rerun over an untraced run's checkpoints (artifact
    deleted, ``<stem>.snapshots/`` kept) must not resume it: the chain
    carries no trace segments, so resuming would write a sidecar that
    silently lacks the earlier slices' events."""
    victim = tmp_path / "victim.jsonl"
    shutil.copytree(runs["checkpoints"], snapshot_dir_for(victim))
    run_campaign(_specs(), victim, workers=0, trace=True,
                 slice_horizon_s=SLICE_HORIZON_S)
    straight = tmp_path / "straight.jsonl"
    run_campaign(_specs(), straight, workers=0, resume=False, trace=True)
    assert victim.read_bytes() == runs["reference"]
    assert trace_path_for(victim).read_bytes() == \
        trace_path_for(straight).read_bytes()


@pytest.mark.parametrize("damage", ["torn", "missing"])
def test_lost_trace_segment_fails_the_task_loudly(tmp_path, damage):
    """The final traced slice replays checkpoint 0's trace segment; if
    that segment is torn or gone by then, the task fails and no sidecar
    is written, rather than a trace missing the first slice."""
    out = tmp_path / "longhaul.jsonl"
    spec = ExperimentSpec.make("scenario", PRESET, 7,
                               scenario="mini3-longhaul", horizon_s=480.0)
    first = SnapshotStore(snapshot_dir_for(out)).path_for(
        spec.task_key(), 0)

    def damage_first_segment(event, detail, stats):
        if event == "slice" and detail.endswith(" 3/4"):
            if damage == "torn":
                first.write_text("{torn", encoding="utf-8")
            else:
                first.unlink()

    with pytest.raises(CampaignAborted):
        run_campaign([spec], out, workers=0, resume=False, trace=True,
                     retries=0, slice_horizon_s=120.0,
                     progress=damage_first_segment)
    assert not trace_path_for(out).exists()


@pytest.mark.parametrize("trace", [False, True])
def test_checkpoints_stay_flat_over_a_long_run(tmp_path, trace):
    """A checkpoint holds live state only — no quantum history, no dead
    cache windows, only its own slice's trace events — so the newest one
    of an eight-slice long-haul run is about as large as the first."""
    out = tmp_path / "longhaul.jsonl"
    spec = ExperimentSpec.make("scenario", PRESET, 7,
                               scenario="mini3-longhaul", horizon_s=960.0)
    run_campaign([spec], out, workers=0, resume=False, trace=trace,
                 slice_horizon_s=120.0)
    sizes = [path.stat().st_size
             for path in sorted(snapshot_dir_for(out).glob("*.json"))]
    assert len(sizes) == 7
    assert sizes[-1] <= 1.5 * sizes[0], sizes


def test_cli_slice_horizon_flag_plumbs_through(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "cli.jsonl"
    code = main(["campaign", "--kind", "scenario", "--preset", PRESET,
                 "--scenarios", "mini3-mixed", "--seeds", "7",
                 "--horizon", "60", "--workers", "0",
                 "--slice-horizon", "20", "--quiet",
                 "--out", str(out)])
    assert code == 0
    ref = tmp_path / "ref.jsonl"
    run_campaign([ExperimentSpec.make("scenario", PRESET, 7,
                                      scenario="mini3-mixed", day=2,
                                      hour=14.0, horizon_s=60.0)],
                 ref, name="scenario-mini3", workers=0, resume=False)
    assert out.read_bytes() == ref.read_bytes()
    assert snapshot_dir_for(out).is_dir()
