"""``repro bench`` CLI: happy paths on the cheap meta benchmark, and
every documented error path (unknown name, missing baseline, schema
version mismatch, unwritable outputs)."""

from __future__ import annotations

import json

import pytest

from repro.bench.schema import (
    BENCH_SCHEMA_VERSION,
    BenchDocument,
    BenchResult,
    Environment,
    write_document,
)
from repro.cli import main


def _bench_doc(tmp_path, name="meta.noop", samples=(0.001, 0.001)):
    doc = BenchDocument(environment=Environment.capture())
    doc.add(BenchResult(name=name, samples_s=samples))
    path = tmp_path / "BENCH.json"
    write_document(path, doc)
    return path


# --- run ----------------------------------------------------------------------


def test_bench_run_writes_document_and_trajectory(tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    trajectory = tmp_path / "trajectory.jsonl"
    rc = main(["bench", "run", "meta.noop", "--out", str(out),
               "--trajectory", str(trajectory)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "meta.noop: min" in captured.out
    assert "smoke floors: all hold" in captured.out
    data = json.loads(out.read_text())
    assert data["format"] == "repro-bench"
    assert data["version"] == BENCH_SCHEMA_VERSION
    assert "meta.noop" in data["results"]
    assert trajectory.read_text().count("\n") == 1


def test_bench_run_unknown_name(capsys):
    rc = main(["bench", "run", "meta.nope"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown benchmark 'meta.nope'" in err
    assert "did you mean meta.noop" in err


def test_bench_run_requires_names_or_all(capsys):
    rc = main(["bench", "run"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "name at least one benchmark or pass --all" in err


def test_bench_run_rejects_names_plus_all(capsys):
    rc = main(["bench", "run", "meta.noop", "--all"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not both" in err


def test_bench_run_unwritable_out(capsys):
    rc = main(["bench", "run", "meta.noop",
               "--out", "/nonexistent-dir/deep/BENCH.json"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "cannot write" in err


# --- compare ------------------------------------------------------------------


def test_bench_compare_self_passes(tmp_path, capsys):
    path = _bench_doc(tmp_path)
    rc = main(["bench", "compare", str(path), str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gate: OK" in out


def test_bench_compare_live_candidate_against_baseline(tmp_path, capsys):
    path = _bench_doc(tmp_path, samples=(10.0, 10.0))  # generous floor
    rc = main(["bench", "compare", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "meta.noop" in out


def test_bench_compare_fails_on_regression(tmp_path, capsys):
    baseline = _bench_doc(tmp_path, name="stub.gone",
                          samples=(0.1, 0.1, 0.1))
    candidate = tmp_path / "cand.json"
    doc = BenchDocument(environment=Environment.capture())
    doc.add(BenchResult(name="stub.gone", samples_s=(0.3, 0.3, 0.3)))
    write_document(candidate, doc)
    rc = main(["bench", "compare", str(baseline), str(candidate)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out and "gate: FAIL" in out


def test_bench_compare_missing_baseline(capsys):
    rc = main(["bench", "compare", "/no/such/BENCH.json"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "cannot read baseline" in err


def test_bench_compare_baseline_directory_resolution(tmp_path, capsys):
    _bench_doc(tmp_path, samples=(10.0, 10.0))
    rc = main(["bench", "compare", str(tmp_path)])
    assert rc == 0
    assert "gate: OK" in capsys.readouterr().out


def test_bench_compare_schema_version_mismatch(tmp_path, capsys):
    path = _bench_doc(tmp_path)
    data = json.loads(path.read_text())
    data["version"] = BENCH_SCHEMA_VERSION + 41
    path.write_text(json.dumps(data))
    rc = main(["bench", "compare", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "is version 42 (newer); this program reads only version 1" \
        in err


def test_bench_compare_rejects_legacy_ad_hoc_baseline(tmp_path, capsys):
    path = tmp_path / "BENCH_medium.json"
    path.write_text(json.dumps(
        {"plc": {"scalar_s": 18.0, "batch_s": 1.5}}))
    rc = main(["bench", "compare", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "not a repro-bench file" in err


def test_bench_compare_candidate_errors_are_reported(tmp_path, capsys):
    baseline = _bench_doc(tmp_path)
    rc = main(["bench", "compare", str(baseline), "/no/such/cand.json"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "cannot read candidate" in err


# --- report / list ------------------------------------------------------------


def test_bench_report_prints_results_and_environment(tmp_path, capsys):
    path = _bench_doc(tmp_path)
    rc = main(["bench", "report", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "min-of-repeats" in out
    assert "meta.noop" in out
    assert "environment: python" in out


def test_bench_report_trajectory_view(tmp_path, capsys):
    out_doc = tmp_path / "BENCH.json"
    trajectory = tmp_path / "trajectory.jsonl"
    assert main(["bench", "run", "meta.noop", "--quiet",
                 "--out", str(out_doc),
                 "--trajectory", str(trajectory)]) == 0
    assert main(["bench", "run", "meta.noop", "--quiet",
                 "--trajectory", str(trajectory)]) == 0
    capsys.readouterr()
    rc = main(["bench", "report", str(trajectory), "--trajectory"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 run(s)" in out
    assert "last/first" in out


def test_bench_report_rejects_non_bench_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("not json at all")
    rc = main(["bench", "report", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "not a JSON document" in err


def test_bench_report_missing_file(capsys):
    rc = main(["bench", "report", "/no/such/BENCH.json"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "cannot read" in err


def test_bench_report_empty_trajectory(tmp_path, capsys):
    rc = main(["bench", "report", str(tmp_path / "t.jsonl"),
               "--trajectory"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "no trajectory records" in err


def test_bench_list_shows_registry_and_manifest(capsys):
    rc = main(["bench", "list"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "meta.noop" in out
    assert "test_bench_harness" in out
    assert "runner.nine_flows" in out


def test_bench_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["bench"])
