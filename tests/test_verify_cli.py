"""CLI tests for ``repro verify`` and ``repro campaign --check``:
error paths, exit codes, report/bench emission, and the replay flow."""

from __future__ import annotations

import json

import pytest

from repro.bench.schema import read_document
from repro.campaign.spec import ExperimentSpec
from repro.cli import main
from repro.verify.fuzzer import ScenarioFuzzer
from repro.verify.report import read_report

SEED = 7


# --- argument & artifact error paths ------------------------------------------


def test_unknown_suite_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_replay_of_missing_artifact_fails(tmp_path, capsys):
    rc = main(["verify", "--replay", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "cannot replay" in capsys.readouterr().err


def test_replay_of_malformed_artifact_fails(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text(json.dumps({"format": "wrong"}), encoding="utf-8")
    rc = main(["verify", "--replay", str(path)])
    assert rc == 1
    assert "cannot replay" in capsys.readouterr().err


def test_report_to_unwritable_path_fails(tmp_path, capsys):
    # A zero-case fuzz run is the cheapest way to reach the report
    # writer; the missing parent directory makes the write fail.
    rc = main(["verify", "--suite", "fuzz", "--max-cases", "0",
               "--report", str(tmp_path / "no" / "such" / "dir" / "r.jsonl"),
               "--repro-dir", str(tmp_path / "failures")])
    assert rc == 1
    assert "cannot write" in capsys.readouterr().err


# --- failing-check exit code via replay ---------------------------------------


def _planted_repro(tmp_path):
    """A replayable artifact for a case that fails while the
    ``legacy_horizon`` fixture plants the historical horizon bug."""
    spec = ExperimentSpec.make(
        "verify_case", "mini3", SEED, case="scenario", index=0,
        t0=64, n_flows=2, huge_file=True, delta_s=4.0)
    fuzzer = ScenarioFuzzer(root_seed=SEED,
                            repro_dir=tmp_path / "failures")
    return fuzzer.write_repro(spec, failures=[])


def test_replay_exits_nonzero_when_checks_fail(tmp_path, capsys,
                                               legacy_horizon):
    path = _planted_repro(tmp_path)
    rc = main(["verify", "--replay", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL oracle.default_horizon" in out
    assert "replayed verify_case/mini3" in out


# --- suite run with report + bench emission -----------------------------------


@pytest.mark.slow
def test_smoke_suite_writes_report_and_bench(tmp_path, capsys,
                                             monkeypatch):
    report_path = tmp_path / "verify.jsonl"
    bench_path = tmp_path / "BENCH_verify.json"
    monkeypatch.setenv("BENCH_VERIFY_JSON", str(bench_path))
    rc = main(["verify", "--suite", "smoke", "--seed", str(SEED),
               "--report", str(report_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "checks passed" in out

    header, results = read_report(report_path)
    assert header["suite"] == "smoke"
    assert results and all(r.passed for r in results)

    # The timing record rides in the unified repro-bench schema.
    doc = read_document(bench_path)
    result = doc.results["verify.smoke"]
    assert result.min_s > 0
    assert result.metrics["failed"] == 0.0
    assert "verify" in result.tags


@pytest.mark.fuzz
def test_fuzz_suite_honours_max_cases(tmp_path, capsys):
    rc = main(["verify", "--suite", "fuzz", "--max-cases", "2",
               "--seed", str(SEED),
               "--repro-dir", str(tmp_path / "failures")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "suite 'fuzz'" in out


# --- campaign --check ---------------------------------------------------------


_CAMPAIGN_ARGS = ["campaign", "--kind", "scenario", "--preset", "mini3",
                  "--scenarios", "mini3-mixed", "--horizon", "60",
                  "--workers", "0", "--quiet"]


def _run_scenario_campaign(tmp_path, capsys):
    path = tmp_path / "campaign.jsonl"
    rc = main(_CAMPAIGN_ARGS + ["--out", str(path)])
    capsys.readouterr()
    assert rc == 0
    return path


def test_campaign_check_passes_on_clean_artifact(tmp_path, capsys):
    path = _run_scenario_campaign(tmp_path, capsys)
    # Resume is the default: the re-run only sweeps the finished artifact.
    rc = main(_CAMPAIGN_ARGS + ["--out", str(path), "--check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "satisfy all invariants" in out


def test_campaign_check_flags_tampered_stats(tmp_path, capsys):
    path = _run_scenario_campaign(tmp_path, capsys)
    lines = path.read_text(encoding="utf-8").splitlines()
    task = json.loads(lines[1])
    task["stats"] = {"quanta": 1, "invariant_violations": 3,
                     "max_domain_airtime": 2.0,
                     "domain_airtime": {"plc": 9.0},
                     "domain_quanta": {"plc": 1}}
    lines[1] = json.dumps(task, sort_keys=True,
                          separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    rc = main(_CAMPAIGN_ARGS + ["--out", str(path), "--check"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "invariant violation(s)" in err
    assert "artifact.runner_stats" in err


def test_campaign_check_rejects_missing_file(tmp_path, capsys):
    from repro.cli import _check_artifact

    assert _check_artifact(str(tmp_path / "absent.jsonl")) == 1
    assert "cannot check" in capsys.readouterr().err
