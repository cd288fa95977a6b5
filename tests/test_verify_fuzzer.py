"""ScenarioFuzzer tests: deterministic case generation, the campaign
round trip, budget handling, and the acceptance demonstration — a
deliberately planted runner bug is caught by the fuzz suite and replays
from its archived repro artifact."""

from __future__ import annotations

import json

import pytest

from repro.campaign.spec import ExperimentSpec
from repro.campaign.tasks import execute_spec
from repro.obs.clock import FakeClock
from repro.obs.metrics import MetricsRegistry
from repro.verify.fuzzer import (
    CASE_KINDS,
    REPRO_FORMAT,
    ScenarioFuzzer,
    replay_repro,
)

pytestmark = pytest.mark.fuzz

SEED = 7


def _fuzzer(tmp_path, **kwargs):
    kwargs.setdefault("root_seed", SEED)
    kwargs.setdefault("presets", ("mini3",))
    kwargs.setdefault("metrics", MetricsRegistry())
    return ScenarioFuzzer(repro_dir=tmp_path / "failures", **kwargs)


# --- case generation ----------------------------------------------------------


def test_case_specs_are_deterministic(tmp_path):
    a = _fuzzer(tmp_path)
    b = _fuzzer(tmp_path)
    for index in range(8):
        assert a.case_spec(index).task_key() == \
            b.case_spec(index).task_key()


def test_case_kinds_rotate_round_robin(tmp_path):
    fuzzer = _fuzzer(tmp_path)
    kinds = [fuzzer.case_spec(k).params_dict["case"] for k in range(8)]
    assert tuple(kinds[:4]) == CASE_KINDS
    assert kinds[:4] == kinds[4:]


def test_runner_options_are_embedded_in_the_spec(tmp_path):
    fuzzer = _fuzzer(tmp_path, runner_options={"quantum_s": 0.25})
    spec = fuzzer.case_spec(0)  # index 0 is a scenario case
    assert spec.params_dict["case"] == "scenario"
    assert spec.params_dict["quantum_s"] == 0.25


def test_cases_execute_through_the_campaign_registry(tmp_path):
    spec = _fuzzer(tmp_path).case_spec(3)  # relabel: cheapest kind
    output = execute_spec(spec)
    assert output.stats["case"] == "relabel"
    assert output.stats["failed"] == 0
    assert len(output.records) == output.stats["checks"] > 0


def test_unknown_case_kind_rejected(tmp_path):
    spec = ExperimentSpec.make("verify_case", "mini3", SEED,
                               case="bogus", index=0, t0=0)
    with pytest.raises(ValueError, match="unknown verify case"):
        execute_spec(spec)


# --- run loop -----------------------------------------------------------------


def test_budget_is_enforced_via_injected_clock(tmp_path):
    clock = FakeClock()
    fuzzer = _fuzzer(tmp_path)
    results = fuzzer.run(max_cases=10, budget_s=0.0, clock=clock)
    assert results == []
    assert fuzzer.metrics.counter("verify.fuzz.cases") == 0


def test_clean_run_archives_nothing(tmp_path):
    fuzzer = _fuzzer(tmp_path)
    results = fuzzer.run(max_cases=4)
    assert results and all(r.passed for r in results)
    assert fuzzer.metrics.counter("verify.fuzz.cases") == 4
    assert fuzzer.metrics.counter("verify.fuzz.failures") == 0
    assert not fuzzer.repro_dir.exists()


# --- the acceptance demonstration ---------------------------------------------


def _first_failing_run(tmp_path, max_cases=8):
    """Fuzz until the first failure; callers plant the historical
    horizon double offset with the ``legacy_horizon`` fixture."""
    fuzzer = _fuzzer(tmp_path, presets=("mini3", "wing-b2"))
    results = fuzzer.run(max_cases=max_cases, stop_on_failure=True)
    return fuzzer, results


def test_fuzzer_catches_planted_horizon_bug(tmp_path, legacy_horizon):
    fuzzer, results = _first_failing_run(tmp_path)
    failures = [r for r in results if not r.passed]
    assert failures, "planted bug escaped the fuzz suite"
    # The double offset surfaces exactly where it should: the
    # default-horizon oracle (and the time-shift relation built on it).
    assert {f.check for f in failures} <= {"oracle.default_horizon",
                                           "relation.time_shift"}
    assert fuzzer.metrics.counter("verify.fuzz.failures") >= 1


def test_planted_bug_failure_replays_from_repro_artifact(tmp_path,
                                                        legacy_horizon):
    fuzzer, results = _first_failing_run(tmp_path)
    artifacts = sorted(fuzzer.repro_dir.glob("repro-*.json"))
    assert artifacts, "no repro artifact written for the failure"
    data = json.loads(artifacts[0].read_text(encoding="utf-8"))
    assert data["format"] == REPRO_FORMAT
    assert data["failures"]

    # The artifact is self-contained: replay re-derives the testbed,
    # scenario and runner options from the spec alone and, with the bug
    # still planted, the same checks fail again.
    spec, replayed = replay_repro(artifacts[0])
    assert spec.task_key() == data["task_key"]
    replayed_failures = {(r.check, r.subject)
                         for r in replayed if not r.passed}
    original_failures = {(f["check"], f["subject"])
                         for f in data["failures"]}
    assert replayed_failures == original_failures


def test_replay_rejects_foreign_json(tmp_path):
    path = tmp_path / "not-a-repro.json"
    path.write_text(json.dumps({"format": "something-else"}),
                    encoding="utf-8")
    with pytest.raises(ValueError, match="not a verify-repro"):
        replay_repro(path)
