"""Tests of the benchmark's own arithmetic, on synthetic inputs.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from spans import ENTRY_POINTS, Span, SpanRecorder, installed, self_times
from summary import (
    END_TO_END,
    PER_LAYER,
    per_layer,
    round_layers,
    tail_percentile,
    unit_latencies,
)
from workloads import (
    WORKLOADS,
    RoundPlan,
    account_units,
    plan_scenario,
    plan_sliced,
    plan_survey,
    sim_seconds,
)

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _task(key, records=(), **stats):
    return SimpleNamespace(task_key=key, records=list(records),
                           stats=dict(stats))


def _spec(key):
    return SimpleNamespace(task_key=lambda: key)


# --- the percentile rule ----------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile([float(i) for i in range(99)], 0.9) is None
    samples = [float(i) for i in range(100)]
    assert tail_percentile(samples, 0.9) == 89.0
    assert sum(1 for x in samples if x > 89.0) == 10


def test_median_needs_only_ten_samples():
    assert tail_percentile([1.0] * 19, 0.5) is None
    assert tail_percentile([1.0] * 20, 0.5) == 1.0
    assert tail_percentile([], 0.5) is None


def test_unit_latencies_skip_non_unit_events():
    events = [("done", "a"), ("retry", "b"), ("slice", "c 1/2"),
              ("fail", "d")]
    assert unit_latencies(10.0, events, [11.0, 11.5, 13.0, 16.0]) == [
        1.0, 2.0, 3.0]


# --- span self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, 0, "child", 1.0, 4.0, "k"),
        Span(2, 1, "grandchild", 2.0, 3.0, "k"),
        Span(3, 0, "child", 5.0, 6.0, "k"),
        Span(0, -1, "round", 0.0, 10.0, ""),
    ]
    own = self_times(spans)
    assert own["round"] == pytest.approx(6.0)
    assert own["child"] == pytest.approx(3.0)
    assert own["grandchild"] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_recorder_nests_and_carries_the_task_key():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 7.0, 10.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    rec.open("round")
    rec.task_key = "survey_pair/office/s1/abc"
    rec.open("plc.batch")
    rec.open("plc.phy")
    rec.close()
    rec.close()
    rec.close()
    spans, _ = rec.take()
    phy, batch, root = spans
    assert (phy.parent_id, batch.parent_id, root.parent_id) == (
        batch.span_id, root.span_id, -1)
    assert phy.task_key == "survey_pair/office/s1/abc"
    assert self_times(spans) == pytest.approx(
        {"round": 4.0, "plc.batch": 5.0, "plc.phy": 1.0})
    assert rec.take() == ([], {})


def test_installed_wrappers_are_removed_on_exit():
    from repro.powergrid.load import ElectricalLoad

    original = ElectricalLoad.__dict__["state_signature"]
    with installed(SpanRecorder()):
        assert ElectricalLoad.__dict__["state_signature"] is not original
    assert ElectricalLoad.__dict__["state_signature"] is original


def test_round_layers_coverage_and_ratios():
    spans = [
        Span(1, 0, "powergrid.signature", 0.0, 2.0, "k"),
        Span(2, 0, "plc.phy", 2.0, 7.0, "k"),
        Span(0, -1, "round", 0.0, 8.0, ""),
    ]
    counts = {"plc.samples": 100.0, "plc.groups": 64.0,
              "compile.builds": 1.0, "compile.checkouts": 4.0}
    stats = [{"quanta": 10, "cache_hits": 9, "cache_misses": 1}]
    layers = round_layers(spans, counts, stats)
    assert layers["powergrid.signature_s"] == pytest.approx(2.0)
    assert layers["plc.phy_s"] == pytest.approx(5.0)
    layers.update({"campaign.units": 4, "campaign.failed": 0,
                   "campaign.retries": 0, "campaign.bytes": 10})
    out = per_layer([layers, layers], [0.25, 0.75])
    assert set(out) == set(PER_LAYER)
    assert out["trace.coverage"] == pytest.approx(7.0 / 8.0)
    assert out["plc.groups_per_sample"] == pytest.approx(0.64)
    assert out["netsim.cache_hit_rate"] == pytest.approx(0.9)
    assert out["compile.hit_rate"] == pytest.approx(0.75)
    assert out["trace.overhead_s"] == pytest.approx(0.5)
    assert out["snapshot.bytes_mean"] == 0.0


# --- failed-unit counting -----------------------------------------------------------


def _survey_plan(*keys):
    return RoundPlan(specs=[_spec(k) for k in keys], fixed_sim_s=1.0)


def test_malformed_survey_record_fails_its_unit():
    good = {"plc_mean_mbps": 40.0, "plc_std_mbps": 1.0,
            "wifi_mean_mbps": 20.0, "wifi_std_mbps": 2.0}
    bad = dict(good, wifi_std_mbps=math.nan)
    plan = _survey_plan("a", "b", "c")
    tasks = [_task("a", [good]), _task("b", [bad]), _task("c", [good, good])]
    events = [("done", "a"), ("done", "b"), ("done", "c")]
    attempted, failed, failures = account_units(
        WORKLOADS["survey"], plan, tasks, events)
    assert (attempted, failed) == (3, 2)
    assert set(failures) == {"b", "c"}
    assert "wifi_std_mbps" in failures["b"]


def test_raised_and_missing_units_count_once():
    plan = _survey_plan("a", "b")
    good = {"plc_mean_mbps": 1.0, "plc_std_mbps": 0.0,
            "wifi_mean_mbps": 1.0, "wifi_std_mbps": 0.0}
    events = [("done", "a"), ("fail", "b")]
    attempted, failed, failures = account_units(
        WORKLOADS["survey"], plan, [_task("a", [good])], events)
    assert (attempted, failed) == (2, 1)
    assert failures == {"b": "no artifact line"}


def test_bad_sliced_task_fails_every_slice():
    plan = RoundPlan(specs=[_spec("scenario/mini3/s1/x")], quantum_s=1.0)
    events = [("slice", "scenario/mini3/s1/x 1/3"),
              ("slice", "scenario/mini3/s1/x 2/3"),
              ("done", "scenario/mini3/s1/x")]
    bad = _task("scenario/mini3/s1/x", quanta=3, invariant_violations=1,
                max_domain_airtime=1.0)
    attempted, failed, _ = account_units(WORKLOADS["sliced"], plan, [bad],
                                         events)
    assert (attempted, failed) == (3, 3)


def test_slice_key_in_artifact_is_rejected():
    plan = RoundPlan(specs=[_spec("scenario/mini3/s1/x")], quantum_s=1.0)
    leaked = _task("scenario_slice/mini3/s1/y", quanta=3,
                   invariant_violations=0, max_domain_airtime=1.0)
    _, failed, failures = account_units(
        WORKLOADS["sliced"], plan, [leaked],
        [("done", "scenario_slice/mini3/s1/y")])
    assert failures["scenario_slice/mini3/s1/y"] == "unexpected task key"
    assert failures["scenario/mini3/s1/x"] == "no artifact line"
    assert failed == 1


def test_airtime_above_one_fails():
    plan = RoundPlan(specs=[_spec("k")], quantum_s=0.5)
    over = _task("k", quanta=2, invariant_violations=0,
                 max_domain_airtime=1.0 + 1e-3)
    _, failed, failures = account_units(WORKLOADS["scenario"], plan,
                                        [over], [("done", "k")])
    assert failed == 1 and "max_domain_airtime" in failures["k"]


# --- sim_rate numerators ------------------------------------------------------------


def test_sim_seconds_per_workload():
    survey = plan_survey(3, 0)
    assert len(survey.specs) == 120
    assert sim_seconds(survey, []) == 120 * 2 * 5.0
    scenario = plan_scenario(3, 0)
    tasks = [_task(s.task_key(), quanta=480) for s in scenario.specs]
    assert sim_seconds(scenario, tasks) == 4 * 480 * 0.5
    sliced = plan_sliced(3, 0)
    assert sliced.config == {"slice_horizon_s": 7200.0}
    assert sim_seconds(sliced, [_task("k", quanta=168)]) == 168 * 7200.0


def test_inputs_depend_on_seed_and_round_only():
    a, b = plan_survey(5, 1), plan_survey(5, 1)
    assert [s.task_key() for s in a.specs] == [s.task_key() for s in b.specs]
    assert [s.task_key() for s in plan_survey(5, 2).specs] != [
        s.task_key() for s in a.specs]


def test_every_wrapped_entry_point_feeds_a_reported_metric():
    for entry in ENTRY_POINTS:
        assert entry.span + "_s" in PER_LAYER, entry


def test_benchmark_json_names_the_metrics_this_code_prints():
    if not BENCHMARK_JSON.exists():
        pytest.skip("BENCHMARK.json not present")
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
