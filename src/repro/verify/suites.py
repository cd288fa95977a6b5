"""Named verification suites behind ``repro verify --suite {...}``.

* ``smoke`` — a fast deterministic sweep on a small preset (default
  ``mini3``): one oracle/relation/invariant of every family, sized for a
  pre-commit or CI-gate run.
* ``full``  — the complete deterministic battery on the paper's full
  testbed (default ``office``): everything in smoke on office links,
  plus the campaign-engine equivalences (inline vs process pool, traced
  vs untraced, byte-identity across all four execution backends, and
  time-sliced vs straight execution) and a library-scenario invariant
  run.
* ``fuzz``  — the :class:`~repro.verify.fuzzer.ScenarioFuzzer`, bounded
  by a case budget and a wall-clock budget.

Every suite returns a :class:`~repro.verify.report.VerifyReport` whose
serialized form (:func:`~repro.verify.report.write_report`) is canonical
JSONL — byte-stable for identical outcomes.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.campaign.spec import ExperimentSpec
from repro.compile import checkout_testbed
from repro.netsim.scenario import FlowRequest, Scenario
from repro.obs.clock import Clock
from repro.obs.metrics import MetricsRegistry
from repro.testbed.builder import Testbed
from repro.verify import metamorphic, oracles
from repro.verify.fuzzer import ScenarioFuzzer, invariant_results
from repro.verify.report import VerifyReport, from_messages

#: suite name -> (default preset, description).
SUITES: Dict[str, Tuple[str, str]] = {
    "smoke": ("mini3", "fast deterministic sweep (pre-commit / CI gate)"),
    "full": ("office", "complete deterministic battery on the paper's "
                       "testbed"),
    "fuzz": ("mini3", "seeded randomized search with a time budget"),
}


def suite_names() -> Tuple[str, ...]:
    return tuple(sorted(SUITES))


def _pairs(testbed: Testbed) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """A (plc, wifi) directed pair present on this testbed."""
    plc = testbed.same_board_pairs()[0]
    wifi = testbed.all_pairs()[0]
    return (int(plc[0]), int(plc[1])), (int(wifi[0]), int(wifi[1]))


def _suite_scenario(testbed: Testbed, t0: float,
                    include_bulk: bool) -> Scenario:
    """A small mixed-media scenario used by the deterministic suites."""
    (pi, pj), (wi, wj) = _pairs(testbed)
    scenario = Scenario(name="verify-suite")
    scenario.add(FlowRequest(name="sat-plc", src=pi, dst=pj, start_s=t0,
                             kind="saturated", medium="plc",
                             duration_s=20.0))
    scenario.add(FlowRequest(name="cbr-wifi", src=wi, dst=wj,
                             start_s=t0 + 2.0, kind="cbr", medium="wifi",
                             rate_bps=8e6, duration_s=20.0))
    scenario.add(FlowRequest(name="file-hybrid", src=pi, dst=pj,
                             start_s=t0 + 4.0, kind="file",
                             medium="hybrid", size_bytes=2e6))
    if include_bulk:
        # A transfer that cannot finish inside the horizon: the input
        # class on which the default-deadline contract actually bites.
        scenario.add(FlowRequest(name="bulk", src=pj, dst=pi, start_s=t0,
                                 kind="file", medium="plc",
                                 size_bytes=1e12))
    return scenario


def _deterministic_checks(report: VerifyReport, preset: str, seed: int,
                          metrics: Optional[MetricsRegistry],
                          runner_options: Optional[Dict[str, object]],
                          plc_grid: int, wifi_grid: int) -> None:
    """The shared smoke/full battery against one preset."""
    from repro.plc.tonemap import generate_tone_map

    t0 = 64.0
    # Two identically seeded checkouts of one compiled world: measured
    # sampling consumes noise streams, so the lockstep reference needs
    # its own fresh-RNG view.
    testbed = checkout_testbed(preset, seed=seed)
    lockstep = checkout_testbed(preset, seed=seed)
    (pi, pj), (wi, wj) = _pairs(testbed)

    # Differential: scalar vs vectorized sampling, both media, measured.
    ts_plc = t0 + np.arange(plc_grid) * 0.4
    ts_wifi = t0 + np.arange(wifi_grid) * 0.1
    report.add(from_messages(
        "oracle.scalar_vs_vectorized", f"plc:{pi}->{pj}",
        oracles.diff_scalar_vs_vectorized(
            testbed.plc_link(pi, pj), lockstep.plc_link(pi, pj),
            ts_plc)))
    report.add(from_messages(
        "oracle.scalar_vs_vectorized", f"wifi:{wi}->{wj}",
        oracles.diff_scalar_vs_vectorized(
            testbed.wifi_link(wi, wj), lockstep.wifi_link(wi, wj),
            ts_wifi)))

    # Range/validity invariants over freshly sampled series.
    report.extend(invariant_results(
        "series", testbed.plc_link(pi, pj).sample_series(
            ts_plc, measured=False), f"plc:{pi}->{pj}", metrics))
    report.extend(invariant_results(
        "series", testbed.wifi_link(wi, wj).sample_series(
            ts_wifi, measured=False), f"wifi:{wi}->{wj}", metrics))

    # Tone-map validity plus the paper's monotonicity relations.
    plc_link = testbed.plc_link(pi, pj)
    report.extend(invariant_results(
        "tonemap", generate_tone_map(plc_link.channel, t0, tmi=1),
        f"plc:{pi}->{pj}", metrics))
    report.add(from_messages(
        "relation.snr_monotonicity", f"plc:{pi}->{pj}",
        metamorphic.check_snr_monotonicity(plc_link, t0)))
    report.add(from_messages(
        "relation.attenuation_monotonicity", f"plc:{pi}->{pj}",
        metamorphic.check_attenuation_monotonicity(plc_link, t0)))

    # Scenario-level oracles and relations.
    options = dict(runner_options or {})
    options.setdefault("cache_window_s", 30.0)

    def factory(tb, **kwargs):
        from repro.netsim.runner import ScenarioRunner
        return ScenarioRunner(tb, **options, **kwargs)

    scenario = _suite_scenario(testbed, t0, include_bulk=True)
    report.add(from_messages(
        "oracle.default_horizon", scenario.name,
        oracles.diff_default_horizon(testbed, scenario,
                                     runner_factory=factory)))
    report.add(from_messages(
        "relation.time_shift", scenario.name,
        metamorphic.check_time_shift(testbed, scenario, delta_s=4.0,
                                     runner_factory=factory)))
    report.add(from_messages(
        "relation.file_size_scaling", f"wifi:{wi}->{wj}",
        metamorphic.check_file_size_scaling(testbed, wi, wj, "wifi",
                                            t0=t0,
                                            runner_factory=factory)))
    report.add(from_messages(
        "relation.cbr_contention", f"wifi:{wi}->{wj}",
        metamorphic.check_cbr_contention_monotonicity(
            testbed, wi, wj, "wifi", t0=t0, runner_factory=factory)))

    # Runner/flow invariants over a plain run of the suite scenario.
    runner = factory(testbed)
    flow_results = runner.run(scenario, horizon_s=90.0)
    report.extend(invariant_results("runner", runner.stats,
                                    scenario.name, metrics))
    report.extend(invariant_results("flow_results", flow_results,
                                    scenario.name, metrics))

    # Fault-plan replay equivalence.
    from repro.faults.plan import FaultPlan, FaultPlanConfig
    plan = FaultPlan.generate(
        root_seed=seed, name="verify-suite", horizon_s=30.0,
        targets={"links": [f"{pi}->{pj}", "*"]},
        config=FaultPlanConfig(outages=1, degradations=1,
                               snr_collapses=1), t0=t0)
    fault_scenario = Scenario(name="verify-faults")
    fault_scenario.add(FlowRequest(name="sat", src=pi, dst=pj,
                                   start_s=t0, kind="saturated",
                                   medium="plc", duration_s=30.0))
    report.add(from_messages(
        "oracle.fault_replay", f"plc:{pi}->{pj}",
        oracles.diff_fault_replay(testbed, fault_scenario, plan,
                                  horizon_s=30.0,
                                  runner_factory=factory)))

    # Hybrid packet pipeline: in-order release + packet conservation.
    from repro.hybrid.aggregator import HybridDevice
    from repro.verify.invariants import InvariantViolationError
    device = HybridDevice(testbed.plc_link(pi, pj),
                          testbed.wifi_link(pi, pj), testbed.streams,
                          metrics=metrics if metrics is not None
                          else MetricsRegistry())
    try:
        device.run_packet_level("hybrid", t0, duration=0.25,
                                check_invariants=True)
    except InvariantViolationError as exc:
        report.add(from_messages(
            "invariant.reorder_pipeline", f"hybrid:{pi}->{pj}",
            [str(v) for v in exc.violations]))
    else:
        report.add(from_messages(
            "invariant.reorder_pipeline", f"hybrid:{pi}->{pj}", []))

    # Seed relabeling of an aggregate link statistic.
    def evaluate(s: int) -> float:
        tb = checkout_testbed(preset, seed=s)
        (i, j), _ = _pairs(tb)
        return tb.wifi_link(i, j).capacity_bps(t0)

    report.add(from_messages(
        "relation.seed_relabeling", f"wifi:{preset}",
        oracles.diff_seed_relabeling(evaluate,
                                     [seed, seed + 1, seed + 2])))


def _campaign_checks(report: VerifyReport, preset: str,
                     seed: int) -> None:
    """Campaign-engine equivalences (full suite only: spawns pools)."""
    probes = [ExperimentSpec.make("rng_probe", preset, seed + k, draws=6)
              for k in range(4)]
    scenario_spec = ExperimentSpec.make("scenario", "mini3", seed,
                                        scenario="mini3-mixed",
                                        horizon_s=60.0)
    survey_spec = ExperimentSpec.make("survey_pair", "mini3", seed,
                                      src=0, dst=1, duration_s=2.0,
                                      interval_s=0.5)
    specs = probes + [scenario_spec, survey_spec]
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        report.add(from_messages(
            "oracle.traced_vs_untraced", f"campaign:{preset}",
            oracles.diff_traced_vs_untraced(specs,
                                            Path(tmp) / "trace")))
        report.add(from_messages(
            "oracle.backend_equivalence", f"campaign:{preset}",
            oracles.diff_backend_equivalence(specs,
                                             Path(tmp) / "backends")))
        report.add(from_messages(
            "oracle.slice_equivalence", f"campaign:{preset}",
            oracles.diff_slice_equivalence(specs, Path(tmp) / "slices")))


def _library_scenario_checks(report: VerifyReport, preset: str,
                             seed: int,
                             metrics: Optional[MetricsRegistry]) -> None:
    """Invariant-checked run of the library scenario for the preset."""
    from repro.netsim.runner import ScenarioRunner
    from repro.netsim.scenario import build_scenario

    name = "office-afternoon" if preset.startswith("office") \
        else "mini3-mixed"
    testbed = checkout_testbed(preset, seed=seed)
    scenario = build_scenario(name, 14 * 3600.0)
    runner = ScenarioRunner(testbed, cache_window_s=30.0)
    flow_results = runner.run(scenario, horizon_s=180.0)
    report.extend(invariant_results("runner", runner.stats, name,
                                    metrics))
    report.extend(invariant_results("flow_results", flow_results, name,
                                    metrics))


def run_suite(suite: str, preset: Optional[str] = None, seed: int = 7,
              budget_s: Optional[float] = None,
              max_cases: Optional[int] = None,
              repro_dir: str = "verify-failures",
              runner_options: Optional[Dict[str, object]] = None,
              metrics: Optional[MetricsRegistry] = None,
              clock: Optional[Clock] = None) -> VerifyReport:
    """Run one named suite and return its report.

    ``runner_options`` is forwarded to every ``ScenarioRunner`` the suite
    builds (and, for the fuzz suite, embedded in each case spec) — the
    hook the planted-bug acceptance test uses.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} "
                         f"(known: {', '.join(suite_names())})")
    default_preset, _ = SUITES[suite]
    preset = preset if preset else default_preset
    report = VerifyReport(suite=suite, seed=seed, preset=preset)
    if suite == "fuzz":
        fuzzer = ScenarioFuzzer(
            root_seed=seed,
            presets=(preset, "mini3") if preset != "mini3"
            else ("mini3", "wing-b2"),
            runner_options=runner_options, repro_dir=repro_dir,
            metrics=metrics if metrics is not None
            else MetricsRegistry())
        results = fuzzer.run(
            max_cases=max_cases if max_cases is not None else 64,
            budget_s=budget_s if budget_s is not None else 60.0,
            clock=clock)
        report.extend(results)
        return report
    if suite == "smoke":
        _deterministic_checks(report, preset, seed, metrics,
                              runner_options, plc_grid=10, wifi_grid=40)
        return report
    # full
    _deterministic_checks(report, preset, seed, metrics, runner_options,
                          plc_grid=16, wifi_grid=120)
    _campaign_checks(report, preset, seed)
    _library_scenario_checks(report, preset, seed, metrics)
    return report
