"""`ScenarioFuzzer`: seeded random search over the verification surface.

Every fuzz case is an ordinary :class:`repro.campaign.ExperimentSpec` of
kind ``verify_case`` — its parameters fully describe a randomized
scenario/series/fault/relabel check, and the executor registered here is
a pure function of the spec. That buys the fuzzer the whole campaign
contract for free: a failing case has a ``task_key``, derives its
randomness via :func:`repro.sim.random.derive_seed`, and replays
bit-identically from its serialized spec — the minimal-repro artifact is
just the spec plus the failing check results.

Case kinds rotate round-robin:

* ``scenario`` — a random flow mix on a preset testbed; runs the
  default-horizon differential oracle, frozen-link time-shift
  equivariance, and the runner/flow invariants;
* ``series``  — a random link/time grid; scalar-vs-vectorized oracle
  plus series and tone-map invariants and SNR monotonicity;
* ``faults``  — a generated :class:`~repro.faults.plan.FaultPlan`; the
  serialize-replay oracle plus attenuation monotonicity;
* ``relabel`` — seed-relabeling invariance of link-capacity aggregates.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.campaign.spec import ExperimentSpec
from repro.campaign.tasks import TaskOutput, register_task
from repro.compile import checkout_testbed
from repro.obs.clock import Clock, SystemClock
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.sim.random import RandomStreams, derive_seed
from repro.verify import invariants, metamorphic, oracles
from repro.verify.report import CheckResult, from_messages
from repro.wire import atomic_write, check_envelope, dumps_indented, loads

REPRO_FORMAT = "verify-repro"
REPRO_VERSION = 1

#: The rotation of case families (round-robin over the case index).
CASE_KINDS = ("scenario", "series", "faults", "relabel")

#: Runner options a fuzz case may carry; they bound case cost.
_RUNNER_OPTION_KEYS = ("quantum_s", "cache_window_s")


# --- case execution (the ``verify_case`` campaign task) -----------------------


def _stations_for(testbed, medium: str,
                  rng: np.random.Generator) -> Tuple[int, int]:
    """Pick a connected directed pair for ``medium`` on this testbed."""
    pairs = testbed.same_board_pairs() if medium == "plc" \
        else testbed.all_pairs()
    i, j = pairs[int(rng.integers(len(pairs)))]
    if rng.integers(2):
        i, j = j, i
    return int(i), int(j)


def _fuzz_scenario(testbed, rng: np.random.Generator, t0: float,
                   n_flows: int, huge_file: bool):
    """A random flow mix. ``huge_file`` adds a transfer that cannot
    complete inside the horizon — the input class that separates the
    correct default deadline from the double-offset one."""
    from repro.netsim.scenario import FlowRequest, Scenario

    scenario = Scenario(name="verify-fuzz")
    kinds = ("saturated", "cbr", "file")
    media = ("plc", "wifi", "hybrid")
    for k in range(n_flows):
        medium = media[int(rng.integers(len(media)))]
        pair_medium = "plc" if medium in ("plc", "hybrid") else "wifi"
        src, dst = _stations_for(testbed, pair_medium, rng)
        kind = kinds[int(rng.integers(len(kinds)))]
        start = t0 + float(rng.integers(0, 16)) * 0.5
        duration = float(rng.integers(10, 40))
        if kind == "file":
            scenario.add(FlowRequest(
                name=f"flow{k}", src=src, dst=dst, start_s=start,
                kind="file", medium=medium,
                size_bytes=float(rng.integers(1, 40)) * 1e5))
        elif kind == "cbr":
            scenario.add(FlowRequest(
                name=f"flow{k}", src=src, dst=dst, start_s=start,
                kind="cbr", medium=medium, duration_s=duration,
                rate_bps=float(rng.integers(1, 30)) * 1e6))
        else:
            scenario.add(FlowRequest(
                name=f"flow{k}", src=src, dst=dst, start_s=start,
                kind="saturated", medium=medium, duration_s=duration))
    if huge_file:
        src, dst = _stations_for(testbed, "plc", rng)
        scenario.add(FlowRequest(
            name="bulk", src=src, dst=dst, start_s=t0, kind="file",
            medium="plc", size_bytes=1e12))
    return scenario


def _runner_factory_from(params: Dict[str, object],
                         metrics: Optional[MetricsRegistry] = None):
    """Runner factory honouring the spec's runner options."""
    options = {k: params[k] for k in _RUNNER_OPTION_KEYS if k in params}
    options.setdefault("cache_window_s", 30.0)

    def factory(testbed, **kwargs):
        from repro.netsim.runner import ScenarioRunner
        return ScenarioRunner(testbed, metrics=metrics, **options,
                              **kwargs)
    return factory


def _case_scenario(spec: ExperimentSpec,
                   p: Dict[str, object]) -> List[CheckResult]:
    testbed = checkout_testbed(spec.preset, seed=spec.seed)
    rng = RandomStreams(seed=spec.task_seed()).get("case")
    t0 = float(p["t0"])
    scenario = _fuzz_scenario(testbed, rng, t0, int(p["n_flows"]),
                              bool(p["huge_file"]))
    metrics = MetricsRegistry()
    factory = _runner_factory_from(p, metrics=metrics)
    results: List[CheckResult] = []

    results.append(from_messages(
        "oracle.default_horizon", scenario.name,
        oracles.diff_default_horizon(testbed, scenario,
                                     runner_factory=factory)))
    results.append(from_messages(
        "relation.time_shift", scenario.name,
        metamorphic.check_time_shift(testbed, scenario,
                                     delta_s=float(p["delta_s"]),
                                     runner_factory=factory)))
    # One plain run: its stats and flow results must satisfy the
    # registry invariants regardless of the flow mix.
    runner = factory(testbed)
    flow_results = runner.run(scenario)
    results.extend(invariant_results(
        "runner", runner.stats, scenario.name, metrics))
    results.extend(invariant_results(
        "flow_results", flow_results, scenario.name, metrics))
    return results


def _case_series(spec: ExperimentSpec,
                 p: Dict[str, object]) -> List[CheckResult]:
    # Two identically seeded checkouts: measured sampling consumes the
    # noise stream, so the scalar reference needs its own view (both are
    # forks of one compiled template — built once, not twice).
    testbed_a = checkout_testbed(spec.preset, seed=spec.seed)
    testbed_b = checkout_testbed(spec.preset, seed=spec.seed)
    medium = str(p["medium"])
    src, dst = int(p["src"]), int(p["dst"])
    link_a = testbed_a.link(medium, src, dst)
    link_b = testbed_b.link(medium, src, dst)
    subject = f"{medium}:{src}->{dst}"
    if link_a is None or link_b is None:
        return [from_messages("oracle.scalar_vs_vectorized", subject,
                              [f"no {medium} link for {src}->{dst}"])]
    t0 = float(p["t0"])
    ts = t0 + np.arange(int(p["n_points"])) * float(p["interval_s"])
    results = [from_messages(
        "oracle.scalar_vs_vectorized", subject,
        oracles.diff_scalar_vs_vectorized(link_a, link_b, ts,
                                          measured=bool(p["measured"])))]
    series = testbed_a.link(medium, src, dst).sample_series(
        ts, measured=False)
    results.extend(invariant_results("series", series, subject))
    if medium == "plc":
        results.append(from_messages(
            "relation.snr_monotonicity", subject,
            metamorphic.check_snr_monotonicity(link_a, t0)))
        channel = getattr(link_a, "channel", None)
        if channel is not None:
            from repro.plc.tonemap import generate_tone_map
            tone_map = generate_tone_map(channel, t0, tmi=1)
            results.extend(invariant_results("tonemap", tone_map, subject))
    return results


def _case_faults(spec: ExperimentSpec,
                 p: Dict[str, object]) -> List[CheckResult]:
    from repro.faults.plan import FaultPlan, FaultPlanConfig
    from repro.netsim.scenario import FlowRequest, Scenario

    testbed = checkout_testbed(spec.preset, seed=spec.seed)
    rng = RandomStreams(seed=spec.task_seed()).get("case")
    t0 = float(p["t0"])
    src, dst = _stations_for(testbed, "plc", rng)
    horizon = float(p["horizon_s"])
    plan = FaultPlan.generate(
        root_seed=spec.task_seed(), name="verify-fuzz",
        horizon_s=horizon,
        targets={"links": [f"{src}->{dst}", "*"]},
        config=FaultPlanConfig(outages=int(p["outages"]),
                               degradations=int(p["degradations"]),
                               snr_collapses=int(p["snr_collapses"])),
        t0=t0)
    scenario = Scenario(name="verify-faults")
    scenario.add(FlowRequest(name="sat", src=src, dst=dst, start_s=t0,
                             kind="saturated", medium="plc",
                             duration_s=horizon))
    scenario.add(FlowRequest(name="xfer", src=dst, dst=src, start_s=t0,
                             kind="file", medium="plc",
                             size_bytes=2e6))
    factory = _runner_factory_from(p)
    results = [from_messages(
        "oracle.fault_replay", f"plc:{src}->{dst}",
        oracles.diff_fault_replay(testbed, scenario, plan,
                                  horizon_s=horizon,
                                  runner_factory=factory))]
    link = testbed.plc_link(src, dst)
    if link is not None:
        results.append(from_messages(
            "relation.attenuation_monotonicity", f"plc:{src}->{dst}",
            metamorphic.check_attenuation_monotonicity(link, t0)))
    return results


def _case_relabel(spec: ExperimentSpec,
                  p: Dict[str, object]) -> List[CheckResult]:
    medium = str(p["medium"])
    t0 = float(p["t0"])
    seeds = [derive_seed(spec.seed, "relabel", str(k))
             for k in range(int(p["n_seeds"]))]

    def evaluate(seed: int) -> float:
        testbed = checkout_testbed(spec.preset, seed=seed)
        rng = RandomStreams(seed=derive_seed(seed, "relabel.pair")) \
            .get("pair")
        src, dst = _stations_for(testbed, medium, rng)
        link = testbed.link(medium, src, dst)
        return 0.0 if link is None else link.capacity_bps(t0)

    return [from_messages(
        "relation.seed_relabeling", f"{medium}:{spec.preset}",
        oracles.diff_seed_relabeling(evaluate, seeds))]


_CASE_EXECUTORS = {"scenario": _case_scenario, "series": _case_series,
                   "faults": _case_faults, "relabel": _case_relabel}


def invariant_results(kind: str, subject, subject_name: str,
                      metrics: Optional[MetricsRegistry] = None
                      ) -> List[CheckResult]:
    """Run registry invariants and express them as check results."""
    violations = invariants.check_invariants(kind, subject,
                                             subject_name=subject_name,
                                             metrics=metrics)
    by_name: Dict[str, List[str]] = {
        inv.name: [] for inv in invariants.invariants_for(kind)}
    for v in violations:
        by_name.setdefault(v.invariant, []).append(v.message)
    return [from_messages(f"invariant.{name}", subject_name, messages)
            for name, messages in sorted(by_name.items())]


@register_task("verify_case", uses_testbed=True,
               params=("index", "t0", "n_flows", "huge_file", "delta_s",
                       "medium", "src", "dst", "n_points", "interval_s",
                       "measured", "horizon_s", "outages", "degradations",
                       "snr_collapses", "n_seeds", "quantum_s",
                       "cache_window_s"),
               required=("case",))
def _verify_case(spec: ExperimentSpec, attempt: int) -> TaskOutput:
    """Campaign executor for one fuzz case (pure function of the spec)."""
    p = spec.params_dict
    case = str(p["case"])
    if case not in _CASE_EXECUTORS:
        raise ValueError(f"unknown verify case {case!r} "
                         f"(known: {sorted(_CASE_EXECUTORS)})")
    results = _CASE_EXECUTORS[case](spec, p)
    failures = sum(not r.passed for r in results)
    return TaskOutput(records=[r.to_dict() for r in results],
                      stats={"case": case, "checks": len(results),
                             "failed": failures})


# --- the fuzzer ---------------------------------------------------------------


class ScenarioFuzzer:
    """Generate, execute, and (on failure) archive randomized cases.

    All randomness flows from ``derive_seed(root_seed, "verify.fuzz",
    str(case_index))`` — two fuzzers with the same root seed produce the
    same spec sequence, and any single case replays from its spec alone.
    """

    def __init__(self, root_seed: int = 7,
                 presets: Sequence[str] = ("mini3", "wing-b2"),
                 runner_options: Optional[Dict[str, object]] = None,
                 repro_dir: Union[str, Path] = "verify-failures",
                 metrics: Optional[MetricsRegistry] = None):
        self.root_seed = int(root_seed)
        self.presets = tuple(presets)
        self.runner_options = dict(runner_options or {})
        self.repro_dir = Path(repro_dir)
        self.metrics = metrics if metrics is not None \
            else global_registry()

    # --- case generation ------------------------------------------------------

    def case_spec(self, index: int) -> ExperimentSpec:
        """The ``index``-th case, a pure function of the root seed."""
        case = CASE_KINDS[index % len(CASE_KINDS)]
        case_seed = derive_seed(self.root_seed, "verify.fuzz",
                                str(index))
        rng = RandomStreams(seed=case_seed).get("params")
        preset = self.presets[int(rng.integers(len(self.presets)))]
        params: Dict[str, object] = {
            "case": case, "index": index,
            # Integer t0 keeps the frozen-link shift relation exact.
            "t0": int(rng.integers(0, 256)),
        }
        if case == "scenario":
            params.update(
                n_flows=int(rng.integers(2, 5)),
                huge_file=bool(rng.integers(2)),
                delta_s=float(2 ** int(rng.integers(0, 4))))
            params.update(self.runner_options)
        elif case == "series":
            medium = ("plc", "wifi")[int(rng.integers(2))]
            # Pair indices are resolved against the preset's pair list
            # inside a throwaway checkout so the spec stays self-contained.
            probe = checkout_testbed(preset, seed=case_seed)
            src, dst = _stations_for(probe, medium, rng)
            params.update(
                medium=medium, src=src, dst=dst,
                n_points=int(rng.integers(8, 25)),
                interval_s=float(rng.integers(1, 20)) * 0.05,
                measured=bool(rng.integers(2)))
        elif case == "faults":
            params.update(
                horizon_s=float(rng.integers(20, 60)),
                outages=int(rng.integers(0, 3)),
                degradations=int(rng.integers(0, 3)),
                snr_collapses=int(rng.integers(0, 3)))
            params.update(self.runner_options)
        else:  # relabel
            params.update(medium=("plc", "wifi")[int(rng.integers(2))],
                          n_seeds=int(rng.integers(3, 7)))
        return ExperimentSpec.make("verify_case", preset, case_seed,
                                   **params)

    # --- execution ------------------------------------------------------------

    def run_case(self, spec: ExperimentSpec) -> List[CheckResult]:
        """Execute one case; archives a repro artifact on failure."""
        output = _verify_case(spec, 0)
        results = [CheckResult.from_dict(r) for r in output.records]
        self.metrics.inc("verify.fuzz.cases")
        failures = [r for r in results if not r.passed]
        if failures:
            self.metrics.inc("verify.fuzz.failures")
            self.write_repro(spec, failures)
        return results

    def run(self, max_cases: int = 64,
            budget_s: Optional[float] = None,
            clock: Optional[Clock] = None,
            stop_on_failure: bool = False) -> List[CheckResult]:
        """Run up to ``max_cases`` cases within ``budget_s`` seconds."""
        clock = clock if clock is not None else SystemClock()
        started = clock.now()
        all_results: List[CheckResult] = []
        for index in range(max_cases):
            if budget_s is not None \
                    and clock.now() - started >= budget_s:
                break
            results = self.run_case(self.case_spec(index))
            all_results.extend(results)
            if stop_on_failure and any(not r.passed for r in results):
                break
        return all_results

    # --- repro artifacts ------------------------------------------------------

    def repro_path(self, spec: ExperimentSpec) -> Path:
        digest = spec.task_key().rsplit("/", 1)[-1]
        return self.repro_dir / f"repro-{digest}.json"

    def write_repro(self, spec: ExperimentSpec,
                    failures: Sequence[CheckResult]) -> Path:
        """Archive the minimal replayable description of a failure."""
        self.repro_dir.mkdir(parents=True, exist_ok=True)
        path = self.repro_path(spec)
        atomic_write(path, dumps_indented(
            {"format": REPRO_FORMAT, "version": REPRO_VERSION,
             "spec": spec.to_dict(), "task_key": spec.task_key(),
             "task_seed": spec.task_seed(),
             "failures": [f.to_dict() for f in failures]}) + "\n")
        return path


def replay_repro(path: Union[str, Path]
                 ) -> Tuple[ExperimentSpec, List[CheckResult]]:
    """Re-execute an archived failure from its artifact.

    Returns the reconstructed spec and the fresh check results — the
    failure is reproduced iff the same checks fail again.
    """
    path = Path(path)
    data = check_envelope(loads(path.read_text(encoding="utf-8"), path),
                          REPRO_FORMAT, REPRO_VERSION, path)
    spec = ExperimentSpec.from_dict(data["spec"])
    output = _verify_case(spec, 0)
    return spec, [CheckResult.from_dict(r) for r in output.records]
