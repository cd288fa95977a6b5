"""The benchmark's three workloads: inputs from a seed, and output checks.

A *round* is one campaign through :func:`repro.campaign.run_campaign`;
a benchmark run repeats rounds in a closed loop (one campaign, one
dispatch unit in flight) until its time budget is spent. Round ``r`` of
a run at seed ``s`` draws its inputs from ``(workload, s, r)`` alone, so
the same seed always yields the same sequence of inputs, and a run's
medians average over several worlds instead of resting on one.

Why each workload exists (see README.md for the layer map):

* ``survey`` — the §4.1 dual-medium survey: every pair is a fresh link
  sampled through the batch path (``PlcLink.sample_series``), so PHY
  and signature costs dominate and the runner/snapshot code never runs.
* ``sliced`` — the §6 two-week long-haul run time-sliced into one
  checkpoint per quantum: the only workload that exercises
  ``repro.snapshot`` and the engine's slice chaining, and it reaches the
  PLC/powergrid code through the runner's scalar path.
* ``scenario`` — the office flow mix through the fluid runner, where the
  capacity cache hits 90% of lookups. Runnable by hand for its traced
  layer split, but not in ``BENCHMARK.json``: a run needs >= 100 tasks
  for its p90 and the host's drift needs ~50 s runs, which three
  workloads cannot both fit in the benchmark's time budget.

This module only builds spec lists and judges finalized artifacts; it
never times anything.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

#: Keys of a §4.1 survey record that must be finite and non-negative.
SURVEY_FIELDS = ("plc_mean_mbps", "plc_std_mbps",
                 "wifi_mean_mbps", "wifi_std_mbps")

#: Slack on the per-quantum airtime invariant (the runner's own epsilon).
AIRTIME_EPSILON = 1e-6


@dataclass
class RoundPlan:
    """The inputs of one campaign round."""

    specs: list
    #: Extra :class:`repro.campaign.EngineConfig` fields for this round.
    config: Dict[str, object] = field(default_factory=dict)
    #: Simulated seconds per unit of the artifact's ``stats["quanta"]``
    #: (runner workloads); ``None`` when the plan fixes sim time itself.
    quantum_s: Optional[float] = None
    #: Simulated seconds the round covers when fixed by the inputs.
    fixed_sim_s: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable[[int, int], RoundPlan]
    check: Callable[[RoundPlan, list], Dict[str, str]]


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    """The deterministic input stream of one round."""
    return random.Random(f"{workload}:{int(seed)}:{int(index)}")


def world_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


# --- survey -------------------------------------------------------------------

SURVEY_PRESET = "office"
SURVEY_PAIRS = 120
SURVEY_WINDOW_S = 5.0
#: The §4.1 report interval.
SURVEY_INTERVAL_S = 0.1


def plan_survey(seed: int, index: int) -> RoundPlan:
    from repro.campaign import survey_specs
    from repro.compile import compiled_testbed

    rng = round_rng("survey", seed, index)
    world = world_seed(rng)
    pairs = compiled_testbed(SURVEY_PRESET, seed=world).template \
        .same_board_pairs()
    chosen = rng.sample(sorted(pairs), SURVEY_PAIRS)
    specs = survey_specs(SURVEY_PRESET, [world], chosen,
                         duration_s=SURVEY_WINDOW_S,
                         interval_s=SURVEY_INTERVAL_S)
    return RoundPlan(specs=specs,
                     fixed_sim_s=len(chosen) * 2 * SURVEY_WINDOW_S)


def check_survey(plan: RoundPlan, tasks: list) -> Dict[str, str]:
    """Exactly one record per pair, finite non-negative means and stds."""
    failures: Dict[str, str] = {}
    by_key = {task.task_key: task for task in tasks}
    for spec in plan.specs:
        key = spec.task_key()
        task = by_key.get(key)
        if task is None:
            failures[key] = "no artifact line"
            continue
        if len(task.records) != 1:
            failures[key] = f"{len(task.records)} records, expected 1"
            continue
        for name in SURVEY_FIELDS:
            value = task.records[0].get(name)
            if not isinstance(value, (int, float)) \
                    or not math.isfinite(value) or value < 0:
                failures[key] = f"{name}={value!r}"
                break
    return failures


# --- runner workloads ---------------------------------------------------------

SCENARIO_PRESET = "office"
SCENARIO_NAME = "office-afternoon"
SCENARIO_TASKS = 4
#: The mix starts one flow at a time up to t0 + 120 s, so 150 s reaches
#: all five flows while keeping a task near 0.4 s: a run then completes
#: the >= 100 tasks a p90 latency needs (the 900 s default would take
#: about 2.5 s per task).
SCENARIO_HORIZON_S = 150.0
SCENARIO_QUANTUM_S = 0.5

SLICED_PRESET = "mini3"
SLICED_NAME = "mini3-longhaul"
SLICED_HORIZON_S = 14 * 24 * 3600.0
#: One quantum per slice: 168 checkpointed slices per task.
SLICED_QUANTUM_S = 7200.0


def plan_scenario(seed: int, index: int) -> RoundPlan:
    from repro.campaign import ExperimentSpec

    rng = round_rng("scenario", seed, index)
    specs = [ExperimentSpec.make("scenario", SCENARIO_PRESET,
                                 world_seed(rng), scenario=SCENARIO_NAME,
                                 horizon_s=SCENARIO_HORIZON_S,
                                 quantum_s=SCENARIO_QUANTUM_S)
             for _ in range(SCENARIO_TASKS)]
    return RoundPlan(specs=specs, quantum_s=SCENARIO_QUANTUM_S)


def plan_sliced(seed: int, index: int) -> RoundPlan:
    from repro.campaign import ExperimentSpec

    rng = round_rng("sliced", seed, index)
    spec = ExperimentSpec.make("scenario", SLICED_PRESET, world_seed(rng),
                               scenario=SLICED_NAME,
                               horizon_s=SLICED_HORIZON_S,
                               quantum_s=SLICED_QUANTUM_S)
    return RoundPlan(specs=[spec],
                     config={"slice_horizon_s": SLICED_QUANTUM_S},
                     quantum_s=SLICED_QUANTUM_S)


def check_runner(plan: RoundPlan, tasks: list) -> Dict[str, str]:
    """Clean runner stats for every task, under its original key."""
    failures: Dict[str, str] = {}
    expected = {spec.task_key() for spec in plan.specs}
    by_key = {task.task_key: task for task in tasks}
    for key in by_key.keys() - expected:
        failures[key] = "unexpected task key"
    for key in sorted(expected):
        task = by_key.get(key)
        if task is None:
            failures[key] = "no artifact line"
            continue
        stats = task.stats
        violations = stats.get("invariant_violations")
        peak = stats.get("max_domain_airtime")
        if violations != 0:
            failures[key] = f"invariant_violations={violations!r}"
        elif not isinstance(peak, (int, float)) \
                or not peak <= 1.0 + AIRTIME_EPSILON:
            failures[key] = f"max_domain_airtime={peak!r}"
        elif not isinstance(stats.get("quanta"), int) \
                or stats["quanta"] <= 0:
            failures[key] = f"quanta={stats.get('quanta')!r}"
    return failures


def sim_seconds(plan: RoundPlan, tasks: Sequence) -> float:
    """Simulated seconds a round covered (the ``sim_rate`` numerator).

    Survey rounds cover pairs x 2 media x window by construction; runner
    rounds cover the quanta they executed, read from the task stats.
    """
    if plan.quantum_s is None:
        return plan.fixed_sim_s
    return sum(int(task.stats.get("quanta", 0)) for task in tasks) \
        * plan.quantum_s


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("survey", plan_survey, check_survey),
        Workload("sliced", plan_sliced, check_runner),
        Workload("scenario", plan_scenario, check_runner),
    )
}


#: Engine progress events that end one dispatch unit, and the subset
#: that means the unit raised (quarantine: raised past its retries).
UNIT_EVENTS = ("done", "slice", "fail", "quarantine")
RAISED_EVENTS = ("fail", "quarantine")


def account_units(workload: Workload, plan: RoundPlan, tasks: list,
                  events: Sequence[tuple]) -> tuple:
    """``(attempted, failed, failures)`` for one finalized round.

    ``events`` are the engine's ``(event, detail)`` progress pairs. Every
    unit counts as attempted; a unit fails when it raised, or when the
    artifact check rejects the task it belongs to (every slice of a
    sliced task shares that task's verdict). ``failures`` maps each
    rejected task key to the reason.
    """
    units = [(event, detail) for event, detail in events
             if event in UNIT_EVENTS]
    raised = sum(1 for event, _ in units if event in RAISED_EVENTS)
    failures = workload.check(plan, tasks)
    rejected = 0
    for key in failures:
        rejected += sum(1 for event, detail in units
                        if event == "done" and detail == key
                        or event == "slice"
                        and detail.startswith(key + " "))
    return len(units), raised + rejected, failures
