"""``OfficeActivityModel.state_matrix`` against the per-appliance rules.

The reference below is the scalar rule code the matrix replaced: one
``is_on`` per (appliance, instant), every draw from a fresh stream. The
matrix must equal it exactly on the ``office`` and ``mini3`` worlds, at
random instants over two weeks and at every boundary the rules have,
with and without a surge overlay installed. ``is_on``,
``state_signature``, ``active_count`` and ``switching_times`` are views
of the matrix and are held to the same reference.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from repro.compile import compile_testbed
from repro.faults import ANY_TARGET, FaultEvent, FaultPlan, inject_surges
from repro.powergrid.activity import (
    LIGHTS_OFF_HOUR,
    LIGHTS_ON_HOUR,
    OfficeActivityModel,
)
from repro.powergrid.appliances import (
    APPLIANCE_CATALOG,
    ApplianceInstance,
    ScheduleClass,
)
from repro.sim.random import RandomStreams
from repro.units import DAY, HOUR, MINUTE

TWO_WEEKS = 14 * DAY


# --- the reference: per-appliance scalar rules ------------------------------------


class ReferenceRules:
    """The scalar schedule rules, one appliance and one instant at a time."""

    def __init__(self, model: OfficeActivityModel):
        self.model = model
        self._draws: Dict[tuple, np.ndarray] = {}

    def draw(self, appliance: ApplianceInstance, index: int, purpose: str,
             size: int = 1) -> np.ndarray:
        key = (appliance.instance_id, purpose, index, size)
        if key not in self._draws:
            rng = self.model._streams.fresh(
                f"activity.{purpose}.{appliance.instance_id}.{index}")
            self._draws[key] = rng.uniform(size=size)
        return self._draws[key]

    def lighting_on(self, appliance, t):
        clock = self.model.clock
        hour = clock.hour_of_day(t)
        if clock.is_weekend(t):
            always = self.draw(appliance, 0, "lighting-always")[0]
            return bool(always < 0.1) and (
                LIGHTS_ON_HOUR <= hour < LIGHTS_OFF_HOUR)
        return LIGHTS_ON_HOUR <= hour < LIGHTS_OFF_HOUR

    def office_on(self, appliance, t):
        cfg, clock = self.model.config, self.model.clock
        day = clock.day_index(t)
        hour = clock.hour_of_day(t)
        draws = self.draw(appliance, day, "office", size=4)
        if clock.is_weekend(t):
            if draws[3] >= cfg.weekend_use_probability:
                return False
            start = 10.0 + 4.0 * draws[0]
            return start <= hour < start + 2.0
        overnight = self.draw(appliance, 0,
                              "office-overnight")[0] < cfg.overnight_fraction
        if overnight:
            return True
        start = cfg.office_start_hour + cfg.office_jitter_hours * (
            2.0 * draws[0] - 1.0)
        end = cfg.office_end_hour + cfg.office_jitter_hours * (
            2.0 * draws[1] - 1.0)
        return start <= hour < end

    def intermittent_on(self, appliance, t):
        cfg, clock = self.model.config, self.model.clock
        epoch = int(t // cfg.intermittent_epoch)
        duty = appliance.kind.duty_cycle
        if not clock.is_working_hours(t):
            duty *= cfg.night_activity_factor
        draws = self.draw(appliance, epoch, "intermittent", size=2)
        epoch_active_prob = min(1.0, duty * 4.0)
        if draws[0] >= epoch_active_prob:
            return False
        run_fraction = min(1.0, duty / max(epoch_active_prob, 1e-9))
        offset = draws[1] * max(0.0, 1.0 - run_fraction)
        phase = (t % cfg.intermittent_epoch) / cfg.intermittent_epoch
        return offset <= phase < offset + run_fraction

    def is_on(self, appliance: ApplianceInstance, t: float) -> bool:
        if self.model.overlay is not None:
            forced = self.model.overlay(appliance, t)
            if forced is not None:
                return forced
        schedule = appliance.kind.schedule
        if schedule is ScheduleClass.ALWAYS_ON:
            return True
        if schedule is ScheduleClass.LIGHTING:
            return self.lighting_on(appliance, t)
        if schedule is ScheduleClass.OFFICE_HOURS:
            return self.office_on(appliance, t)
        return self.intermittent_on(appliance, t)

    def matrix(self, appliances, ts) -> np.ndarray:
        return np.array([[bool(self.is_on(a, float(t))) for a in appliances]
                         for t in ts], dtype=bool).reshape(len(ts),
                                                           len(appliances))

    def switching_times(self, appliance, t_start, t_end,
                        resolution=MINUTE) -> List[float]:
        if t_end <= t_start:
            return []
        times: List[float] = []
        prev_t = t_start
        prev_state = self.is_on(appliance, prev_t)
        t = t_start + resolution
        while t < t_end:
            state = self.is_on(appliance, t)
            if state != prev_state:
                lo, hi = prev_t, t
                while hi - lo > 1.0:
                    mid = 0.5 * (lo + hi)
                    if self.is_on(appliance, mid) == prev_state:
                        lo = mid
                    else:
                        hi = mid
                times.append(hi)
                prev_state = state
            prev_t = t
            t += resolution
        return times


# --- instants --------------------------------------------------------------------


def _around(t: float) -> List[float]:
    """``t`` and its float neighbours: both sides of a ``<`` boundary."""
    return [float(np.nextafter(t, -np.inf)), float(t),
            float(np.nextafter(t, np.inf))]


def _exact(t: float, of, value: float, ulps: int = 64) -> List[float]:
    """Instants near ``t`` at which ``of(t) == value`` exactly: where a
    ``<=`` and a ``<`` comparison with ``value`` disagree."""
    found = []
    for direction in (-np.inf, np.inf):
        probe = t
        for _ in range(ulps):
            if of(probe) == value:
                found.extend(_around(probe))
            probe = float(np.nextafter(probe, direction))
    return found


def boundary_instants(rules: ReferenceRules, appliances) -> np.ndarray:
    """Every edge the rules have over two weeks, from both sides."""
    cfg = rules.model.config
    epoch = cfg.intermittent_epoch
    edges: List[float] = []
    for day in range(15):
        edges.append(day * DAY)  # midnight; days 5 and 7 are weekend edges
        for hour in (LIGHTS_ON_HOUR, cfg.office_start_hour,
                     cfg.office_end_hour, LIGHTS_OFF_HOUR):
            edges.append(day * DAY + hour * HOUR)
    for appliance in appliances:
        schedule = appliance.kind.schedule
        if schedule is ScheduleClass.OFFICE_HOURS:
            for day in (1, 3, 5, 6):
                d = rules.draw(appliance, day, "office", size=4)
                start = cfg.office_start_hour + cfg.office_jitter_hours * (
                    2.0 * d[0] - 1.0)
                end = cfg.office_end_hour + cfg.office_jitter_hours * (
                    2.0 * d[1] - 1.0)
                visit = 10.0 + 4.0 * d[0]
                for hour in (start, end, visit, visit + 2.0):
                    edges.append(day * DAY + hour * HOUR)
                    edges.extend(_exact(day * DAY + hour * HOUR,
                                        rules.model.clock.hour_of_day, hour))
        elif schedule is ScheduleClass.INTERMITTENT:
            # Epoch edges and the on/off phase inside several epochs (working
            # hours, night, weekend), from the epoch's own draws.
            for t0 in (DAY + 10 * HOUR, 2 * DAY + 2 * HOUR,
                       5 * DAY + 11 * HOUR, 8 * DAY + 14.5 * HOUR):
                first = int(t0 // epoch)
                for k in range(first, first + 6):
                    edges.append(k * epoch)
                    d = rules.draw(appliance, k, "intermittent", size=2)
                    for duty in (appliance.kind.duty_cycle,
                                 appliance.kind.duty_cycle
                                 * cfg.night_activity_factor):
                        active = min(1.0, duty * 4.0)
                        run = min(1.0, duty / max(active, 1e-9))
                        offset = d[1] * max(0.0, 1.0 - run)
                        for phase in (offset, offset + run):
                            edges.append(k * epoch + phase * epoch)
                            edges.extend(_exact(
                                k * epoch + phase * epoch,
                                lambda t: (t % epoch) / epoch, phase))
    instants = [t for edge in edges for t in _around(edge) if t >= 0.0]
    return np.array(sorted(set(instants)))


def random_instants(seed: int, n: int = 400) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, TWO_WEEKS, n)


def surge_plan(appliances) -> FaultPlan:
    """Surge windows over some of the instants: single targets and all."""
    ids = [a.instance_id for a in appliances]
    events = [FaultEvent("appliance_surge", ids[k % len(ids)],
                         k * 0.9 * DAY + 9.5 * HOUR,
                         k * 0.9 * DAY + 9.5 * HOUR + 3 * HOUR)
              for k in range(0, 14, 2)]
    events.append(FaultEvent("appliance_surge", ANY_TARGET,
                             5 * DAY + 2 * HOUR, 5 * DAY + 2.5 * HOUR))
    events.append(FaultEvent("appliance_surge", ANY_TARGET,
                             DAY + LIGHTS_OFF_HOUR * HOUR,
                             DAY + LIGHTS_OFF_HOUR * HOUR + 600.0))
    return FaultPlan(seed=0, events=events)


# --- tests -------------------------------------------------------------------------


PRESETS = ["office", "mini3"]


@pytest.fixture(scope="module", params=PRESETS)
def world(request):
    return compile_testbed(request.param, seed=29).template


def catalog_population():
    """Eight of every catalog appliance on a model of its own: every
    rule branch (weekend lighting subset, overnight machines, weekend
    visits, each duty cycle) is populated."""
    appliances = [ApplianceInstance.make(f"{name}-{k}", name, "o")
                  for name in sorted(APPLIANCE_CATALOG) for k in range(8)]
    return OfficeActivityModel(RandomStreams(seed=3)), appliances


@pytest.mark.parametrize("population", PRESETS + ["catalog"])
@pytest.mark.parametrize("surged", [False, True], ids=["plain", "surge"])
def test_state_matrix_equals_scalar_rules(population, surged):
    if population == "catalog":
        activity, appliances = catalog_population()
    else:
        load = compile_testbed(population, seed=29).template.load
        activity, appliances = load.activity, load.appliances
    if surged:
        inject_surges(activity, surge_plan(appliances))
    rules = ReferenceRules(activity)
    ts = np.concatenate([random_instants(5),
                         boundary_instants(rules, appliances[::2])])
    expected = rules.matrix(appliances, ts)
    assert expected.any() and not expected.all()
    np.testing.assert_array_equal(activity.state_matrix(appliances, ts),
                                  expected)
    # Instants in any order and any grouping give the same rows.
    order = np.random.default_rng(2).permutation(len(ts))
    np.testing.assert_array_equal(
        activity.state_matrix(appliances, ts[order]), expected[order])
    for i in range(0, len(ts), 37):
        t = float(ts[i])
        assert activity.state_signature(appliances, t) == tuple(
            expected[i].tolist())
        assert activity.active_count(appliances, t) == int(expected[i].sum())
    for a in appliances[::9]:
        for i in range(0, len(ts), 53):
            assert activity.is_on(a, float(ts[i])) == rules.is_on(
                a, float(ts[i]))


def test_load_views_read_the_signature_row(world):
    load = world.load
    ts = random_instants(13, 60)
    for row, t in zip(load.state_matrix(ts), ts.tolist()):
        assert load.state_signature(t) == tuple(row.tolist())
        assert load.active_count(t) == int(row.sum())
        assert load.active_appliances(t) == [
            a for a, on in zip(load.appliances, row) if on]


def test_state_matrix_shape_and_empty_inputs(world):
    load = world.load
    assert load.state_matrix([]).shape == (0, len(load.appliances))
    assert load.activity.state_matrix([], [0.0, DAY]).shape == (2, 0)
    assert load.activity.state_signature([], 0.0) == ()
    with pytest.raises(ValueError):
        load.state_matrix(np.zeros((2, 2)))


def test_switching_times_match_scalar_scan():
    activity, appliances = catalog_population()
    rules = ReferenceRules(activity)
    for appliance in appliances[::5]:
        for t0 in (DAY, 5 * DAY):
            expected = rules.switching_times(appliance, t0, t0 + DAY)
            assert activity.switching_times(appliance, t0,
                                            t0 + DAY) == expected
    assert activity.switching_times(appliances[0], DAY, DAY) == []


def test_draw_memo_holds_read_only_arrays(world):
    load = world.load
    load.state_matrix(random_instants(9, 50))
    schedule = load.activity._schedule(load.appliances)
    assert schedule._draws
    for block in schedule._draws.values():
        assert not block.flags.writeable
