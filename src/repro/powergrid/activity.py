"""Human-activity model: when appliances are on.

The paper's *random scale* (§6.3) is the channel variation caused by people
switching appliances — higher electrical load during working hours, the
building-wide 9 pm lights-off event visible in Fig. 12, quieter weekends in
Fig. 13/14.

Design constraint: long experiments (two simulated weeks sampled every second)
must be cheap, so an appliance's state is a **pure function of time**,
computed from hashed per-interval random draws instead of simulating a
global switching event queue. Determinism comes for free: the same seed gives
the same two weeks, queried in any order.

The schedule rules exist once, as a matrix:
:meth:`OfficeActivityModel.state_matrix` answers a whole time grid for a
list of appliances, one numpy pass per schedule class, from the per-day
office draws and per-epoch intermittent draws the grid touches (each drawn
once and kept as a read-only array). :meth:`~OfficeActivityModel.is_on`,
:meth:`~OfficeActivityModel.state_signature` and
:meth:`~OfficeActivityModel.switching_times` are views of it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.powergrid.appliances import ApplianceInstance, ScheduleClass
from repro.sim.clock import MainsClock
from repro.sim.random import RandomStreams
from repro.units import MINUTE

#: Building lighting is switched off centrally at 21:00 (paper Fig. 12:
#: "Every day at 9pm, all lights are turned off in our building").
LIGHTS_OFF_HOUR = 21.0
LIGHTS_ON_HOUR = 6.5

#: Per-index draw arrays a compiled schedule keeps before starting over
#: (a two-week run touches ~1.4k intermittent epochs).
_DRAW_MEMO_LIMIT = 20_000

_INSTANCE_ID = operator.attrgetter("instance_id")


@dataclass(frozen=True)
class ActivityConfig:
    """Tunable behaviour of the office population."""

    #: Std-dev (hours) of per-day arrival/departure jitter for office gear.
    office_jitter_hours: float = 0.6
    #: Earliest arrival / nominal departure for office appliances.
    office_start_hour: float = 8.0
    office_end_hour: float = 18.0
    #: Fraction of office appliances left running overnight (standby PCs).
    overnight_fraction: float = 0.15
    #: Weekend usage probability for office appliances (somebody came in).
    weekend_use_probability: float = 0.08
    #: Epoch length for intermittent appliances (a kettle run, a print job).
    intermittent_epoch: float = 15 * MINUTE
    #: Activity multiplier for intermittent appliances out of working hours.
    night_activity_factor: float = 0.1


def _uniforms(streams: RandomStreams, purpose: str, ids: Sequence[str],
              index: int, size: int) -> np.ndarray:
    """Each appliance's uniform draws for ``(purpose, index)``.

    Row ``k`` equals ``streams.fresh(f"activity.{purpose}.{ids[k]}.{index}")
    .uniform(size=size)``; the streams are replayed in bulk. The array is
    read-only, so it can be shared between threads.
    """
    out = np.empty((len(ids), size))
    names = [f"activity.{purpose}.{i}.{index}" for i in ids]
    for k, rng in streams.fresh_batch(names):
        out[k] = rng.uniform(size=size)
    out.setflags(write=False)
    return out


class _Schedule:
    """The schedule rules of one appliance list, compiled for numpy.

    Holds each schedule class's columns and per-appliance constants (the
    weekend lighting subset, the machines left on overnight, duty cycles)
    and a memo of per-index draws. Forks of a world share it, so all of it
    is immutable except ``_draws``: a dict of read-only arrays, each
    written with one insert.
    """

    def __init__(self, appliances: Sequence[ApplianceInstance],
                 streams: RandomStreams):
        columns: Dict[ScheduleClass, List[int]] = {
            cls: [] for cls in ScheduleClass}
        for j, appliance in enumerate(appliances):
            schedule = appliance.kind.schedule
            if schedule not in columns:
                raise ValueError(f"unhandled schedule class {schedule}")
            columns[schedule].append(j)

        def ids(cls: ScheduleClass) -> List[str]:
            return [appliances[j].instance_id for j in columns[cls]]

        def cols(cls: ScheduleClass) -> np.ndarray:
            return np.array(columns[cls], dtype=np.intp)

        self._streams = streams
        self.size = len(appliances)
        self.always_cols = cols(ScheduleClass.ALWAYS_ON)
        self.lighting_cols = cols(ScheduleClass.LIGHTING)
        self.office_cols = cols(ScheduleClass.OFFICE_HOURS)
        self.intermittent_cols = cols(ScheduleClass.INTERMITTENT)
        self.office_ids = ids(ScheduleClass.OFFICE_HOURS)
        self.intermittent_ids = ids(ScheduleClass.INTERMITTENT)
        # Per-appliance constants: whether a fixture is in the always-on
        # weekend subset, and whether a machine is left running overnight
        # (a build server stays on every night: a property of the machine,
        # not of the day).
        self.lighting_always = _uniforms(
            streams, "lighting-always", ids(ScheduleClass.LIGHTING), 0,
            1)[:, 0]
        self.office_overnight = _uniforms(
            streams, "office-overnight", self.office_ids, 0, 1)[:, 0]
        self.duty = np.array([appliances[j].kind.duty_cycle
                              for j in self.intermittent_cols], dtype=float)
        self._draws: Dict[Tuple[str, int], np.ndarray] = {}

    def _block(self, purpose: str, ids: List[str], index: int,
               size: int) -> np.ndarray:
        block = self._draws.get((purpose, index))
        if block is None:
            block = _uniforms(self._streams, purpose, ids, index, size)
            if len(self._draws) >= _DRAW_MEMO_LIMIT:
                self._draws.clear()
            self._draws[(purpose, index)] = block
        return block

    def _per_instant(self, purpose: str, ids: List[str],
                     index: np.ndarray, size: int) -> np.ndarray:
        """Draws of ``purpose`` per instant: shape (T, len(ids), size), or
        (1, len(ids), size) when every instant shares one index.

        ``index`` is each instant's day or epoch; each distinct index is
        drawn once and memoized.
        """
        if (index == index[0]).all():
            return self._block(purpose, ids, int(index[0]), size)[None]
        keys, inverse = np.unique(index, return_inverse=True)
        return np.stack([self._block(purpose, ids, key, size)
                         for key in keys.tolist()])[inverse]

    def states(self, ts: np.ndarray, config: ActivityConfig,
               clock: MainsClock) -> np.ndarray:
        """Schedule state of every appliance at every instant of ``ts``."""
        out = np.zeros((len(ts), self.size), dtype=bool)
        if not len(ts):
            return out
        hour = clock.hour_of_day_series(ts)[:, None]
        weekend = clock.is_weekend_series(ts)[:, None]
        out[:, self.always_cols] = True
        if len(self.lighting_cols):
            # Weekends keep only emergency/corridor lighting: the fixtures
            # in the always-on subset.
            lit = (LIGHTS_ON_HOUR <= hour) & (hour < LIGHTS_OFF_HOUR)
            out[:, self.lighting_cols] = lit & (
                ~weekend | (self.lighting_always < 0.1))
        if self.office_ids:
            draws = self._per_instant("office", self.office_ids,
                                      clock.day_index_series(ts), 4)
            start = config.office_start_hour + config.office_jitter_hours * (
                2.0 * draws[..., 0] - 1.0)
            end = config.office_end_hour + config.office_jitter_hours * (
                2.0 * draws[..., 1] - 1.0)
            weekday_on = ((self.office_overnight < config.overnight_fraction)
                          | ((start <= hour) & (hour < end)))
            # A short weekend visit around midday.
            visit = 10.0 + 4.0 * draws[..., 0]
            weekend_on = ((draws[..., 3] < config.weekend_use_probability)
                          & (visit <= hour) & (hour < visit + 2.0))
            out[:, self.office_cols] = np.where(weekend, weekend_on,
                                                weekday_on)
        if self.intermittent_ids:
            epoch = config.intermittent_epoch
            draws = self._per_instant(
                "intermittent", self.intermittent_ids,
                (ts // epoch).astype(np.int64), 2)
            duty = np.where(clock.is_working_hours_series(ts)[:, None],
                            self.duty,
                            self.duty * config.night_activity_factor)
            # The appliance runs for a contiguous slice of the epoch whose
            # length matches the duty cycle; epochs are active
            # independently.
            active_prob = np.minimum(1.0, duty * 4.0)
            run_fraction = np.minimum(1.0,
                                      duty / np.maximum(active_prob, 1e-9))
            offset = draws[..., 1] * np.maximum(0.0, 1.0 - run_fraction)
            phase = ((ts % epoch) / epoch)[:, None]
            out[:, self.intermittent_cols] = (
                (draws[..., 0] < active_prob) & (offset <= phase)
                & (phase < offset + run_fraction))
        return out


class OfficeActivityModel:
    """Maps (appliance, time) -> powered-on state, deterministically.

    Each appliance gets private random streams: per-day and per-epoch
    draws come from a *fresh* generator seeded by (appliance, index), so
    queries at arbitrary times — in any order — return consistent states.
    """

    def __init__(self, streams: RandomStreams,
                 config: ActivityConfig = ActivityConfig(),
                 clock: MainsClock = MainsClock()):
        self._streams = streams
        self.config = config
        self.clock = clock
        # Compiled schedules by appliance list (instance ids are unique per
        # grid). Forks share the model: each entry is one insert.
        self._schedules: Dict[Tuple[str, ...], _Schedule] = {}
        #: Optional override consulted before the schedule model: returns
        #: True/False to force a state, None to fall through. This is the
        #: fault-injection seam (``repro.faults.powergrid`` schedules
        #: appliance surges through it) — it must stay a pure function of
        #: ``(appliance, t)`` or state signatures lose determinism.
        self.overlay: Optional[
            Callable[[ApplianceInstance, float], Optional[bool]]] = None

    def _schedule(self, appliances: Sequence[ApplianceInstance]
                  ) -> _Schedule:
        key = tuple(map(_INSTANCE_ID, appliances))
        schedule = self._schedules.get(key)
        if schedule is None:
            schedule = _Schedule(appliances, self._streams)
            self._schedules[key] = schedule
        return schedule

    # --- public API -----------------------------------------------------------------

    def state_matrix(self, appliances: Sequence[ApplianceInstance],
                     ts) -> np.ndarray:
        """Powered-on state of each appliance at each instant of ``ts``.

        Returns a bool array of shape ``(len(ts), len(appliances))``; row
        ``i`` is the state signature at ``ts[i]``. An installed
        :attr:`overlay` is consulted per (appliance, instant) before the
        schedule.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ValueError("ts must be a 1-D time grid")
        states = self._schedule(appliances).states(ts, self.config,
                                                   self.clock)
        overlay = self.overlay
        if overlay is not None:
            for i, t in enumerate(ts.tolist()):
                for j, appliance in enumerate(appliances):
                    forced = overlay(appliance, t)
                    if forced is not None:
                        states[i, j] = forced
        return states

    def is_on(self, appliance: ApplianceInstance, t: float) -> bool:
        """Powered-on state of ``appliance`` at simulated time ``t``."""
        return bool(self.state_matrix((appliance,), (t,))[0, 0])

    def state_signature(self, appliances: Sequence[ApplianceInstance],
                        t: float) -> Tuple[bool, ...]:
        """On/off vector for a list of appliances (channel cache key)."""
        return tuple(self.state_matrix(appliances, (t,))[0].tolist())

    def switching_times(self, appliance: ApplianceInstance, t_start: float,
                        t_end: float, resolution: float = MINUTE
                        ) -> List[float]:
        """Approximate on/off transition times in [t_start, t_end).

        Found by scanning at ``resolution`` then bisecting each change to
        ~1 s accuracy. Used by tests and by the impulsive-noise model (each
        transition injects an impulse).
        """
        grid: List[float] = []
        t = t_start
        while t < t_end:
            grid.append(t)
            t += resolution
        if not grid:
            return []
        states = self.state_matrix((appliance,), grid)[:, 0]
        times: List[float] = []
        for k in (np.flatnonzero(states[1:] != states[:-1]) + 1).tolist():
            lo, hi = grid[k - 1], grid[k]
            before = bool(states[k - 1])
            while hi - lo > 1.0:
                mid = 0.5 * (lo + hi)
                if self.is_on(appliance, mid) == before:
                    lo = mid
                else:
                    hi = mid
            times.append(hi)
        return times

    def active_count(self, appliances: Sequence[ApplianceInstance],
                     t: float) -> int:
        """Number of powered-on appliances (the 'electrical load' proxy)."""
        return int(np.count_nonzero(self.state_matrix(appliances, (t,))))
