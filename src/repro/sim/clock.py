"""Mains-cycle-aware clock helpers.

IEEE 1901 synchronises its tone-map schedule to the AC line cycle: the half
mains cycle (10 ms at 50 Hz) is divided into ``L`` tone-map *slots* (L = 6 for
HomePlug AV), and a transmission uses the tone map of the slot its start time
falls into (paper §2.1, §6.1). :class:`MainsClock` maps simulated time to
slot indices and also exposes calendar helpers (hour of day, weekday) used by
the human-activity model in :mod:`repro.powergrid.activity`.

Simulated time ``t = 0`` corresponds to **Monday 00:00**; experiments that the
paper ran at a given wall-clock time (e.g. Fig. 4's "4:30 pm") pass an offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.units import DAY, HALF_MAINS_CYCLE, HOUR, MAINS_CYCLE, WEEK

#: Day-of-week names, index 0 = Monday (t=0 anchor).
WEEKDAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def tone_map_slot_at(t: float, num_slots: int = 6,
                     half_cycle: float = HALF_MAINS_CYCLE) -> int:
    """Tone-map slot index (0-based) in effect at simulated time ``t``.

    The schedule repeats every half mains cycle; slots are equal-length (the
    standard allows unequal ``Ts`` but commercial devices use a uniform split,
    which is what the INT6300 exposes).
    """
    if num_slots <= 0:
        raise ValueError("num_slots must be positive")
    cycles = t / half_cycle
    phase = cycles - int(cycles)
    if phase < 0:
        phase += 1.0
    # Snap float noise at the period boundary (grows with |t|) back to 0 so
    # t and t + k·half_cycle always land in the same slot.
    eps = 1e-9 * max(1.0, abs(cycles))
    if phase > 1.0 - eps:
        phase = 0.0
    return min(int(phase * num_slots), num_slots - 1)


@dataclass(frozen=True)
class MainsClock:
    """Calendar + mains-cycle view of simulated time.

    Attributes
    ----------
    num_slots:
        Tone-map slots per half mains cycle (6 for HPAV).
    """

    num_slots: int = 6

    def slot(self, t: float) -> int:
        """Tone-map slot index at time ``t``."""
        return tone_map_slot_at(t, self.num_slots)

    def cycle_index(self, t: float) -> int:
        """Index of the mains cycle containing ``t`` (cycle scale unit)."""
        return int(t / MAINS_CYCLE)

    # --- calendar helpers (random-scale / activity model) -------------------

    def hour_of_day(self, t: float) -> float:
        """Hour of day in [0, 24) as a float."""
        return (t % DAY) / HOUR

    def day_index(self, t: float) -> int:
        """Number of whole days since t=0 (Monday 00:00)."""
        return int(t // DAY)

    def weekday(self, t: float) -> int:
        """Day of week, 0 = Monday ... 6 = Sunday."""
        return int((t % WEEK) // DAY)

    def weekday_name(self, t: float) -> str:
        return WEEKDAY_NAMES[self.weekday(t)]

    def is_weekend(self, t: float) -> bool:
        """True on Saturday/Sunday."""
        return self.weekday(t) >= 5

    def is_working_hours(self, t: float) -> bool:
        """True on weekdays between 08:00 and 18:00 (office building)."""
        return (not self.is_weekend(t)) and 8.0 <= self.hour_of_day(t) < 18.0

    # Vectorized views over a time array. They match the scalar methods
    # exactly: ``%``/``//`` on float64 arrays compute the same values as
    # Python-float arithmetic on each element.

    def hour_of_day_series(self, ts) -> np.ndarray:
        """Vectorized :meth:`hour_of_day`."""
        return (np.asarray(ts, dtype=float) % DAY) / HOUR

    def day_index_series(self, ts) -> np.ndarray:
        """Vectorized :meth:`day_index` (int64)."""
        return (np.asarray(ts, dtype=float) // DAY).astype(np.int64)

    def is_weekend_series(self, ts) -> np.ndarray:
        """Vectorized :meth:`is_weekend`."""
        return (np.asarray(ts, dtype=float) % WEEK) // DAY >= 5

    def is_working_hours_series(self, ts) -> np.ndarray:
        """Vectorized :meth:`is_working_hours`."""
        hours = self.hour_of_day_series(ts)
        return ~self.is_weekend_series(ts) & (hours >= 8.0) & (hours < 18.0)

    @staticmethod
    def at(day: int = 0, hour: float = 0.0) -> float:
        """Simulated time for day-index ``day`` at ``hour`` o'clock.

        ``day=0`` is a Monday. Example: ``MainsClock.at(day=1, hour=16.5)``
        is Tuesday 4:30 pm.
        """
        return day * DAY + hour * HOUR
