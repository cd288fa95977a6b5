"""Three-timescale temporal-variation analysis (§6).

The decomposition the paper adopts (Fig. 8):

* **invariance scale** — BLE_s varies across the 6 tone-map slots within a
  half mains cycle (periodic, 10 ms at 50 Hz);
* **cycle scale** — over multiples of the mains cycle, BLE_s fluctuates
  around a stationary mean with a variance tied to link quality;
* **random scale** — over minutes/hours, the mean itself moves with the
  electrical load (appliance switching, 9 pm lights-off, weekends).

This module turns raw measurements (SoF captures, MM polling traces,
long-run samples) into the statistics the paper's Figs. 9–14 report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.metrics import MetricSeries
from repro.plc.frames import SofDelimiter
from repro.sim.clock import MainsClock


# --- invariance scale (Fig. 9) ------------------------------------------------


@dataclass(frozen=True)
class InvarianceScaleStats:
    """Per-slot BLE statistics from a capture window."""

    slot_means_bps: np.ndarray        # shape (num_slots,)
    slot_stds_bps: np.ndarray
    periodicity_s: float              # expected 10 ms at 50 Hz

    @property
    def slot_spread_ratio(self) -> float:
        """max/min of the slot means — how much averaging matters (§6.1)."""
        lo = float(self.slot_means_bps.min())
        return float(self.slot_means_bps.max()) / lo if lo > 0 else np.inf


def invariance_scale_stats(sofs: Sequence[SofDelimiter],
                           num_slots: int = 6,
                           half_cycle_s: float = 0.010
                           ) -> InvarianceScaleStats:
    """Per-slot BLE statistics from captured SoF delimiters."""
    if not sofs:
        raise ValueError("no SoFs captured")
    means = np.zeros(num_slots)
    stds = np.zeros(num_slots)
    bles = np.array([s.ble_bps for s in sofs])
    slots = np.array([s.slot for s in sofs])
    for s in range(num_slots):
        mask = slots == s
        if np.any(mask):
            means[s] = bles[mask].mean()
            stds[s] = bles[mask].std()
    return InvarianceScaleStats(slot_means_bps=means, slot_stds_bps=stds,
                                periodicity_s=half_cycle_s)


# --- cycle scale (Figs. 10, 11) --------------------------------------------------


@dataclass(frozen=True)
class CycleScaleStats:
    """Fig. 11's per-link summary: update inter-arrival α and BLE spread."""

    mean_ble_bps: float
    std_ble_bps: float
    mean_alpha_s: float         # mean time between BLE-value changes
    n_updates: int

    @property
    def coefficient_of_variation(self) -> float:
        return (self.std_ble_bps / self.mean_ble_bps
                if self.mean_ble_bps > 0 else np.inf)


def cycle_scale_stats(series: MetricSeries,
                      change_threshold: float = 0.002) -> CycleScaleStats:
    """Summarise a BLE-polling trace (MM every 50 ms, §6.2).

    ``α`` is the inter-arrival time of consecutive BLE *changes* — a value
    change means the devices regenerated the tone map.
    """
    if len(series) < 2:
        raise ValueError("need at least two samples")
    changes = series.change_times(rel_threshold=change_threshold)
    if len(changes) >= 2:
        alpha = float(np.mean(np.diff(changes)))
    elif len(changes) == 1:
        alpha = float(series.times[-1] - series.times[0])
    else:
        # No change observed: α is at least the window length.
        alpha = float(series.times[-1] - series.times[0])
    return CycleScaleStats(mean_ble_bps=series.mean,
                           std_ble_bps=series.std,
                           mean_alpha_s=alpha,
                           n_updates=len(changes))


# --- random scale (Figs. 12–14) -----------------------------------------------------


@dataclass(frozen=True)
class HourOfDayProfile:
    """Hourly mean/std of a metric, split weekday vs weekend (Fig. 13/14)."""

    hours: np.ndarray                  # 0..23
    weekday_mean: np.ndarray
    weekday_std: np.ndarray
    weekend_mean: np.ndarray
    weekend_std: np.ndarray


def hour_of_day_profile(series: MetricSeries,
                        clock: MainsClock = MainsClock()
                        ) -> HourOfDayProfile:
    """Aggregate a long-run series into the paper's 2-week hourly view."""
    if not len(series):
        raise ValueError("empty series")
    hours = np.arange(24)
    wk_mean = np.full(24, np.nan)
    wk_std = np.full(24, np.nan)
    we_mean = np.full(24, np.nan)
    we_std = np.full(24, np.nan)
    sample_hours = np.array([int(clock.hour_of_day(t)) for t in series.times])
    weekend = np.array([clock.is_weekend(t) for t in series.times])
    for h in hours:
        for is_we, mean_arr, std_arr in ((False, wk_mean, wk_std),
                                         (True, we_mean, we_std)):
            mask = (sample_hours == h) & (weekend == is_we)
            if np.any(mask):
                mean_arr[h] = series.values[mask].mean()
                std_arr[h] = series.values[mask].std()
    return HourOfDayProfile(hours=hours, weekday_mean=wk_mean,
                            weekday_std=wk_std, weekend_mean=we_mean,
                            weekend_std=we_std)


def detect_daily_event(series: MetricSeries, event_hour: float,
                       clock: MainsClock = MainsClock(),
                       window_h: float = 1.0) -> float:
    """Mean metric shift across a daily event (the 9 pm lights-off, Fig. 12).

    Returns mean(after) − mean(before) pooled over all days in the series.
    """
    before: List[float] = []
    after: List[float] = []
    for t, v in zip(series.times, series.values):
        h = clock.hour_of_day(t)
        if event_hour - window_h <= h < event_hour:
            before.append(v)
        elif event_hour < h <= event_hour + window_h:
            after.append(v)
    if not before or not after:
        raise ValueError("series does not cover the event window")
    return float(np.mean(after) - np.mean(before))
