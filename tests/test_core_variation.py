"""Three-timescale variation analysis (§6)."""

import numpy as np
import pytest

from repro.core.metrics import MetricSeries
from repro.core.variation import (
    cycle_scale_stats,
    detect_daily_event,
    hour_of_day_profile,
    invariance_scale_stats,
)
from repro.plc.sniffer import capture_saturated
from repro.sim.clock import MainsClock
from repro.units import HOUR


def test_invariance_stats_from_capture(testbed, t_night):
    link = testbed.plc_link(11, 4)
    sofs = capture_saturated(link, t_night, 0.5)
    stats = invariance_scale_stats(sofs)
    assert stats.slot_means_bps.shape == (6,)
    assert stats.periodicity_s == 0.010
    # The noisy room's mains-synchronous noise spreads the slots (Fig. 9).
    assert stats.slot_spread_ratio > 1.05


def test_invariance_requires_sofs():
    with pytest.raises(ValueError):
        invariance_scale_stats([])


def test_cycle_scale_alpha_counts_value_changes():
    times = np.arange(0, 10, 0.05)
    values = np.where(times < 5, 100.0, 110.0)  # one change at t=5
    stats = cycle_scale_stats(MetricSeries(times, values))
    assert stats.n_updates == 1
    assert stats.mean_ble_bps == pytest.approx(values.mean())


def test_cycle_scale_stable_link_alpha_is_window_length():
    times = np.arange(0, 10, 0.05)
    stats = cycle_scale_stats(MetricSeries(times, np.full_like(times, 5.0)))
    assert stats.n_updates == 0
    assert stats.mean_alpha_s == pytest.approx(times[-1] - times[0])


def test_quality_variability_anticorrelation(testbed, t_night):
    """§6.2's headline: good links vary less (negative correlation)."""
    from repro.testbed.experiments import poll_ble_series
    stats = []
    for (i, j) in [(13, 14), (15, 18), (0, 1), (2, 7), (11, 4), (5, 11)]:
        series = poll_ble_series(testbed, i, j, t_night, 60, 0.05)
        stats.append(cycle_scale_stats(series))
    means = np.array([s.mean_ble_bps for s in stats])
    stds = np.array([s.std_ble_bps for s in stats])
    corr = float(np.corrcoef(means, stds)[0, 1])
    assert corr < -0.3


def test_hour_of_day_profile_splits_weekday_weekend():
    clock = MainsClock()
    times = np.arange(0, 14 * 24 * HOUR, HOUR / 2)
    # Signal: high at night, low during weekday working hours.
    values = np.array([
        50.0 if (clock.is_working_hours(t)) else 90.0 for t in times])
    series = MetricSeries(times, values)
    profile = hour_of_day_profile(series)
    assert profile.weekday_mean[11] == pytest.approx(50.0)
    assert profile.weekday_mean[23] == pytest.approx(90.0)
    assert profile.weekend_mean[11] == pytest.approx(90.0)


def test_detect_daily_event_sees_lights_off():
    clock = MainsClock()
    times = np.arange(0, 3 * 24 * HOUR, 300.0)
    values = np.array([100.0 if clock.hour_of_day(t) >= 21 else 80.0
                       for t in times])
    shift = detect_daily_event(MetricSeries(times, values), event_hour=21.0)
    assert shift == pytest.approx(20.0, abs=1.0)


def test_detect_daily_event_requires_coverage():
    series = MetricSeries([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        detect_daily_event(series, event_hour=21.0)
