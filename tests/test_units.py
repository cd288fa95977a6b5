"""Unit constants and conversions."""

from repro import units


def test_mains_cycle_is_20ms_at_50hz():
    assert units.MAINS_CYCLE == 0.02
    assert units.HALF_MAINS_CYCLE == 0.01


def test_rate_conversions_roundtrip():
    assert units.bits_per_second(1.0) == 1e6


def test_calendar_constants():
    assert units.DAY == 24 * units.HOUR
    assert units.WEEK == 7 * units.DAY
