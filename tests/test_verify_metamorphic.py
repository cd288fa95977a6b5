"""Metamorphic-relation tests: FrozenLink honors the Link contract, the
relations hold on the real simulator, and each catches a planted breach."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.scenario import FlowRequest, Scenario
from repro.testbed import build_preset_testbed
from repro.verify.metamorphic import (
    FrozenLink,
    check_attenuation_monotonicity,
    check_cbr_contention_monotonicity,
    check_file_size_scaling,
    check_snr_monotonicity,
    check_time_shift,
    frozen_link_decorator,
    shift_scenario,
)
from tests.conftest import LegacyHorizonRunner

SEED = 7
T_REF = 64.0


@pytest.fixture(scope="module")
def mini3():
    return build_preset_testbed("mini3", seed=SEED)


# --- FrozenLink contract ------------------------------------------------------


def test_frozen_link_pins_channel_but_restamps_time(mini3):
    frozen = FrozenLink(mini3.link("plc", 0, 1), T_REF)
    early, late = frozen.sample(10.0), frozen.sample(5000.0)
    assert early.time == 10.0 and late.time == 5000.0
    assert early.capacity_bps == late.capacity_bps
    assert early.throughput_bps == late.throughput_bps
    assert frozen.capacity_bps(123.0) == early.capacity_bps


def test_frozen_link_series_matches_scalar_path(mini3):
    frozen = FrozenLink(mini3.link("wifi", 0, 1), T_REF)
    ts = np.arange(0.0, 4.0, 0.5)
    series = frozen.sample_series(ts)
    assert np.array_equal(series.times, ts)
    assert np.all(series.capacity_bps == frozen.sample(0.0).capacity_bps)
    assert frozen.name == mini3.link("wifi", 0, 1).name
    assert frozen.medium == "wifi"


def test_frozen_link_decorator_passes_through_none():
    assert frozen_link_decorator(T_REF)(None, "plc", 0, 5) is None


def test_shift_scenario_moves_every_start():
    scenario = Scenario("s")
    scenario.add(FlowRequest("a", 0, 1, 10.0, kind="saturated",
                             medium="plc", duration_s=5.0))
    scenario.add(FlowRequest("b", 1, 2, 12.0, kind="file", medium="wifi",
                             size_bytes=1e6))
    shifted = shift_scenario(scenario, 8.0)
    assert [f.start_s for f in shifted.flows] == [18.0, 20.0]
    assert [f.name for f in shifted.flows] == ["a", "b"]


# --- time shift ---------------------------------------------------------------


def _mixed_scenario(t0):
    scenario = Scenario("meta-mixed")
    scenario.add(FlowRequest("sat", 0, 1, t0, kind="saturated",
                             medium="plc", duration_s=6.0))
    scenario.add(FlowRequest("file", 1, 2, t0 + 1.0, kind="file",
                             medium="hybrid", size_bytes=2e6))
    return scenario


def test_time_shift_relation_holds(mini3):
    assert check_time_shift(mini3, _mixed_scenario(T_REF),
                            delta_s=4.0) == []


def test_time_shift_catches_legacy_horizon_bug(mini3):
    scenario = _mixed_scenario(T_REF)
    scenario.add(FlowRequest("bulk", 0, 2, T_REF, kind="file",
                             medium="plc", size_bytes=1e12))

    diffs = check_time_shift(mini3, scenario, delta_s=4.0,
                             runner_factory=LegacyHorizonRunner)
    assert diffs and any("bulk" in d for d in diffs)


# --- monotonicity relations ---------------------------------------------------


def test_snr_monotonicity_holds_on_plc_link(mini3):
    assert check_snr_monotonicity(mini3.plc_link(0, 1), T_REF) == []


def test_snr_monotonicity_skips_channelless_links(mini3):
    assert check_snr_monotonicity(mini3.link("wifi", 0, 1), T_REF) == []


@pytest.mark.parametrize("medium", ["plc", "wifi"])
def test_attenuation_monotonicity_holds(mini3, medium):
    assert check_attenuation_monotonicity(
        mini3.link(medium, 0, 1), T_REF) == []


# --- scaling relations --------------------------------------------------------


def test_file_size_scaling_holds(mini3):
    assert check_file_size_scaling(mini3, 0, 1, "wifi",
                                   size_bytes=2e6, factor=3,
                                   t0=T_REF) == []


def test_cbr_contention_monotonicity_holds(mini3):
    assert check_cbr_contention_monotonicity(
        mini3, 0, 1, "wifi", size_bytes=2e6,
        rates_bps=(1e6, 8e6), t0=T_REF) == []
