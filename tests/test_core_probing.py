"""Probing policies and overhead accounting (§7.3, §8.2)."""

import pytest

from repro.core.probing import (
    AdaptiveProbingPolicy,
    FixedProbingPolicy,
    ProbeSchedule,
    network_overhead_bps,
    overhead_reduction,
)
from repro.units import MBPS


def test_schedule_validation():
    with pytest.raises(ValueError):
        ProbeSchedule(interval_s=0.0)
    with pytest.raises(ValueError):
        ProbeSchedule(interval_s=1.0, payload_bytes=0)
    with pytest.raises(ValueError):
        ProbeSchedule(interval_s=1.0, burst_packets=0)


def test_schedule_overhead():
    s = ProbeSchedule(interval_s=5.0, payload_bytes=1500)
    assert s.overhead_bps() == pytest.approx(1500 * 8 / 5.0)


def test_fixed_policy_ignores_quality():
    policy = FixedProbingPolicy(5.0)
    assert policy.schedule_for(10 * MBPS).interval_s == 5.0
    assert policy.schedule_for(140 * MBPS).interval_s == 5.0


def test_adaptive_policy_uses_paper_factors():
    """§7.3: bad every 5 s, average 8× slower, good 16× slower."""
    policy = AdaptiveProbingPolicy()
    assert policy.interval_for(30 * MBPS) == 5.0
    assert policy.interval_for(80 * MBPS) == 40.0
    assert policy.interval_for(120 * MBPS) == 80.0


def test_adaptive_policy_validates_factors():
    with pytest.raises(ValueError):
        AdaptiveProbingPolicy(average_factor=16.0, good_factor=8.0)


def test_overhead_reduction_matches_paper_ballpark():
    """The paper reports ~32 % reduction on its testbed mix."""
    # A mix of qualities: 6 bad, 4 average, 4 good (roughly the testbed's).
    bles = [30 * MBPS] * 6 + [80 * MBPS] * 4 + [120 * MBPS] * 4
    reduction = overhead_reduction(AdaptiveProbingPolicy(),
                                   FixedProbingPolicy(5.0), bles)
    assert 0.2 < reduction < 0.6


def test_network_overhead_sums_links():
    policy = FixedProbingPolicy(5.0)
    one = network_overhead_bps(policy, [50 * MBPS])
    four = network_overhead_bps(policy, [50 * MBPS] * 4)
    assert four == pytest.approx(4 * one)
