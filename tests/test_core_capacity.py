"""Capacity estimation from SoFs and MMs (§7.1)."""

import numpy as np
import pytest

from repro.core.capacity import (
    estimate_capacity_from_sofs,
    estimate_capacity_mbps,
)
from repro.plc.sniffer import capture_saturated
from repro.units import MBPS


def test_sof_estimate_matches_link_average(testbed, t_work):
    link = testbed.plc_link(0, 1)
    sofs = capture_saturated(link, t_work, 1.0)
    estimate = estimate_capacity_from_sofs(sofs)
    truth = link.avg_ble_bps(t_work)
    assert estimate.capacity_bps == pytest.approx(truth, rel=0.1)
    assert estimate.method == "sof-slot-average"
    assert estimate.n_samples == len(sofs)


def test_estimate_requires_sofs():
    with pytest.raises(ValueError):
        estimate_capacity_from_sofs([])


def test_slot_averaging_beats_naive_on_biased_sampling(testbed, t_work):
    """§6.1: uneven slot sampling biases the naive estimator."""
    link = testbed.plc_link(11, 4)  # strong slot structure (noisy room)
    sofs = capture_saturated(link, t_work + 9 * 3600, 1.0)  # night
    # Bias the capture: keep only frames from the two noisiest slots, plus
    # a couple of samples of the others so both estimators see all slots.
    per_slot = link.ble_per_slot_bps(t_work + 9 * 3600)
    noisy_slots = set(np.argsort(per_slot)[:2])
    biased = [s for s in sofs if s.slot in noisy_slots]
    biased += [s for s in sofs if s.slot not in noisy_slots][:4]
    fair = estimate_capacity_from_sofs(biased, slot_average=True)
    naive = estimate_capacity_from_sofs(biased, slot_average=False)
    truth = float(np.mean(per_slot))
    assert abs(fair.capacity_bps - truth) < abs(naive.capacity_bps - truth)


def test_estimate_capacity_mbps_shorthand(testbed, t_work):
    link = testbed.plc_link(0, 1)
    sofs = capture_saturated(link, t_work, 0.5)
    assert estimate_capacity_mbps(sofs) == pytest.approx(
        estimate_capacity_from_sofs(sofs).capacity_bps / MBPS)


def test_probing_session_validates_inputs(testbed):
    from repro.core.capacity import ProbingCapacitySession
    est = testbed.networks["B1"].estimator("0", "1")
    with pytest.raises(ValueError):
        ProbingCapacitySession(est, packets_per_second=0)
    with pytest.raises(ValueError):
        ProbingCapacitySession(est, burst_packets=0)
