"""MAC layer: efficiency chain, segmentation, SACK retransmissions."""

import numpy as np
import pytest

from repro.plc import mac
from repro.plc.spec import HPAV
from repro.sim.random import RandomStreams
from repro.units import MBPS


def test_1500B_packet_makes_three_pbs():
    """§8.1: 'a packet of 1500 bytes, which produces 3 PBs'."""
    assert mac.pbs_for_payload(1500, HPAV) == 3


def test_small_payload_still_occupies_one_pb():
    """§7.1 footnote: PLC always transmits at least a PB, using padding."""
    assert mac.pbs_for_payload(10, HPAV) == 1
    with pytest.raises(ValueError):
        mac.pbs_for_payload(0, HPAV)


def test_efficiency_lands_on_the_paper_fit():
    """Fig. 15: BLE = 1.7 T − 0.65 → T/BLE ≈ 1/1.7."""
    model = mac.SaturatedThroughputModel(HPAV)
    assert model.efficiency() == pytest.approx(1 / 1.7, rel=0.02)


def test_throughput_scales_linearly_with_ble():
    model = mac.SaturatedThroughputModel(HPAV)
    t1 = model.throughput_bps(50 * MBPS)
    t2 = model.throughput_bps(100 * MBPS)
    assert t2 == pytest.approx(2 * t1, rel=1e-6)
    assert model.throughput_bps(0.0) == 0.0


def test_residual_errors_reduce_throughput():
    model = mac.SaturatedThroughputModel(HPAV)
    assert model.throughput_bps(100 * MBPS, pb_err=0.2) == pytest.approx(
        0.8 * model.throughput_bps(100 * MBPS), rel=1e-6)


def test_frame_duration_has_one_symbol_floor():
    """§7.2's mechanism: a frame never takes less than one OFDM symbol."""
    d = mac.frame_duration_s(1, 150 * MBPS, 0.0, HPAV)
    assert d >= HPAV.symbol_duration_s


def test_frame_duration_caps_at_standard_limit():
    d = mac.frame_duration_s(10_000, 10 * MBPS, 0.0, HPAV)
    assert d <= HPAV.max_frame_duration_s + mac.DEFAULT_TIMINGS.preamble_fc_s


def test_frame_duration_monotone_in_pbs():
    durations = [mac.frame_duration_s(n, 100 * MBPS, 0.0, HPAV)
                 for n in (1, 5, 20)]
    assert durations == sorted(durations)
    with pytest.raises(ValueError):
        mac.frame_duration_s(0, 100 * MBPS, 0.0, HPAV)


def test_deliver_packet_error_free_is_single_shot():
    rng = RandomStreams(5).get("t")
    result = mac.deliver_packet(3, 0.0, rng)
    assert result.transmissions == 1
    assert result.pb_sends == 3


def test_deliver_packet_retransmits_only_failed_pbs():
    rng = RandomStreams(5).get("t")
    results = [mac.deliver_packet(3, 0.4, rng) for _ in range(500)]
    # SACK selectivity: total PB copies < transmissions × 3 on average.
    mean_sends = np.mean([r.pb_sends for r in results])
    mean_tx = np.mean([r.transmissions for r in results])
    assert mean_sends < mean_tx * 3


def test_deliver_packet_rejects_bad_pb_err():
    rng = RandomStreams(5).get("t")
    with pytest.raises(ValueError):
        mac.deliver_packet(3, 1.0, rng)


def test_expected_transmissions_closed_form_matches_simulation():
    rng = RandomStreams(6).get("t")
    p = 0.3
    sim = np.mean([mac.deliver_packet(3, p, rng).transmissions
                   for _ in range(4000)])
    assert mac.expected_transmissions(3, p) == pytest.approx(sim, rel=0.05)


def test_expected_transmissions_edge_cases():
    assert mac.expected_transmissions(3, 0.0) == 1.0
    assert mac.expected_transmissions(3, 1.0) == float("inf")
    assert mac.expected_transmissions(1, 0.5) == pytest.approx(2.0, rel=1e-6)


def test_transmission_std_grows_with_pb_err():
    """Fig. 22: higher U-ETX comes with higher variance."""
    stds = [mac.transmission_count_std(3, p) for p in (0.05, 0.2, 0.5)]
    assert stds == sorted(stds)
    assert mac.transmission_count_std(3, 0.0) == 0.0


def test_csma_tables_match_1901():
    """CW and DC ladders from the standard (ref [19])."""
    assert mac.CSMA_CW == (8, 16, 32, 64)
    assert mac.CSMA_DC == (0, 1, 3, 15)
