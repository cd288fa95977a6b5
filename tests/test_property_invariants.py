"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.stats import empirical_cdf
from repro.hybrid.reorder import ReorderBuffer
from repro.hybrid.schedulers import (
    RoundRobinScheduler,
    fluid_goodput_bps,
)
from repro.plc import mac, phy
from repro.plc.spec import HPAV
from repro.sim.clock import tone_map_slot_at
from repro.traffic.packet import Packet

pytestmark = pytest.mark.slow


# --- mains clock --------------------------------------------------------------


@given(st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
       st.integers(min_value=1, max_value=12))
def test_slot_index_always_valid(t, num_slots):
    slot = tone_map_slot_at(t, num_slots)
    assert 0 <= slot < num_slots


# --- PHY ---------------------------------------------------------------------


@given(st.lists(st.floats(min_value=-30, max_value=60, allow_nan=False),
                min_size=1, max_size=200))
def test_bit_loading_monotone_under_snr_improvement(snrs):
    snr = np.asarray(snrs)
    bits_low = phy.select_bits(snr)
    bits_high = phy.select_bits(snr + 3.0)
    assert (bits_high >= bits_low).all()


@given(st.floats(min_value=1e-3, max_value=1e5, allow_nan=False),
       st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1e-6, max_value=1e-3))
def test_ble_definition_nonnegative_and_linear(bits, rate, pberr, tsym):
    ble = phy.ble_bps(bits, rate, pberr, tsym)
    assert ble >= 0.0
    assert np.isclose(phy.ble_bps(2 * bits, rate, pberr, tsym), 2 * ble,
                      rtol=1e-12)


# --- MAC ----------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=20),
       st.floats(min_value=0.0, max_value=0.9))
def test_expected_transmissions_at_least_one_and_monotone_in_pbs(n, p):
    etx_n = mac.expected_transmissions(n, p)
    etx_n1 = mac.expected_transmissions(n + 1, p)
    assert etx_n >= 1.0
    assert etx_n1 >= etx_n  # more PBs can only need more attempts


@given(st.floats(min_value=0.0, max_value=0.85),
       st.floats(min_value=0.0, max_value=0.1))
def test_expected_transmissions_monotone_in_pb_err(p, dp):
    assert (mac.expected_transmissions(3, p + dp)
            >= mac.expected_transmissions(3, p))


@given(st.integers(min_value=1, max_value=65000))
def test_pb_segmentation_covers_payload(payload):
    n = mac.pbs_for_payload(payload, HPAV)
    assert n * HPAV.pb_payload_bytes >= payload
    assert (n - 1) * HPAV.pb_payload_bytes < payload


@given(st.integers(min_value=1, max_value=200),
       st.floats(min_value=1e6, max_value=2e8),
       st.floats(min_value=0.0, max_value=0.5))
def test_frame_duration_bounded(n_pbs, ble, pb_err):
    d = mac.frame_duration_s(n_pbs, ble, pb_err, HPAV)
    assert (HPAV.symbol_duration_s
            <= d
            <= HPAV.max_frame_duration_s
            + mac.DEFAULT_TIMINGS.preamble_fc_s + 1e-12)


# --- reorder buffer -------------------------------------------------------------


@given(st.permutations(list(range(12))))
def test_reorder_buffer_releases_in_order_within_window(perm):
    buf = ReorderBuffer(hole_timeout_s=100.0, max_window=64)
    released = []
    for k, seq in enumerate(perm):
        released += [p.seq for p in
                     buf.push(Packet(seq=seq, created_at=0.0),
                              now=0.001 * k)]
    assert released == sorted(released)
    assert released == list(range(12))  # nothing lost, window never flushed


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=60))
def test_reorder_buffer_never_regresses(seqs):
    buf = ReorderBuffer(hole_timeout_s=0.01, max_window=8)
    released = []
    for k, seq in enumerate(seqs):
        released += [p.seq for p in
                     buf.push(Packet(seq=seq, created_at=0.0),
                              now=0.005 * k)]
    assert released == sorted(released)
    assert len(released) == len(set(released))  # no duplicates


# --- schedulers ---------------------------------------------------------------------


@given(st.dictionaries(st.sampled_from(["plc", "wifi", "moca"]),
                       st.floats(min_value=1e5, max_value=1e9),
                       min_size=1, max_size=3),
       st.integers(min_value=0, max_value=500))
def test_round_robin_split_conserves_packets(caps, n):
    split = RoundRobinScheduler().split(caps, n)
    assert sum(split.values()) == n
    assert max(split.values()) - min(split.values()) <= 1


@given(st.floats(min_value=1e6, max_value=1e8),
       st.floats(min_value=1e6, max_value=1e8))
def test_fluid_goodput_bounded_by_sum(c1, c2):
    caps = {"plc": c1, "wifi": c2}
    total = c1 + c2
    proportional = fluid_goodput_bps(
        {"plc": c1 / total, "wifi": c2 / total}, caps)
    rr = fluid_goodput_bps({"plc": 0.5, "wifi": 0.5}, caps)
    assert proportional <= total * (1 + 1e-9)
    assert rr <= proportional * (1 + 1e-9)  # capacity awareness never loses


# --- analysis -----------------------------------------------------------------------


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=100))
def test_cdf_monotone_and_bounded(samples):
    grid = np.linspace(-1e6, 1e6, 31)
    cdf = empirical_cdf(samples, grid)
    assert (np.diff(cdf) >= 0).all()
    assert 0.0 <= cdf[0] and cdf[-1] <= 1.0
