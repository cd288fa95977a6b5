"""PlcLink measurement facade."""

import numpy as np
import pytest

from repro.compile import compile_testbed
from repro.plc.channel import PlcChannel
from repro.plc.tonemap import ToneMapProcess, generate_tone_map
from repro.powergrid.activity import OfficeActivityModel
from repro.powergrid.load import ElectricalLoad
from repro.units import MBPS


def test_sample_bundles_consistent_metrics(testbed, t_work):
    link = testbed.plc_link(0, 1)
    sample = link.sample(t_work)
    assert sample.ble_per_slot_bps.shape == (6,)
    assert sample.avg_ble_bps == pytest.approx(
        float(np.mean(sample.ble_per_slot_bps)))
    assert 0.0 <= sample.pb_err <= 1.0
    assert sample.throughput_bps >= 0.0
    assert sample.avg_ble_mbps == sample.avg_ble_bps / MBPS


def test_throughput_below_ble_over_1p6(testbed, t_work):
    """BLE ≈ 1.7 T (Fig. 15): throughput sits well under BLE."""
    for (i, j) in [(0, 1), (2, 3), (13, 14)]:
        link = testbed.plc_link(i, j)
        thr = link.throughput_bps(t_work, measured=False)
        ble = link.avg_ble_bps(t_work)
        if ble > 1 * MBPS:
            assert thr < ble / 1.6


def test_measured_throughput_adds_noise(testbed, t_work):
    link = testbed.plc_link(0, 1)
    clean = link.throughput_bps(t_work, measured=False)
    noisy = [link.throughput_bps(t_work) for _ in range(10)]
    assert np.std(noisy) > 0
    assert np.mean(noisy) == pytest.approx(clean, rel=0.05)


def test_u_etx_at_least_one(testbed, t_work):
    for (i, j) in [(0, 1), (11, 4)]:
        link = testbed.plc_link(i, j)
        etx = link.u_etx(t_work)
        assert etx >= 1.0
        assert link.u_etx_std(t_work) >= 0.0


def test_bad_link_has_higher_u_etx(testbed, t_work):
    good = testbed.plc_link(13, 14)
    bad = testbed.plc_link(11, 4)
    assert bad.u_etx(t_work) > good.u_etx(t_work)


def test_broadcast_loss_is_tiny_for_usable_links(testbed, t_work):
    """§8.1: broadcast loss carries no quality signal for decent links."""
    good = testbed.plc_link(13, 14).broadcast_loss_probability(t_work)
    mid = testbed.plc_link(0, 3).broadcast_loss_probability(t_work)
    assert good < 1e-3
    assert mid < 1e-2


def test_is_connected_threshold(testbed, t_work):
    assert testbed.plc_link(0, 1).is_connected(t_work)
    assert not testbed.plc_link(0, 1).is_connected(
        t_work, min_throughput_bps=1e9)


# --- the channel is resolved once per probe -----------------------------------


#: probe -> the most signature evaluations one call may make.
#: ``is_connected`` checks usability, then reads the throughput.
PROBES = {"sample": 1, "throughput_bps": 1, "capacity_bps": 1,
          "avg_ble_bps": 1, "ble_per_slot_bps": 1, "pb_err": 1, "u_etx": 1,
          "is_connected": 2}


@pytest.fixture()
def signature_calls(monkeypatch):
    """Count :meth:`ElectricalLoad.state_signature` evaluations."""
    calls = []
    original = ElectricalLoad.state_signature

    def counting(self, t):
        calls.append(t)
        return original(self, t)

    monkeypatch.setattr(ElectricalLoad, "state_signature", counting)
    return calls


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_resolves_the_channel_once(testbed, t_work, signature_calls,
                                         probe):
    """Every probe reads one ``ChannelState``: one appliance-signature
    evaluation at a fresh instant, however many metrics it derives."""
    link = testbed.plc_link(0, 1)
    getattr(link, probe)(t_work + 0.5 + sorted(PROBES).index(probe))
    assert 1 <= len(signature_calls) <= PROBES[probe]


def test_tone_maps_resolve_the_channel_once_per_step(testbed, t_night,
                                                     signature_calls):
    channel = testbed.plc_link(0, 1).channel
    generate_tone_map(channel, t_night + 0.5, tmi=1)
    assert len(signature_calls) == 1
    process = ToneMapProcess(channel, start_time=t_night + 1.0)
    signature_calls.clear()
    steps = 200
    process.advance(t_night + 1.0 + steps * process.check_interval + 1e-9)
    regenerations = process.updates[1:]
    assert regenerations
    expiries = sum(u.reason == "expiry" for u in regenerations)
    # A check step reads one state, an expiry step none; every
    # regeneration reads one more.
    assert len(signature_calls) == steps - expiries + len(regenerations)


# --- what the scalar path resolves once per distinct state ---------------------


def test_two_directions_of_one_load_evaluate_the_schedule_once(
        testbed, t_work, monkeypatch):
    """The runner probes both directions of a pair at each instant; the
    load's signature memo answers the second from the first."""
    calls = []
    original = OfficeActivityModel.state_matrix

    def counting(self, appliances, ts):
        calls.append(ts)
        return original(self, appliances, ts)

    monkeypatch.setattr(OfficeActivityModel, "state_matrix", counting)
    t = t_work + 1234.25
    forward = testbed.plc_link(0, 1).throughput_bps(t, measured=False)
    backward = testbed.plc_link(1, 0).throughput_bps(t, measured=False)
    assert len(calls) == 1
    assert forward > 0 and backward > 0


def test_path_loss_runs_once_per_tap_state(t_work, monkeypatch):
    """Over the 168 two-hour instants of a two-week run (the ``mini3``
    long-haul flow 0->1 at a two-hour quantum), a direction computes its
    path loss once per distinct state of its own taps, however often the
    building-wide signature changes."""
    world = compile_testbed("mini3", seed=7).template
    link = world.plc_link(0, 1)
    computed = []
    original = PlcChannel._compute_path_loss

    def counting(self, signature):
        computed.append(signature)
        return original(self, signature)

    monkeypatch.setattr(PlcChannel, "_compute_path_loss", counting)
    instants = (t_work + 7200.0 * np.arange(168)).tolist()
    for t in instants:
        link.throughput_bps(t, measured=False)
    signatures = [world.load.state_signature(t) for t in instants]
    taps = [k for k, _, _ in world.load.tap_geometry(
        link.channel.src_outlet, link.channel.dst_outlet)]
    tap_states = {tuple(sig[k] for k in taps) for sig in signatures}
    changes = 1 + sum(a != b for a, b in zip(signatures, signatures[1:]))
    assert len(computed) == len(tap_states) < changes
