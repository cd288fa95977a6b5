"""PLC channel model: attenuation, noise, asymmetry, jitter."""

import dataclasses

import numpy as np
import pytest

from repro.plc.channel import JitterState, PlcChannel
from repro.plc.spec import HPAV
from repro.powergrid.activity import OfficeActivityModel
from repro.powergrid.appliances import ApplianceInstance
from repro.powergrid.load import ElectricalLoad
from repro.powergrid.topology import GridTopology, Outlet
from repro.sim.clock import MainsClock
from repro.sim.random import RandomStreams

NOON = MainsClock.at(day=1, hour=12)
NIGHT = MainsClock.at(day=1, hour=23.8)


def _bare_cable_load(length_m: float = 70.0):
    """Two stations on a long cable, nothing else — §5's isolated test."""
    g = GridTopology()
    g.add_outlet(Outlet("a", (0, 0), "B"))
    g.add_outlet(Outlet("b", (length_m, 0), "B"))
    g.add_cable("a", "b", length_m)
    return ElectricalLoad(g, [], OfficeActivityModel(RandomStreams(1)))


def _loaded_grid():
    g = GridTopology()
    g.add_outlet(Outlet("board", (0, 0), "B", is_board=True))
    for k in range(4):
        g.add_outlet(Outlet(f"j{k}", (5 + 6 * k, 0), "B"))
        g.add_cable("board" if k == 0 else f"j{k-1}", f"j{k}", 6.0)
        g.add_outlet(Outlet(f"o{k}", (5 + 6 * k, 2), "B"))
        g.add_cable(f"j{k}", f"o{k}", 3.0)
    apps = [
        ApplianceInstance.make("lab", "lab_equipment", "o1"),
        ApplianceInstance.make("fridge", "fridge", "o2"),
        ApplianceInstance.make("light", "fluorescent_lighting", "o2"),
    ]
    return ElectricalLoad(g, apps, OfficeActivityModel(RandomStreams(1)))


def test_bare_cable_keeps_near_max_snr():
    """§5: 70 m of unloaded cable costs almost nothing."""
    load = _bare_cable_load(70.0)
    ch = PlcChannel(load, "a", "b", HPAV, RandomStreams(3))
    assert ch.mean_snr_db(NOON) > 40.0


def test_src_equals_dst_rejected():
    load = _bare_cable_load()
    with pytest.raises(ValueError):
        PlcChannel(load, "a", "a", HPAV, RandomStreams(3))


def test_disconnected_outlets_are_unusable():
    g = GridTopology()
    g.add_outlet(Outlet("a", (0, 0), "B"))
    g.add_outlet(Outlet("b", (10, 0), "B"))
    load = ElectricalLoad(g, [], OfficeActivityModel(RandomStreams(1)))
    ch = PlcChannel(load, "a", "b", HPAV, RandomStreams(3))
    assert not ch.is_usable(NOON)
    assert (ch.path_loss_db(NOON) >= 150).all()


def test_appliances_degrade_the_channel():
    bare = PlcChannel(_bare_cable_load(30.0), "a", "b", HPAV,
                      RandomStreams(3))
    loaded = PlcChannel(_loaded_grid(), "o0", "o3", HPAV, RandomStreams(3))
    assert loaded.mean_snr_db(NOON) < bare.mean_snr_db(NOON) - 5.0


def test_snr_grid_shape():
    ch = PlcChannel(_loaded_grid(), "o0", "o3", HPAV, RandomStreams(3))
    snr = ch.snr_db(NOON)
    assert snr.shape == (HPAV.num_carriers, HPAV.num_slots)


def test_channel_is_frequency_selective():
    ch = PlcChannel(_loaded_grid(), "o0", "o3", HPAV, RandomStreams(3))
    loss = ch.path_loss_db(NOON)
    assert loss.max() - loss.min() > 5.0  # multipath notches


def test_receiver_local_noise_creates_asymmetry():
    """Noise sits next to o1: receiving AT o1 is worse (§5)."""
    load = _loaded_grid()
    streams = RandomStreams(3)
    towards_noise = PlcChannel(load, "o3", "o1", HPAV, streams, name="fwd")
    away = PlcChannel(load, "o1", "o3", HPAV, streams, name="rev")
    assert towards_noise.mean_snr_db(NOON) < away.mean_snr_db(NOON) - 3.0


def test_noise_varies_per_slot():
    ch = PlcChannel(_loaded_grid(), "o0", "o1", HPAV, RandomStreams(3))
    noise = ch.noise_psd_dbm_hz(NOON)
    slot_means = noise.mean(axis=0)
    assert slot_means.max() - slot_means.min() > 0.5


def _jitter(state):
    """The per-slot jitter a channel state carries (dB, per carrier)."""
    return state.snr_db - state.base_snr_db


def test_jitter_sigma_tracks_noise_dominance():
    load = _loaded_grid()
    noisy = PlcChannel(load, "o3", "o1", HPAV, RandomStreams(3))
    quiet = PlcChannel(load, "o3", "o0", HPAV, RandomStreams(3))
    s_noisy = noisy.state_at(NOON).jitter
    s_quiet = quiet.state_at(NOON).jitter
    assert s_noisy.sigma_db > s_quiet.sigma_db
    assert s_noisy.hold_time_s < s_quiet.hold_time_s


def test_jitter_is_piecewise_constant():
    ch = PlcChannel(_loaded_grid(), "o0", "o1", HPAV, RandomStreams(3))
    state = ch.state_at(NOON).jitter
    t0 = NOON - (NOON % state.hold_time_s)
    j1 = _jitter(ch.state_at(t0 + 0.001))
    j2 = _jitter(ch.state_at(t0 + 0.002))
    assert np.allclose(j1, j2)


def test_jitter_changes_across_hold_intervals():
    ch = PlcChannel(_loaded_grid(), "o0", "o1", HPAV, RandomStreams(3))
    state = ch.state_at(NOON).jitter
    j1 = _jitter(ch.state_at(NOON))
    j2 = _jitter(ch.state_at(NOON + 3 * state.hold_time_s))
    assert not np.allclose(j1, j2)


def test_jitter_memo_is_keyed_by_the_whole_state():
    """Two jitter states in one hold interval with the same sigma each
    read their own draw, never the other's memoized one."""
    ch = PlcChannel(_loaded_grid(), "o0", "o1", HPAV, RandomStreams(3))
    calm = JitterState(sigma_db=0.04, hold_time_s=20.0, impulse_prob=0.0,
                       impulse_depth_db=2.5)
    dipped = dataclasses.replace(calm, impulse_prob=1.0)
    t = 105.0
    reads = []
    for state in (calm, dipped):
        ch._jitter_state = lambda _sig, _rate, state=state: state
        read = ch.state_at(t)
        assert read.jitter == state and read.interval == 5
        rng = RandomStreams(3).fresh(f"plc.jitter.{ch.name}.5")
        draw = ch._draw_jitter(rng, state)
        assert read.snr_db.tobytes() == (
            read.base_snr_db + draw[None, :]).tobytes()
        reads.append(read.snr_db)
    assert np.all(reads[1] < reads[0])


def test_path_loss_reacts_to_appliance_switching():
    """Random scale (§6.3): the transfer function changes with the load."""
    load = _loaded_grid()
    ch = PlcChannel(load, "o0", "o3", HPAV, RandomStreams(3))
    day = ch.path_loss_db(NOON)       # fluorescent on (weekday noon)
    night = ch.path_loss_db(NIGHT)    # lights off after 21:00
    assert not np.allclose(day, night)


def test_direction_loss_is_stable_per_link():
    load = _loaded_grid()
    ch1 = PlcChannel(load, "o0", "o3", HPAV, RandomStreams(3), name="L")
    ch2 = PlcChannel(load, "o0", "o3", HPAV, RandomStreams(3), name="L")
    assert ch1._direction_loss_db == ch2._direction_loss_db
