"""Electrical-load facade: noise propagation, taps, caching."""

import numpy as np
import pytest

from repro.compile import compile_testbed
from repro.faults import ANY_TARGET, FaultEvent, FaultPlan, inject_surges
from repro.powergrid.activity import OfficeActivityModel
from repro.powergrid.appliances import ApplianceInstance
from repro.powergrid.load import BACKGROUND_NOISE_DBM_HZ, ElectricalLoad
from repro.powergrid.topology import GridTopology, Outlet
from repro.sim.clock import MainsClock
from repro.sim.random import RandomStreams
from repro.testbed.experiments import night_start


def _grid_with_two_rooms():
    g = GridTopology()
    g.add_outlet(Outlet("board", (0, 0), "B", is_board=True))
    g.add_outlet(Outlet("j0", (5, 0), "B"))
    g.add_outlet(Outlet("j1", (30, 0), "B"))
    g.add_outlet(Outlet("near", (5, 2), "B"))
    g.add_outlet(Outlet("far", (30, 2), "B"))
    g.add_cable("board", "j0", 5.0)
    g.add_cable("j0", "j1", 25.0)
    g.add_cable("j0", "near", 2.0)
    g.add_cable("j1", "far", 2.0)
    return g


@pytest.fixture()
def load():
    g = _grid_with_two_rooms()
    apps = [ApplianceInstance.make("fridge-near", "fridge", "near"),
            ApplianceInstance.make("lab-near", "lab_equipment", "near")]
    return ElectricalLoad(g, apps, OfficeActivityModel(RandomStreams(2)))


def test_unknown_appliance_outlet_rejected():
    g = _grid_with_two_rooms()
    bad = [ApplianceInstance.make("x", "fridge", "nonexistent")]
    with pytest.raises(KeyError):
        ElectricalLoad(g, bad, OfficeActivityModel(RandomStreams(2)))


def test_noise_is_local(load):
    """Noise near the appliance must exceed noise a room away (§5)."""
    t = MainsClock.at(day=1, hour=12)
    near = load.noise_psd_at("near", t)
    far = load.noise_psd_at("far", t)
    assert near.mean() > far.mean() + 10.0


def test_noise_never_below_background(load):
    t = MainsClock.at(day=1, hour=12)
    for outlet in ("near", "far", "board"):
        noise = load.noise_psd_at(outlet, t)
        assert (noise >= BACKGROUND_NOISE_DBM_HZ - 1e-9).all()


def test_noise_has_slot_structure(load):
    """Lab equipment has a mains-synchronous profile → slots differ."""
    t = MainsClock.at(day=1, hour=12)
    noise = load.noise_psd_at("near", t)
    assert noise.max() - noise.min() > 0.5


def test_unknown_outlet_raises(load):
    with pytest.raises(KeyError):
        load.noise_psd_at("missing", 0.0)


def test_cable_distance_caches_and_matches_grid(load):
    d1 = load.cable_distance("near", "far")
    d2 = load.cable_distance("far", "near")
    assert d1 == d2 == 29.0


def _reflection_taps(load, src, dst, t):
    """``(appliance, extra_path_metres, powered_on)`` per tap: the static
    tap geometry, each tap's state read from the signature at ``t``."""
    signature = load.state_signature(t)
    return [(appliance, extra, signature[i])
            for i, appliance, extra in load.tap_geometry(src, dst)]


def test_reflection_taps_geometry_is_static(load):
    t = MainsClock.at(day=1, hour=12)
    taps_a = _reflection_taps(load, "near", "far", t)
    taps_b = _reflection_taps(load, "near", "far", t + 3600)
    assert [(a.instance_id, e) for a, e, _ in taps_a] == \
        [(a.instance_id, e) for a, e, _ in taps_b]


def test_reflection_taps_report_on_state(load):
    t = MainsClock.at(day=1, hour=12)
    taps = _reflection_taps(load, "near", "far", t)
    by_id = {a.instance_id: on for a, _, on in taps}
    assert by_id["fridge-near"]       # always on
    assert by_id["lab-near"]          # always on


def test_impulsive_rate_positive_near_impulsive_appliance(load):
    t = MainsClock.at(day=1, hour=12)
    assert load.impulsive_event_rate_at("near", t) > 0
    assert (load.impulsive_event_rate_at("near", t)
            > load.impulsive_event_rate_at("far", t))


def test_state_signature_matches_appliance_order(load):
    t = MainsClock.at(day=1, hour=12)
    sig = load.state_signature(t)
    assert len(sig) == len(load.appliances)
    assert load.active_count(t) == sum(sig)


def test_signature_memo_follows_the_overlay():
    """The last instant's signature is memoized with the overlay it was
    read under: a surge installed after a read, and its removal, both
    show at the same instant."""
    load = compile_testbed("mini3", seed=7).template.load
    t = night_start() + 7.0

    def schedule_row():
        return tuple(load.state_matrix([t])[0].tolist())

    original = load.state_signature(t)
    assert not all(original) and original == schedule_row()
    inject_surges(load.activity, FaultPlan(seed=0, events=[
        FaultEvent("appliance_surge", ANY_TARGET, t - 1.0, t + 1.0)]))
    surged = load.state_signature(t)
    assert all(surged) and surged == schedule_row()
    load.activity.overlay = None
    assert load.state_signature(t) == original == schedule_row()
