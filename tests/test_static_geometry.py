"""Static PLC grid geometry against the pairwise searches it replaced.

The wiring never changes, so ``GridTopology`` answers ``connected``,
``electrical_distance`` and ``signal_path`` from one memoized
shortest-path tree per source outlet, ``ElectricalLoad`` keeps one
receiver-rooted row per outlet, and each ``PlcChannel`` resolves its
direction's geometry once. The references below are the code those paths
ran before: networkx's pairwise ``has_path`` / ``shortest_path_length``
/ ``shortest_path``, the noise and impulse loops over pairwise cable
distances, and the path loss with one ``streams.fresh`` per tap. Every
result must match them exactly, not approximately.
"""

from __future__ import annotations

import re
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.campaign import run_campaign, survey_specs
from repro.compile import compile_testbed, compiled_testbed, reset_compile_cache
from repro.faults import ANY_TARGET, FaultEvent, FaultPlan, inject_surges
from repro.plc import channel as plc_channel
from repro.plc.channel import PlcChannel
from repro.powergrid.activity import OfficeActivityModel
from repro.powergrid.load import (
    BACKGROUND_NOISE_DBM_HZ,
    NOISE_CABLE_LOSS_DB_PER_M,
    ElectricalLoad,
    dbm_to_mw,
)
from repro.powergrid.topology import GridTopology, Outlet
from repro.sim.random import RandomStreams
from repro.testbed.experiments import night_start, working_hours_start
from repro.testbed.floorplan import build_floor_grid, populate_appliances

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SEED = 23


# --- the references: pairwise searches, per-tap fresh streams --------------------


def ref_distance(grid, a, b):
    """The old pairwise cable distance: inf when not connected."""
    if not nx.has_path(grid._graph, a, b):
        return float("inf")
    return float(nx.shortest_path_length(grid._graph, a, b, weight="length"))


def ref_noise_psd(load, outlet, signature):
    total_mw = np.full(load.num_slots, dbm_to_mw(BACKGROUND_NOISE_DBM_HZ))
    for i, appliance in enumerate(load.appliances):
        if not signature[i]:
            continue
        d = ref_distance(load.grid, appliance.outlet_id, outlet)
        if not np.isfinite(d):
            continue
        loss = 10.0 ** (-NOISE_CABLE_LOSS_DB_PER_M * d / 10.0)
        total_mw += (np.float64(dbm_to_mw(appliance.kind.noise_psd_dbm_hz))
                     * loss * appliance.kind.slot_noise_multipliers())
    return 10.0 * np.log10(total_mw)


def ref_impulse_rate(load, outlet, signature):
    rate = 0.0
    for i, appliance in enumerate(load.appliances):
        if not signature[i]:
            continue
        d = ref_distance(load.grid, appliance.outlet_id, outlet)
        if not np.isfinite(d):
            continue
        weight = 10.0 ** (-NOISE_CABLE_LOSS_DB_PER_M * d / 20.0)
        rate += appliance.kind.impulsive_rate_hz * weight
    return rate


def ref_taps(load, src, dst, signature, max_branch_length=25.0):
    graph = load.grid._graph
    path = nx.shortest_path(graph, src, dst, weight="length")
    dist = nx.multi_source_dijkstra_path_length(graph, set(path),
                                                weight="length")
    stubs = {node: float(d) for node, d in dist.items()
             if node not in path and d <= max_branch_length}
    taps = []
    for i, appliance in enumerate(load.appliances):
        stub = stubs.get(appliance.outlet_id)
        if stub is None:
            if appliance.outlet_id not in path:
                continue
            stub = 1.0
        taps.append((appliance, 2.0 * stub, signature[i]))
    return taps


def ref_path_loss(channel, signature):
    """The old ``PlcChannel._compute_path_loss``, pairwise and per tap."""
    load, src, dst = channel.load, channel.src_outlet, channel.dst_outlet
    graph = load.grid._graph
    d_direct = float(nx.shortest_path_length(graph, src, dst,
                                             weight="length"))
    taps = ref_taps(load, src, dst, signature)
    f = channel._freqs
    path = nx.shortest_path(graph, src, dst, weight="length")
    n_junctions = sum(1 for node in path[1:-1] if graph.degree(node) > 2)
    through = 10.0 ** (-plc_channel.JUNCTION_LOSS_DB * n_junctions / 20.0)
    local_load_rx = 0.0
    for appliance, extra, powered_on in taps:
        gamma = appliance.kind.reflection_coefficient(powered_on)
        drain = 0.45 if powered_on else 0.1
        through *= np.sqrt(max(1e-6, 1.0 - drain * gamma ** 2))
        d_rx = ref_distance(load.grid, appliance.outlet_id, dst)
        if d_rx <= plc_channel.LOCAL_LOAD_RADIUS_M and powered_on:
            local_load_rx += gamma
    speed = plc_channel.PROPAGATION_SPEED
    h = through * np.exp(-channel._alpha * d_direct) * np.exp(
        -2j * np.pi * f * d_direct / speed)
    for appliance, extra, powered_on in taps:
        gamma = appliance.kind.reflection_coefficient(powered_on)
        if gamma < 1e-3:
            continue
        spread_rng = channel._streams.fresh(
            f"plc.tap-length.{appliance.instance_id}")
        d_path = d_direct + extra + float(spread_rng.uniform(0.0, 6.0))
        amp = 0.85 * gamma * through * np.exp(-channel._alpha * d_path)
        h += amp * np.exp(-2j * np.pi * f * d_path / speed)
    power = np.abs(h) ** 2
    loss_db = -10.0 * np.log10(np.maximum(power, 1e-20))
    loss_db += 2 * plc_channel.COUPLING_LOSS_DB + channel._direction_loss_db
    local_shape = np.clip((f / 8.0e6) ** -0.6, 0.3, 2.5)
    loss_db += 6.0 * min(local_load_rx, 2.5) * local_shape
    return loss_db


# --- fixtures --------------------------------------------------------------------


def floor_grid():
    """The floor every preset shares: wiring plus the appliance outlets."""
    grid, sites = build_floor_grid()
    appliances = populate_appliances(grid, sites)
    return grid, sites, appliances


def surge_all(world):
    """Force every appliance on over the day and night instants."""
    events = [FaultEvent("appliance_surge", ANY_TARGET, start, start + 600.0)
              for start in (working_hours_start(), night_start())]
    inject_surges(world.load.activity, FaultPlan(seed=0, events=events))


def signatures(world):
    """Day, night and surge signatures of one world."""
    day, night = working_hours_start() + 13.0, night_start() + 7.0
    sigs = {"day": world.load.state_signature(day),
            "night": world.load.state_signature(night)}
    surge_all(world)
    sigs["surge"] = world.load.state_signature(day)
    assert all(sigs["surge"]) and sigs["day"] != sigs["night"]
    return sigs


# --- topology: tree-served queries ----------------------------------------------


def _assert_queries_match(grid, pairs):
    graph = grid._graph
    for a, b in pairs:
        assert grid.connected(a, b) is nx.has_path(graph, a, b)
        distance = grid.electrical_distance(a, b)
        expected = float(nx.shortest_path_length(graph, a, b,
                                                 weight="length"))
        assert type(distance) is float and distance == expected, (a, b)
        assert grid.signal_path(a, b) == nx.shortest_path(
            graph, a, b, weight="length"), (a, b)


def test_tree_queries_equal_pairwise_searches():
    grid, sites, appliances = floor_grid()
    stations = [site.outlet_id for site in sites.values()]
    plugs = sorted({appliance.outlet_id for appliance in appliances})
    pairs = [(a, b) for a in stations for b in stations if a != b]
    pairs += [(a, b) for a in stations for b in plugs]
    pairs += [(b, a) for a in stations for b in plugs]
    _assert_queries_match(grid, pairs)


@pytest.mark.slow
def test_tree_queries_equal_pairwise_searches_on_every_outlet_pair():
    grid, _, _ = floor_grid()
    outlets = [outlet.outlet_id for outlet in grid.outlets()]
    _assert_queries_match(grid, [(a, b) for a in outlets for b in outlets
                                 if a != b])


def _error(fn, *args, **kwargs):
    with pytest.raises(nx.NetworkXException) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


def test_unknown_and_disconnected_outlets_raise_what_networkx_raises():
    grid, sites, _ = floor_grid()
    grid.add_outlet(Outlet("island", (0.0, 0.0), "B1"))
    graph = grid._graph
    station = sites[0].outlet_id
    cases = [(station, "island"), ("island", station), (station, "nowhere"),
             ("nowhere", station), ("nowhere", "nope")]
    for a, b in cases:
        if "island" in (a, b):
            assert grid.connected(a, b) is False
        else:
            assert _error(grid.connected, a, b) == _error(
                nx.has_path, graph, a, b)
        assert _error(grid.electrical_distance, a, b) == _error(
            nx.shortest_path_length, graph, a, b, weight="length")
        assert _error(grid.signal_path, a, b) == _error(
            nx.shortest_path, graph, a, b, weight="length")
    assert grid.electrical_distance(station, station) == 0.0
    assert grid.signal_path(station, station) == [station]


def test_load_distances_for_unknown_and_disconnected_outlets():
    grid, sites, appliances = floor_grid()
    grid.add_outlet(Outlet("island", (0.0, 0.0), "B1"))
    load = ElectricalLoad(grid, appliances,
                          OfficeActivityModel(RandomStreams(SEED)))
    station = sites[0].outlet_id
    assert load.cable_distance(station, "island") == float("inf")
    assert load.cable_distance("island", station) == float("inf")
    with pytest.raises(nx.NodeNotFound):
        load.cable_distance(station, "nowhere")
    with pytest.raises(nx.NodeNotFound):
        load.cable_distance("nowhere", station)
    everything_on = (True,) * len(appliances)
    with pytest.raises(nx.NodeNotFound):
        load.noise_psd_for("nowhere", everything_on)
    with pytest.raises(nx.NodeNotFound):
        load.impulsive_event_rate_for("nowhere", everything_on)
    # Nothing reaches an isolated receiver but the background floor.
    assert load.impulsive_event_rate_for("island", everything_on) == 0.0
    assert np.all(load.noise_psd_for("island", everything_on)
                  == BACKGROUND_NOISE_DBM_HZ)


def test_a_cable_added_after_a_query_is_refused():
    grid = GridTopology()
    for name, x in (("a", 0.0), ("b", 5.0), ("c", 9.0)):
        grid.add_outlet(Outlet(name, (x, 0.0), "B"))
    grid.add_cable("a", "b", 5.0)
    grid.add_cable("b", "c", 4.0)  # before any query: takes effect
    assert grid.electrical_distance("a", "c") == 9.0
    with pytest.raises(RuntimeError, match="fixed"):
        grid.add_cable("a", "c", 1.0)
    assert grid.electrical_distance("a", "c") == 9.0
    assert grid.signal_path("a", "c") == ["a", "b", "c"]
    assert grid.distances_from("c") == {"c": 0, "b": 4.0, "a": 9.0}


def test_distances_are_summed_from_the_receiver():
    """Lengths that are not exact binary fractions sum to different
    floats in the two directions; the load's distances (and so its noise
    and impulse rows) are the receiver-rooted sums."""
    grid = GridTopology()
    for name, x in (("a", 0.0), ("b", 0.1), ("c", 0.3), ("d", 0.6)):
        grid.add_outlet(Outlet(name, (x, 0.0), "B"))
    for a, b, length in (("a", "b", 0.1), ("b", "c", 0.2), ("c", "d", 0.3)):
        grid.add_cable(a, b, length)
    load = ElectricalLoad(grid, [], OfficeActivityModel(RandomStreams(SEED)))
    from_d = 0.3 + 0.2 + 0.1
    from_a = 0.1 + 0.2 + 0.3
    assert from_d != from_a
    assert grid.electrical_distance("d", "a") == from_d
    assert grid.electrical_distance("a", "d") == from_a
    assert load.cable_distance("a", "d") == from_d
    assert load.cable_distance("d", "a") == from_a


# --- load rows and channel geometry ----------------------------------------------


@pytest.mark.parametrize("preset", ["office", "office-av500"])
def test_rows_and_path_loss_equal_the_pairwise_loops(preset):
    world = compile_testbed(preset, seed=SEED).template
    sigs = signatures(world)
    outlets = sorted(site.outlet_id for site in world.sites.values())
    for name, sig in sigs.items():
        for outlet in outlets:
            noise = world.load.noise_psd_for(outlet, sig)
            assert noise.tobytes() == ref_noise_psd(
                world.load, outlet, sig).tobytes(), (name, outlet)
            rate = world.load.impulsive_event_rate_for(outlet, sig)
            expected = ref_impulse_rate(world.load, outlet, sig)
            assert type(rate) is float and rate == expected, (name, outlet)
    pairs = world.same_board_pairs()
    for i, j in pairs[::4]:
        channel = world.plc_link(i, j).channel
        for name, sig in sigs.items():
            assert channel._compute_path_loss(sig).tobytes() == \
                ref_path_loss(channel, sig).tobytes(), (name, i, j)
        assert world.cable_distance(i, j) == ref_distance(
            world.load.grid, world.sites[i].outlet_id,
            world.sites[j].outlet_id)


def test_path_loss_memo_hits_clears_and_rehits(monkeypatch):
    """The path-loss memo is keyed on the direction's tap states and
    starts over when full. Revisit three tap states so that reads hit,
    clear and re-hit a two-entry memo: every loss read through
    ``path_loss_db`` is the reference's bytes, and read-only."""
    monkeypatch.setattr(plc_channel, "_PATH_LOSS_MEMO_LIMIT", 2)
    world = compile_testbed("office", seed=SEED).template
    i, j = world.same_board_pairs()[5]
    channel = world.plc_link(i, j).channel
    taps = [k for k, _, _ in world.load.tap_geometry(channel.src_outlet,
                                                      channel.dst_outlet)]
    by_tap_state = {}
    for t in (working_hours_start() + 3600.0 * np.arange(24)).tolist():
        signature = world.load.state_signature(t)
        by_tap_state.setdefault(tuple(signature[k] for k in taps), t)
    a, b, c = list(by_tap_state.values())[:3]
    computed = []
    original = PlcChannel._compute_path_loss

    def counting(self, signature):
        computed.append(signature)
        return original(self, signature)

    monkeypatch.setattr(PlcChannel, "_compute_path_loss", counting)
    # a, b: misses; a: hit; c: clears, miss; a: miss; b: clears, miss;
    # b: hit.
    for t in (a, b, a, c, a, b, b):
        loss = channel.path_loss_db(t)
        assert not loss.flags.writeable
        assert loss.tobytes() == ref_path_loss(
            channel, world.load.state_signature(t)).tobytes(), t
    assert len(computed) == 5


def test_one_tree_per_source_outlet_in_a_survey_round(tmp_path, monkeypatch):
    """A survey-sized round (120 fresh pairs, 5 s at 100 ms) builds each
    source outlet's tree once and runs no pairwise search at all."""
    sources = []
    build = nx.single_source_dijkstra

    def counted(graph, source, *args, **kwargs):
        sources.append(source)
        return build(graph, source, *args, **kwargs)

    def banned(*args, **kwargs):
        raise AssertionError("pairwise networkx search in a survey round")

    monkeypatch.setattr(nx, "single_source_dijkstra", counted)
    for name in ("has_path", "shortest_path", "shortest_path_length"):
        monkeypatch.setattr(nx, name, banned)
    reset_compile_cache()
    try:
        world = compiled_testbed("office", seed=SEED).template
        pairs = world.same_board_pairs()
        chosen = np.random.default_rng(SEED).permutation(len(pairs))[:120]
        specs = survey_specs("office", [SEED],
                             [pairs[k] for k in sorted(chosen)],
                             duration_s=5.0, interval_s=0.1)
        stats = run_campaign(specs, tmp_path / "survey.jsonl", workers=0,
                             retries=0)
    finally:
        reset_compile_cache()
    assert stats.failed == 0
    stations = {site.outlet_id for site in world.sites.values()}
    assert len(sources) == len(set(sources)) <= len(stations)
    assert set(sources) <= stations


# --- discipline: no caller bypasses the trees ----------------------------------


def test_no_pairwise_networkx_searches_in_shipping_code():
    """Shipping code asks ``GridTopology`` for distances and paths, whose
    trees are resolved once per source outlet; a pairwise networkx search
    would bypass them. (CI enforces the same rule via ruff's banned-api
    lint.)"""
    names = r"(has_path|shortest_path|shortest_path_length)\b"
    banned = re.compile(r"\b(nx|networkx)\s*\.\s*" + names
                        + r"|\bfrom\s+networkx\b.*\bimport\b.*\b" + names)
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(
                path.read_text().splitlines(), start=1):
            code = line.split("#", 1)[0]
            if banned.search(code):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}")
    assert not offenders, (
        "pairwise networkx searches in shipping code (ask GridTopology "
        f"instead): {offenders}")
