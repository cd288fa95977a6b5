"""Property tests: snapshot/restore is invisible to the simulation.

The snapshot plane's contract (``docs/architecture.md``): pausing a run
at *any* slice point, freezing the world through the versioned wire
format, thawing it into a freshly built twin, and continuing produces
results bit-identical to the uninterrupted run. Hypothesis sweeps the
inputs a blessed example would pin: scenario composition, world seed,
the slice point (including mid-mains-cycle fractions — the PLC capacity
model is periodic in the 20 ms mains cycle, so a misrestored phase
shows up immediately), and a full capacity cache cut mid-window. The
scenario runner is the snapshot plane's one client, so it is the one
subject here.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import checkout_testbed
from repro.medium.registry import constituent_media
from repro.netsim.runner import ScenarioRunner
from repro.netsim.scenario import FlowRequest, Scenario
from repro.obs.metrics import MetricsRegistry
from repro.snapshot import dump_snapshot, load_snapshot

pytestmark = pytest.mark.slow

PRESET = "mini3"
#: Wednesday 2 pm, the canonical measurement start.
T_BASE = 2 * 24 * 3600.0 + 14 * 3600.0
#: One 50 Hz mains cycle — slice points land *inside* it on purpose.
MAINS_CYCLE_S = 0.02

# Whole-scenario examples run a real runner twice; keep counts low.
RUNNER_SETTINGS = settings(max_examples=8)

seeds = st.integers(min_value=0, max_value=2**31 - 1)

#: Sub-quantum offsets: ``k * 0.004`` hits five distinct phases of the
#: mains cycle (0, 20%, 40%, 60%, 80%) for both the run start and the
#: pause point.
mains_phases = st.integers(0, 4).map(lambda k: k * MAINS_CYCLE_S / 5.0)


def _flow(index: int, spec) -> FlowRequest:
    kind, medium, start_off, size = spec
    src, dst = [(0, 1), (1, 2), (2, 0)][index % 3]
    name = f"f{index}-{kind}-{medium}"
    if kind == "file":
        return FlowRequest(name, src, dst, T_BASE + start_off,
                           kind="file", medium=medium,
                           size_bytes=2e6 + size * 1e6)
    if kind == "cbr":
        return FlowRequest(name, src, dst, T_BASE + start_off,
                           kind="cbr", medium=medium,
                           rate_bps=4e6 + size * 2e6,
                           duration_s=20.0 + start_off)
    return FlowRequest(name, src, dst, T_BASE + start_off,
                       kind="saturated", medium=medium,
                       duration_s=20.0 + start_off)


flow_specs = st.tuples(
    st.sampled_from(["saturated", "cbr", "file"]),
    st.sampled_from(["plc", "wifi", "hybrid"]),
    st.floats(0.0, 8.0, allow_nan=False),
    st.integers(0, 4))

scenarios = st.lists(flow_specs, min_size=1, max_size=3).map(
    lambda specs: Scenario(
        name="prop", flows=[_flow(k, s) for k, s in enumerate(specs)]))


def _run_results(runner, results):
    return {name: result.to_dict() for name, result in results.items()}


def _assert_same_stats(runner, straight):
    """Artifact stats plus what stays out of them: evictions and the
    peak gauges."""
    assert runner.stats.to_dict() == straight.stats.to_dict()
    assert runner.stats.cache.evictions == straight.stats.cache.evictions
    assert runner.stats.peak_active_flows == \
        straight.stats.peak_active_flows
    assert runner.stats.peak_domain_load == \
        straight.stats.peak_domain_load


@RUNNER_SETTINGS
@given(scenario=scenarios, seed=seeds,
       slice_frac=st.floats(0.05, 0.95, allow_nan=False),
       phase=mains_phases)
def test_runner_restore_then_n_steps_matches_straight(
        scenario, seed, slice_frac, phase):
    """restore(snapshot(world)) + N quanta == N straight quanta, bit for
    bit — over random scenarios, seeds, and slice points that land at
    arbitrary mains-cycle phases and mid-quantum fractions."""
    horizon = 30.0
    until = T_BASE + slice_frac * horizon + phase

    straight = ScenarioRunner(checkout_testbed(PRESET, seed=seed),
                              metrics=MetricsRegistry())
    ref_results = straight.run(scenario, horizon_s=horizon)

    first = ScenarioRunner(checkout_testbed(PRESET, seed=seed),
                           metrics=MetricsRegistry())
    partial = first.run(scenario, horizon_s=horizon, until_s=until)
    if not first.paused:
        # The slice point fell past the scenario's natural end: the run
        # completed — it must already equal the reference.
        assert _run_results(first, partial) == \
            _run_results(straight, ref_results)
        return

    # Freeze through the wire format (the exact checkpoint path), thaw
    # into a freshly built twin of the same preset+seed.
    blob = dump_snapshot(first.snapshot(scenario, partial))
    second = ScenarioRunner(checkout_testbed(PRESET, seed=seed),
                            metrics=MetricsRegistry())
    resumed = second.resume(scenario, load_snapshot(blob))

    assert _run_results(second, resumed) == \
        _run_results(straight, ref_results)
    _assert_same_stats(second, straight)


@RUNNER_SETTINGS
@given(seed=seeds, cut_a=st.floats(0.05, 0.45, allow_nan=False),
       cut_b=st.floats(0.5, 0.95, allow_nan=False), phase=mains_phases)
def test_runner_double_slice_matches_straight(seed, cut_a, cut_b, phase):
    """Two chained slices (the campaign's K>2 shape: resume then pause
    again) still land bit-identical."""
    from repro.netsim.scenario import build_scenario

    horizon = 30.0
    scenario = build_scenario("mini3-mixed", T_BASE)
    straight = ScenarioRunner(checkout_testbed(PRESET, seed=seed),
                              metrics=MetricsRegistry())
    ref_results = straight.run(scenario, horizon_s=horizon)

    runner = ScenarioRunner(checkout_testbed(PRESET, seed=seed),
                            metrics=MetricsRegistry())
    results = runner.run(scenario, horizon_s=horizon,
                         until_s=T_BASE + cut_a * horizon + phase)
    for until in (T_BASE + cut_b * horizon + phase, None):
        if not runner.paused:
            break
        blob = dump_snapshot(runner.snapshot(scenario, results))
        runner = ScenarioRunner(checkout_testbed(PRESET, seed=seed),
                                metrics=MetricsRegistry())
        results = runner.resume(scenario, load_snapshot(blob),
                                until_s=until)
    assert not runner.paused
    assert _run_results(runner, results) == \
        _run_results(straight, ref_results)
    _assert_same_stats(runner, straight)


#: Flows that stay active through every cut below, all from ``T_BASE``
#: (a cache-window boundary), so each window sees every link.
steady_flows = st.lists(
    st.tuples(st.sampled_from(["saturated", "cbr"]),
              st.sampled_from(["plc", "wifi", "hybrid"])),
    min_size=1, max_size=3).map(
    lambda specs: Scenario(name="steady", flows=[
        _flow(k, (kind, medium, 0.0, 0))
        for k, (kind, medium) in enumerate(specs)]))


@RUNNER_SETTINGS
@given(scenario=steady_flows, seed=seeds, window=st.integers(1, 2),
       quanta=st.integers(1, 8), later=st.integers(1, 8),
       spare=st.integers(0, 5), phase=mains_phases)
def test_full_cache_across_slice_points_matches_straight(
        scenario, seed, window, quanta, later, spare, phase):
    """A full capacity cache paused mid-window holds live entries (this
    window) and dead ones (earlier windows). The checkpoint keeps the
    live ones and counts the dead ones; the restored cache evicts that
    count first, so a chain of two cuts — the second may fall in the
    same window, carrying the count over — evicts exactly what the
    straight run evicts."""
    cache_window = 5.0
    links = {(medium, f.src, f.dst) for f in scenario.flows
             for medium in constituent_media(f.medium)}
    # Room for this window's links plus 1..len(links) dead entries, so
    # the cache is full at the first cut and the 20 s run overflows it.
    entries = len(links) + 1 + spare % len(links)

    def runner():
        return ScenarioRunner(checkout_testbed(PRESET, seed=seed),
                              cache_window_s=cache_window,
                              cache_entries=entries,
                              metrics=MetricsRegistry())

    horizon = 30.0
    straight = runner()
    ref_results = straight.run(scenario, horizon_s=horizon)
    assert straight.stats.cache.evictions > 0

    first_cut = T_BASE + window * cache_window + quanta * 0.5 + phase
    current = runner()
    results = current.run(scenario, horizon_s=horizon, until_s=first_cut)
    for until in (first_cut + later * 0.5, None):
        assert current.paused
        snap = current.snapshot(scenario, results)
        if until is not None:  # the first cut: a full, mixed cache
            cache = snap.payload["cache"]
            assert cache["entries"] and cache["dropped"] > 0
            assert len(cache["entries"]) + cache["dropped"] == entries
        current = runner()
        results = current.resume(
            scenario, load_snapshot(dump_snapshot(snap)), until_s=until)
    assert not current.paused

    assert _run_results(current, results) == \
        _run_results(straight, ref_results)
    _assert_same_stats(current, straight)
