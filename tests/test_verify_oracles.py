"""Differential-oracle tests: each oracle passes on the real
implementations and catches a planted divergence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.spec import ExperimentSpec
from repro.faults.plan import FaultPlan, FaultPlanConfig
from repro.netsim.scenario import FlowRequest, Scenario
from repro.testbed import build_preset_testbed
from repro.verify.oracles import (
    diff_backend_equivalence,
    diff_default_horizon,
    diff_fault_replay,
    diff_inline_vs_pool,
    diff_scalar_vs_vectorized,
    diff_seed_relabeling,
    diff_traced_vs_untraced,
)
from tests.conftest import LegacyHorizonRunner

SEED = 7


@pytest.fixture(scope="module")
def mini3():
    return build_preset_testbed("mini3", seed=SEED)


def _bulk_scenario(t0=100.0):
    """A file flow far too large to finish — the input class on which the
    default-horizon contract actually matters."""
    scenario = Scenario("oracle-bulk")
    scenario.add(FlowRequest("sat", 0, 1, t0, kind="saturated",
                             medium="plc", duration_s=8.0))
    scenario.add(FlowRequest("bulk", 1, 2, t0, kind="file", medium="plc",
                             size_bytes=1e12))
    return scenario


# --- scalar vs vectorized -----------------------------------------------------


@pytest.mark.parametrize("medium", ["plc", "wifi"])
@pytest.mark.parametrize("measured", [True, False])
def test_scalar_vs_vectorized_agree(medium, measured):
    ts = np.arange(40.0, 44.0, 0.5)
    a = build_preset_testbed("mini3", seed=SEED).link(medium, 0, 1)
    b = build_preset_testbed("mini3", seed=SEED).link(medium, 0, 1)
    assert diff_scalar_vs_vectorized(a, b, ts, measured=measured) == []


def test_scalar_vs_vectorized_flags_noise_stream_skew(mini3):
    """Same link object on both paths: the batch pass consumes the noise
    stream the scalar pass then resumes from — exactly the bug class the
    oracle exists for."""
    link = mini3.link("plc", 0, 1)
    diffs = diff_scalar_vs_vectorized(link, link,
                                      np.arange(40.0, 44.0, 0.5))
    assert diffs and any("differs" in d for d in diffs)


# --- runner horizon & fault replay --------------------------------------------


def test_default_horizon_oracle_passes(mini3):
    assert diff_default_horizon(mini3, _bulk_scenario()) == []


def test_default_horizon_oracle_catches_legacy_double_offset(mini3):
    diffs = diff_default_horizon(mini3, _bulk_scenario(),
                                 runner_factory=LegacyHorizonRunner)
    assert diffs and any("bulk" in d for d in diffs)


def test_default_horizon_oracle_trivial_on_empty_scenario(mini3):
    assert diff_default_horizon(mini3, Scenario("empty")) == []


def test_fault_replay_oracle_passes(mini3):
    plan = FaultPlan.generate(
        root_seed=SEED, name="oracle", horizon_s=30.0,
        targets={"links": ["plc:0-1", "wifi:1-2"]},
        config=FaultPlanConfig(outages=1, degradations=1,
                               snr_collapses=1),
        t0=100.0)
    scenario = Scenario("faulted")
    scenario.add(FlowRequest("sat", 0, 1, 100.0, kind="saturated",
                             medium="plc", duration_s=10.0))
    assert diff_fault_replay(mini3, scenario, plan,
                             horizon_s=30.0) == []


# --- campaign artifact equivalences -------------------------------------------


def _probe_specs(n=3):
    return [ExperimentSpec.make("rng_probe", "mini3", seed=SEED + k,
                                draws=3) for k in range(n)]


def test_inline_vs_pool_and_traced_vs_untraced(tmp_path):
    specs = _probe_specs()
    assert diff_inline_vs_pool(specs, tmp_path / "pool",
                               workers=2) == []
    assert diff_traced_vs_untraced(specs, tmp_path / "trace") == []


def test_inline_vs_pool_creates_missing_out_dir(tmp_path):
    nested = tmp_path / "a" / "b" / "c"
    assert diff_inline_vs_pool(_probe_specs(1), nested, workers=2) == []
    assert (nested / "inline.jsonl").exists()


def test_backend_equivalence_oracle_passes_on_mixed_kinds(tmp_path):
    """Every execution backend must produce the same artifact and trace
    bytes on a campaign mixing testbed-bound and testbed-free kinds."""
    specs = _probe_specs(2) + [
        ExperimentSpec.make("survey_pair", "mini3", seed=SEED,
                            src=0, dst=1, duration_s=1.0,
                            interval_s=0.5)]
    assert diff_backend_equivalence(specs, tmp_path / "backends",
                                    chunk_size=2) == []
    for backend, workers in [("inline", 0), ("process", 4),
                             ("thread", 4), ("chunked", 4)]:
        assert (tmp_path / "backends"
                / f"{backend}-w{workers}.jsonl").exists()


# --- seed relabeling ----------------------------------------------------------


def test_seed_relabeling_passes_for_pure_function():
    assert diff_seed_relabeling(lambda s: float(s * s),
                                [3, 1, 2]) == []


def test_seed_relabeling_catches_order_dependence():
    state = {"last": 0.0}

    def leaky(seed):
        state["last"] += seed
        return state["last"]

    diffs = diff_seed_relabeling(leaky, [1, 2, 3])
    assert diffs and any("forward order" in d for d in diffs)
