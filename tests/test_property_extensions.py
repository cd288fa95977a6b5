"""Property-based tests for the extension modules."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.two_metric_model import TwoMetricLinkModel, TwoMetricParameters
from repro.hybrid.schedulers import CapacityProportionalScheduler
from repro.sim.random import RandomStreams
from repro.transport.tcp import padhye_throughput_bps

pytestmark = pytest.mark.slow


# --- two-metric model --------------------------------------------------------------------


@given(st.floats(min_value=1e6, max_value=2e8),
       st.floats(min_value=0.0, max_value=0.2),
       st.floats(min_value=0.0, max_value=0.5))
def test_two_metric_model_outputs_always_sane(mean_ble, sigma, pb):
    params = TwoMetricParameters(
        slot_ble_bps=tuple([mean_ble] * 6), jitter_sigma_rel=sigma,
        jitter_hold_s=1.0, pb_err_base=pb, pb_err_spread=0.3)
    model = TwoMetricLinkModel(params, RandomStreams(9), name="prop")
    for t in (0.0, 13.7, 999.9):
        assert (model.ble_per_slot_bps(t) >= 0).all()
        assert 0.0 <= model.pb_err(t) <= 0.95
        assert model.throughput_bps(t, measured=False) >= 0.0
        assert model.u_etx(t) >= 1.0


# --- transport --------------------------------------------------------------------------------


@given(st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=1e-5, max_value=0.4))
def test_padhye_monotonicity(rtt, loss):
    base = padhye_throughput_bps(1448, rtt, loss)
    assert base > 0
    assert padhye_throughput_bps(1448, rtt * 2, loss) < base
    assert padhye_throughput_bps(1448, rtt, min(loss * 2, 0.5)) <= base


# --- schedulers under adversarial capacities ----------------------------------------------------


@given(st.lists(st.floats(min_value=1e3, max_value=1e9), min_size=2,
                max_size=2))
def test_proportional_split_matches_weights(caps):
    capacities = {"plc": caps[0], "wifi": caps[1]}
    split = CapacityProportionalScheduler(
        RandomStreams(5).get("p")).split(capacities, 1000)
    assert sum(split.values()) == 1000
    expected_wifi = 1000 * caps[1] / (caps[0] + caps[1])
    assert abs(split["wifi"] - expected_wifi) <= 1.0
