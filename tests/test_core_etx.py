"""ETX metrics: broadcast vs unicast (§8.1)."""

import numpy as np
import pytest

from repro.core.etx import (
    BroadcastProbeResult,
    measure_u_etx,
    run_broadcast_probes,
    u_etx_from_sofs,
)
from repro.plc.frames import SofDelimiter


def test_broadcast_result_arithmetic():
    r = BroadcastProbeResult(probes_sent=1000, probes_lost=10)
    assert r.loss_rate == pytest.approx(0.01)
    assert r.etx == pytest.approx(1000 / 990)
    dead = BroadcastProbeResult(probes_sent=5, probes_lost=5)
    assert dead.etx == float("inf")


def test_broadcast_probes_show_tiny_losses_regardless_of_quality(
        testbed, t_night):
    """§8.1's point: ROBO broadcast loss says nothing about quality."""
    rng = np.random.default_rng(1)
    results = {}
    for (i, j) in [(13, 14), (0, 3), (2, 7)]:
        link = testbed.plc_link(i, j)
        results[(i, j)] = run_broadcast_probes(
            link, t_night, 500.0, 0.1, rng)
    for r in results.values():
        assert r.loss_rate < 0.02


def test_broadcast_probe_interval_validated(testbed, t_night):
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        run_broadcast_probes(testbed.plc_link(0, 1), t_night, 1.0, 0.0, rng)


def _sof(t, retx):
    return SofDelimiter(timestamp=t, src="a", dst="b", tmi=1, ble_bps=1e8,
                        slot=0, n_pbs=3, duration_s=1e-3,
                        is_retransmission=retx)


def test_u_etx_from_sofs_counts_attempt_groups():
    # Packets: 1 tx, 3 tx, 2 tx → U-ETX = 2.0.
    sofs = [_sof(0.0, False),
            _sof(0.075, False), _sof(0.077, True), _sof(0.079, True),
            _sof(0.150, False), _sof(0.152, True)]
    u, std, n = u_etx_from_sofs(sofs)
    assert n == 3
    assert u == pytest.approx(2.0)
    assert std > 0


def test_u_etx_requires_frames():
    with pytest.raises(ValueError):
        u_etx_from_sofs([])


def test_measured_u_etx_tracks_pb_err(testbed, t_night):
    """Fig. 22: U-ETX rises with PBerr, near-1 for good links."""
    rng = np.random.default_rng(2)
    good = measure_u_etx(testbed.plc_link(13, 14), t_night, 60.0, rng)
    bad = measure_u_etx(testbed.plc_link(11, 4), t_night, 60.0, rng)
    assert good.u_etx < 1.2
    assert bad.u_etx > good.u_etx
    assert bad.mean_pb_err > good.mean_pb_err
    # Variance grows with U-ETX (the paper's error bars).
    assert bad.std >= good.std
