"""Traffic generators and the iperf meter."""

import numpy as np
import pytest

from repro.traffic.generators import (
    CbrFlow,
    FileTransfer,
    SaturatedUdpFlow,
)
from repro.medium.link import BatchSamplingMixin, LinkSample
from repro.traffic.iperf import completion_time_s, run_udp_test
from repro.traffic.packet import Packet
from repro.units import MBPS


class _StepLink(BatchSamplingMixin):
    """Deterministic stub link: rate ``rates[k]`` during second ``k``
    (the last rate persists), noise-free. Exercises the iperf meter's
    integration without any channel model behind it."""

    medium = "plc"
    name = "step-stub"

    def __init__(self, rates):
        self._rates = [float(r) for r in rates]

    def _rate(self, t: float) -> float:
        k = min(max(int(t), 0), len(self._rates) - 1)
        return self._rates[k]

    def capacity_bps(self, t: float) -> float:
        return self._rate(t)

    def throughput_bps(self, t: float, measured: bool = True) -> float:
        return self._rate(t)

    def is_connected(self, t: float) -> bool:
        return self._rate(t) > 0

    def sample(self, t: float, measured: bool = True) -> LinkSample:
        rate = self._rate(t)
        return LinkSample(time=float(t), capacity_bps=rate,
                          throughput_bps=rate, loss=0.0)


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet(seq=-1)
    with pytest.raises(ValueError):
        Packet(seq=0, size_bytes=0)
    p = Packet(seq=0, created_at=1.0)
    assert p.latency is None
    p.delivered_at = 1.5
    assert p.latency == pytest.approx(0.5)


def test_cbr_flow_packet_times():
    flow = CbrFlow(rate_bps=150e3, packet_bytes=1500)
    assert flow.packet_interval_s == pytest.approx(0.08)
    times = flow.packet_times(10.0, 1.0)
    assert len(times) == 12
    assert times[0] == 10.0
    with pytest.raises(ValueError):
        CbrFlow(rate_bps=0.0)


def test_file_transfer_packet_count():
    ft = FileTransfer(size_bytes=600 * 10 ** 6)
    assert ft.n_packets == 400000
    with pytest.raises(ValueError):
        FileTransfer(size_bytes=0)


def test_run_udp_test_matches_link_mean(testbed, t_work):
    link = testbed.plc_link(0, 1)
    series = run_udp_test(link, t_work, 10.0, 0.1)
    assert len(series) == 100
    direct = np.mean([link.throughput_bps(t_work + k * 0.1)
                      for k in range(100)])
    assert series.mean == pytest.approx(direct, rel=0.1)
    with pytest.raises(ValueError):
        run_udp_test(link, t_work, 0.0)


def test_completion_time_inverse_to_rate(testbed, t_work):
    fast = testbed.plc_link(13, 14)
    slow = testbed.plc_link(11, 4)
    size = 50 * 10 ** 6
    t_fast = completion_time_s(fast, t_work, size)
    rate = fast.throughput_bps(t_work, measured=False)
    assert t_fast == pytest.approx(size * 8 / rate, rel=0.2)
    # A much slower link takes much longer (or never completes).
    try:
        t_slow = completion_time_s(slow, t_work, size, max_time_s=3600.0)
        assert t_slow > 2 * t_fast
    except RuntimeError:
        pass  # dead during working hours — acceptable for the bad link


def test_completion_time_validates_size(testbed, t_work):
    with pytest.raises(ValueError):
        completion_time_s(testbed.plc_link(0, 1), t_work, 0)


def test_completion_time_slow_link_interpolates_exactly():
    # 10 bits at a constant 0.4 bps must take exactly 25 s. The old
    # final-step interpolation divided by max(rate, 1.0), so any link
    # slower than 1 bps under-reported its completion time (here: 24.4 s).
    link = _StepLink([0.4])
    done = completion_time_s(link, 0.0, size_bytes=10 / 8)
    assert done == pytest.approx(25.0)


def test_completion_time_near_zero_final_step():
    # 10.25 bits: 10 move in the first second, the rest at 0.5 bps —
    # half of the second step, so completion is at exactly 1.5 s.
    link = _StepLink([10.0, 0.5])
    done = completion_time_s(link, 0.0, size_bytes=10.25 / 8)
    assert done == pytest.approx(1.5)


def test_completion_time_dead_link_raises():
    with pytest.raises(RuntimeError):
        completion_time_s(_StepLink([0.0]), 0.0, 1.0, max_time_s=60.0)


def test_saturated_flow_descriptor():
    flow = SaturatedUdpFlow()
    assert flow.packet_bytes == 1500
