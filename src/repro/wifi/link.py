"""WiFi link facade: MCS and throughput measurements at time t.

Implements the :class:`repro.medium.Link` contract (``medium == "wifi"``),
including the vectorized ``sample_series`` batch path, which draws each
coherence block's fading once and broadcasts it across the grid —
bit-identical to the scalar loop (enforced by ``tests/test_medium_contract``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.medium.link import BatchSamplingMixin, LinkSample, LinkSeries
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.sim.random import RandomStreams
from repro.units import MBPS
from repro.wifi import phy
from repro.wifi.channel import WifiChannel

#: The §7.4 capacity probe: MCS/availability observed over the last second.
CAPACITY_WINDOW_S = 1.0
CAPACITY_PROBE_COUNT = 10

#: Measurement noise of a 100 ms saturated throughput reading.
MEASUREMENT_NOISE_BPS = 0.4 * MBPS


@dataclass(frozen=True)
class WifiSample(LinkSample):
    """One measurement instant of a WiFi link.

    ``capacity_bps`` is the instantaneous airtime-scaled PHY capacity;
    ``loss`` is the no-association indicator (1.0 below MCS0 sensitivity,
    else 0.0 — WiFi's MAC retries hide per-frame loss from iperf).
    """

    mcs_index: int = -1
    phy_rate_bps: float = 0.0


class WifiLink(BatchSamplingMixin):
    """One direction of an 802.11n link."""

    medium = "wifi"

    def __init__(self, channel: WifiChannel, streams: RandomStreams,
                 name: Optional[str] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.channel = channel
        self.name = name or channel.name
        self._rng = streams.get(f"wifi.link.{self.name}")
        #: ``medium.wifi.*`` sampling counters (process-global by default).
        self.metrics = metrics if metrics is not None \
            else global_registry()

    @classmethod
    def between(cls, src_pos: Tuple[float, float],
                dst_pos: Tuple[float, float], streams: RandomStreams,
                name: str) -> "WifiLink":
        """Build link + channel in one step (keeps channel internals here)."""
        return cls(WifiChannel(src_pos, dst_pos, streams, name=name),
                   streams)

    def mcs_index(self, t: float) -> int:
        """MCS the rate-adaptation picks at ``t`` (−1 = no association).

        This is the frame-control field the paper reads for WiFi capacity
        estimation (Table 2).
        """
        return phy.select_mcs(self.channel.state(t).snr_db).index

    def phy_rate_bps(self, t: float) -> float:
        """Instantaneous PHY rate — the WiFi capacity metric of Fig. 4."""
        return phy.select_mcs(self.channel.state(t).snr_db).phy_rate_bps

    def throughput_bps(self, t: float, measured: bool = True) -> float:
        """Saturated UDP throughput at ``t``."""
        state = self.channel.state(t)
        thr = phy.throughput_from_snr(state.snr_db, state.availability)
        if thr <= 0:
            return 0.0
        if measured:
            thr += self._rng.normal(0.0, MEASUREMENT_NOISE_BPS)
        return max(thr, 0.0)

    def capacity_probe_times(self, t: float) -> np.ndarray:
        """The last second's probe instants — always exactly
        ``CAPACITY_PROBE_COUNT`` of them, ending at ``t``.

        (``np.arange(t - 1.0 + 0.1, t + 1e-9, 0.1)`` yielded 9 or 10
        samples depending on float drift in ``t``; a fixed-count linspace
        keeps the estimator's averaging window stable.)
        """
        step = CAPACITY_WINDOW_S / CAPACITY_PROBE_COUNT
        return np.linspace(t - CAPACITY_WINDOW_S + step, t,
                           CAPACITY_PROBE_COUNT)

    def capacity_bps(self, t: float) -> float:
        """§7.4 application-capacity estimate: MCS PHY rate × availability
        averaged over the last second, scaled by DCF efficiency.

        WiFi varies too fast within a second for a point sample (§4.2), so
        unlike the instantaneous ``capacity_bps`` sample field this smooths
        over :attr:`CAPACITY_WINDOW_S`.
        """
        times = self.capacity_probe_times(t)
        snr, avail = self.channel.state_series(times)
        _, rates = phy.select_mcs_series(snr)
        return float(max(np.mean(rates * avail) * phy.DCF_EFFICIENCY, 0.0))

    def is_connected(self, t: float) -> bool:
        """Associated and passing traffic (paper's WiFi connectivity test)."""
        return phy.select_mcs(self.channel.state(t).snr_db).index >= 0

    def sample(self, t: float, measured: bool = True) -> WifiSample:
        self.metrics.inc("medium.wifi.samples")
        state = self.channel.state(t)
        entry = phy.select_mcs(state.snr_db)
        return WifiSample(
            time=t,
            capacity_bps=entry.phy_rate_bps * state.availability
            * phy.DCF_EFFICIENCY,
            throughput_bps=self.throughput_bps(t, measured=measured),
            loss=0.0 if entry.index >= 0 else 1.0,
            mcs_index=entry.index,
            phy_rate_bps=entry.phy_rate_bps,
        )

    def sample_series(self, ts: np.ndarray,
                      measured: bool = True) -> LinkSeries:
        """Vectorized :meth:`sample` over a time grid (same values, one
        fading draw per coherence block instead of per timestamp)."""
        ts = np.asarray(ts, dtype=float)
        self.metrics.inc("medium.wifi.series_calls")
        self.metrics.inc("medium.wifi.samples", len(ts))
        series = LinkSeries.allocate(
            len(ts), extra_fields=[("mcs_index", "i8"),
                                   ("phy_rate_bps", "f8")],
            name=self.name, medium=self.medium)
        data = series.data
        data["time"] = ts
        snr, avail = self.channel.state_series(ts)
        mcs, rates = phy.select_mcs_series(snr)
        data["mcs_index"] = mcs
        data["phy_rate_bps"] = rates
        data["capacity_bps"] = (rates * avail) * phy.DCF_EFFICIENCY
        data["loss"] = np.where(mcs >= 0, 0.0, 1.0)
        thr = (rates * phy.DCF_EFFICIENCY) * avail
        positive = thr > 0
        data["throughput_bps"] = np.where(positive, thr, 0.0)
        if measured:
            k = int(positive.sum())
            if k:
                noisy = (thr[positive]
                         + self._rng.normal(0.0, MEASUREMENT_NOISE_BPS,
                                            size=k))
                data["throughput_bps"][positive] = np.maximum(noisy, 0.0)
        return series
