"""Directed PLC link facade: metrics-at-time-t for the measurement layer.

:class:`PlcLink` bundles a :class:`~repro.plc.channel.PlcChannel` with the
PHY/MAC models and answers the questions the paper's tools answer:

* ``avg_ble_bps(t)`` — what ``int6krate`` reports (average BLE over slots);
* ``ble_per_slot_bps(t)`` — what SoF sniffing reveals per slot (Fig. 9);
* ``pb_err(t)`` — what ``ampstat`` reports;
* ``throughput_bps(t)`` — what a saturated iperf measures (Fig. 3, 7, 15);
* ``u_etx(t)`` / ``broadcast_loss_probability(t)`` — §8's metrics.

It implements the :class:`repro.medium.Link` contract (``medium == "plc"``)
including the vectorized ``sample_series``. Every probe reads one
:class:`~repro.plc.channel.ChannelState` through one PHY/MAC evaluation:
a scalar probe resolves the state at its instant, and the batch path
resolves one per (appliance signature, jitter interval) group, the
timescales on which the channel changes, so it is bit-identical to the
scalar loop (``tests/test_medium_contract``).

This is the *tracked* view: it assumes traffic is flowing so tone maps follow
the channel (the paper's saturated-measurement setting). The stateful
tone-map update dynamics live in :class:`~repro.plc.tonemap.ToneMapProcess`
and the estimation transients in
:class:`~repro.plc.channel_estimation.ChannelEstimator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from repro.medium.link import BatchSamplingMixin, LinkSample, LinkSeries
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.plc import mac, phy
from repro.plc.channel import ChannelState, PlcChannel, tracked_layout
from repro.plc.spec import PlcSpec
from repro.sim.random import RandomStreams
from repro.units import MBPS

#: Measurement noise of a 100 ms saturated throughput reading.
MEASUREMENT_NOISE_BPS = 0.3 * MBPS


@dataclass(frozen=True)
class PlcSample(LinkSample):
    """One measurement instant of a PLC link (all rates in bits/s).

    ``capacity_bps`` is the slot-averaged BLE mapped through the MAC
    model (the §7.4 capacity estimate); ``loss`` equals ``pb_err``.
    """

    ble_per_slot_bps: np.ndarray = None
    avg_ble_bps: float = 0.0
    pb_err: float = 0.0

    @property
    def avg_ble_mbps(self) -> float:
        return self.avg_ble_bps / MBPS


class _Reading(NamedTuple):
    """The PHY/MAC metrics of one channel state (rates in bits/s)."""

    ble_per_slot_bps: np.ndarray
    avg_ble_bps: float
    pb_err: float
    capacity_bps: float
    #: Saturated throughput before measurement noise.
    throughput_bps: float


class PlcLink(BatchSamplingMixin):
    """One direction of a PLC link under (assumed) saturated tracking."""

    medium = "plc"

    def __init__(self, channel: PlcChannel, streams: RandomStreams,
                 name: Optional[str] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.channel = channel
        self.spec: PlcSpec = channel.spec
        self.name = name or channel.name
        self._rng = streams.get(f"plc.link.{self.name}")
        self._throughput_model = mac.SaturatedThroughputModel(self.spec)
        #: ``medium.plc.*`` sampling counters (process-global by default).
        self.metrics = metrics if metrics is not None \
            else global_registry()

    # --- the PHY/MAC chain ---------------------------------------------------------

    def _evaluate(self, state: ChannelState,
                  layout: phy.ToneMapSlots) -> _Reading:
        """The link's metrics in one channel state; every probe and
        :meth:`sample_series` read them from here.

        BLE is what a fresh tone map would carry under the jittered SNR.
        The realised PBerr judges the *tracked* tone map, generated from
        the smoothed channel with the standard back-off, against the
        jittered SNR, so noisy links show elevated PBerr even though
        their tone maps target the same error rate (Fig. 7 right).
        ``layout`` is that tone map's layout
        (:func:`~repro.plc.channel.tracked_layout` of ``state``).
        """
        per_slot = phy.ble_from_snr(state.snr_db, self.spec,
                                    impulsive_rate_hz=state.impulsive_rate_hz)
        avg_ble = float(np.mean(per_slot))
        pb = float(np.mean(layout.pb_error_per_slot(
            state.snr_db, state.impulsive_rate_hz)))
        residual = max(0.0, pb - self.spec.target_pb_error)
        thr = self._throughput_model.throughput_bps(avg_ble, residual)
        return _Reading(
            ble_per_slot_bps=per_slot, avg_ble_bps=avg_ble, pb_err=pb,
            capacity_bps=float(max(
                self._throughput_model.throughput_bps(avg_ble), 0.0)),
            throughput_bps=thr if thr > 0 else 0.0)

    def _read(self, t: float) -> _Reading:
        state = self.channel.state_at(t)
        return self._evaluate(state, self.channel.tracked_layout(state))

    def _measure(self, throughput_bps: float) -> float:
        """Add the iperf sampling noise of a real 100 ms reading: one draw
        from the link's stream per positive reading."""
        if throughput_bps <= 0:
            return throughput_bps
        return max(throughput_bps
                   + self._rng.normal(0.0, MEASUREMENT_NOISE_BPS), 0.0)

    # --- probes ---------------------------------------------------------------------

    def ble_per_slot_bps(self, t: float) -> np.ndarray:
        """Per-slot BLE a fresh tone map would carry at ``t`` (Fig. 9)."""
        return self._read(t).ble_per_slot_bps

    def avg_ble_bps(self, t: float) -> float:
        """Slot-averaged BLE — the ``int6krate`` number (§7.1)."""
        return self._read(t).avg_ble_bps

    def pb_err(self, t: float) -> float:
        """Realised PB error rate under tracked tone maps (``ampstat``)."""
        return self._read(t).pb_err

    def capacity_bps(self, t: float) -> float:
        """§7.4 application-capacity estimate: slot-averaged BLE
        (invariance-scale averaging, §6.1) through the MAC model."""
        return self._read(t).capacity_bps

    def throughput_bps(self, t: float, measured: bool = True) -> float:
        """Saturated UDP throughput at ``t``.

        ``measured=True`` adds the small iperf sampling noise present in any
        real 100 ms throughput reading.
        """
        thr = self._read(t).throughput_bps
        return self._measure(thr) if measured else thr

    def is_connected(self, t: float,
                     min_throughput_bps: float = 1.0 * MBPS) -> bool:
        """Whether the link sustains a usable rate (paper's 'formed' links)."""
        if not self.channel.is_usable(t):
            return False
        return self.throughput_bps(t, measured=False) >= min_throughput_bps

    # --- §8 metrics ---------------------------------------------------------------------

    def u_etx(self, t: float, payload_bytes: int = 1500) -> float:
        """Expected transmission count of a unicast packet (§8.1)."""
        n_pbs = mac.pbs_for_payload(payload_bytes, self.spec)
        return mac.expected_transmissions(n_pbs, self.pb_err(t))

    def u_etx_std(self, t: float, payload_bytes: int = 1500) -> float:
        """Std of the transmission count (Fig. 22 error bars)."""
        n_pbs = mac.pbs_for_payload(payload_bytes, self.spec)
        return mac.transmission_count_std(n_pbs, self.pb_err(t))

    def broadcast_loss_probability(self, t: float) -> float:
        """Loss probability of a ROBO broadcast probe (§8.1, Fig. 21)."""
        return phy.robo_loss_probability(self.channel.state_at(t).snr_db,
                                         self.spec)

    # --- convenience --------------------------------------------------------------------

    def sample(self, t: float, measured: bool = True) -> PlcSample:
        """Take a full measurement snapshot at ``t``."""
        self.metrics.inc("medium.plc.samples")
        reading = self._read(t)
        return PlcSample(
            time=t,
            capacity_bps=reading.capacity_bps,
            throughput_bps=(self._measure(reading.throughput_bps)
                            if measured else reading.throughput_bps),
            loss=reading.pb_err,
            ble_per_slot_bps=reading.ble_per_slot_bps,
            avg_ble_bps=reading.avg_ble_bps,
            pb_err=reading.pb_err,
        )

    def sample_series(self, ts: np.ndarray,
                      measured: bool = True) -> LinkSeries:
        """Vectorized :meth:`sample` over a time grid.

        Evaluates the state of each (appliance signature, jitter interval)
        group once and fans the values back out to every timestamp; the
        tracked tone map is laid out once per signature in the call, and
        not kept on the channel.
        """
        ts = np.asarray(ts, dtype=float)
        self.metrics.inc("medium.plc.series_calls")
        self.metrics.inc("medium.plc.samples", len(ts))
        series = LinkSeries.allocate(
            len(ts),
            extra_fields=[("ble_per_slot_bps", "f8",
                           (self.spec.num_slots,)),
                          ("avg_ble_bps", "f8"), ("pb_err", "f8")],
            name=self.name, medium=self.medium)
        data = series.data
        data["time"] = ts
        layouts: dict = {}
        for idx, state in self.channel.snr_series_groups(ts):
            layout = layouts.get(state.signature)
            if layout is None:
                layout = tracked_layout(state, self.spec)
                layouts[state.signature] = layout
            reading = self._evaluate(state, layout)
            data["ble_per_slot_bps"][idx] = reading.ble_per_slot_bps
            data["avg_ble_bps"][idx] = reading.avg_ble_bps
            data["pb_err"][idx] = reading.pb_err
            data["loss"][idx] = reading.pb_err
            data["capacity_bps"][idx] = reading.capacity_bps
            data["throughput_bps"][idx] = reading.throughput_bps
        if measured:
            thr_col = data["throughput_bps"]
            positive = thr_col > 0
            k = int(positive.sum())
            if k:
                noisy = (thr_col[positive]
                         + self._rng.normal(0.0, MEASUREMENT_NOISE_BPS,
                                            size=k))
                data["throughput_bps"][positive] = np.maximum(noisy, 0.0)
        return series
