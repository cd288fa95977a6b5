"""Directed PLC link facade: metrics-at-time-t for the measurement layer.

:class:`PlcLink` bundles a :class:`~repro.plc.channel.PlcChannel` with the
PHY/MAC models and answers the questions the paper's tools answer:

* ``avg_ble_bps(t)`` — what ``int6krate`` reports (average BLE over slots);
* ``ble_per_slot_bps(t)`` — what SoF sniffing reveals per slot (Fig. 9);
* ``pb_err(t)`` — what ``ampstat`` reports;
* ``throughput_bps(t)`` — what a saturated iperf measures (Fig. 3, 7, 15);
* ``u_etx(t)`` / ``broadcast_loss_probability(t)`` — §8's metrics.

It implements the :class:`repro.medium.Link` contract (``medium == "plc"``)
including the vectorized ``sample_series``: the channel is piecewise
constant per (appliance signature, jitter interval), so the batch path
evaluates the PHY/MAC chain once per group instead of once per timestamp —
bit-identical to the scalar loop (``tests/test_medium_contract``).

This is the *tracked* view: it assumes traffic is flowing so tone maps follow
the channel (the paper's saturated-measurement setting). The stateful
tone-map update dynamics live in :class:`~repro.plc.tonemap.ToneMapProcess`
and the estimation transients in
:class:`~repro.plc.channel_estimation.ChannelEstimator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.medium.link import BatchSamplingMixin, LinkSample, LinkSeries
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.plc import mac, phy
from repro.plc.channel import PlcChannel
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

    # --- BLE --------------------------------------------------------------------

    def ble_per_slot_bps(self, t: float) -> np.ndarray:
        """Per-slot BLE a fresh tone map would carry at ``t`` (Fig. 9)."""
        snr = self.channel.snr_db(t)
        impulse = self.channel.load.impulsive_event_rate_at(
            self.channel.dst_outlet, t)
        return phy.ble_from_snr(snr, self.spec,
                                impulsive_rate_hz=impulse)

    def avg_ble_bps(self, t: float) -> float:
        """Slot-averaged BLE — the ``int6krate`` number (§7.1)."""
        return float(np.mean(self.ble_per_slot_bps(t)))

    # --- PB errors -----------------------------------------------------------------

    @staticmethod
    def _realized_pb_err(tone_map_bits: np.ndarray, snr_db: np.ndarray,
                         impulsive_rate_hz: float) -> float:
        """Slot-averaged PBerr of a tone map's bits under an SNR grid."""
        return float(np.mean(phy.pb_error_per_slot(
            snr_db, tone_map_bits, impulsive_rate_hz)))

    def pb_err(self, t: float) -> float:
        """Realised PB error rate under tracked tone maps (``ampstat``).

        The tone map was generated from the *smoothed* channel with the
        standard back-off; the realised error rate is evaluated against the
        currently-jittered SNR — so noisy links show elevated PBerr even
        though their tone maps target the same error rate (Fig. 7 right).
        """
        return self._realized_pb_err(
            phy.bit_loading(self.channel.snr_db(t, include_jitter=False),
                            self.spec),
            self.channel.snr_db(t),
            self.channel.load.impulsive_event_rate_at(
                self.channel.dst_outlet, t))

    # --- throughput -------------------------------------------------------------------

    def capacity_bps(self, t: float) -> float:
        """§7.4 application-capacity estimate: slot-averaged BLE
        (invariance-scale averaging, §6.1) through the MAC model."""
        return float(max(
            self._throughput_model.throughput_bps(self.avg_ble_bps(t)),
            0.0))

    def throughput_bps(self, t: float, measured: bool = True) -> float:
        """Saturated UDP throughput at ``t``.

        ``measured=True`` adds the small iperf sampling noise present in any
        real 100 ms throughput reading.
        """
        ble = self.avg_ble_bps(t)
        residual = max(0.0, self.pb_err(t) - self.spec.target_pb_error)
        thr = self._throughput_model.throughput_bps(ble, residual)
        if thr <= 0:
            return 0.0
        if measured:
            thr += self._rng.normal(0.0, MEASUREMENT_NOISE_BPS)
        return max(thr, 0.0)

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
        snr = self.channel.snr_db(t)
        return phy.robo_loss_probability(snr, self.spec)

    # --- convenience --------------------------------------------------------------------

    def sample(self, t: float, measured: bool = True) -> PlcSample:
        """Take a full measurement snapshot at ``t``."""
        self.metrics.inc("medium.plc.samples")
        per_slot = self.ble_per_slot_bps(t)
        pb = self.pb_err(t)
        return PlcSample(
            time=t,
            capacity_bps=self.capacity_bps(t),
            throughput_bps=self.throughput_bps(t, measured=measured),
            loss=pb,
            ble_per_slot_bps=per_slot,
            avg_ble_bps=float(np.mean(per_slot)),
            pb_err=pb,
        )

    def sample_series(self, ts: np.ndarray,
                      measured: bool = True) -> LinkSeries:
        """Vectorized :meth:`sample` over a time grid.

        Runs the PHY/MAC chain once per (appliance signature, jitter
        interval) group — the timescales on which the channel actually
        changes — and fans the values back out to every timestamp. The
        tone map's bits depend on the signature alone, so they are loaded
        and laid out for PB-error evaluation once per signature.
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
        tone_maps: dict = {}
        for group in self.channel.snr_series_groups(ts):
            per_slot = phy.ble_from_snr(
                group.snr_db, self.spec,
                impulsive_rate_hz=group.impulsive_rate_hz)
            avg_ble = float(np.mean(per_slot))
            tone_map = tone_maps.get(group.signature_index)
            if tone_map is None:
                tone_map = phy.ToneMapSlots(
                    phy.bit_loading(group.base_snr_db, self.spec))
                tone_maps[group.signature_index] = tone_map
            # The realised PBerr: this signature's tone map judged
            # against the group's jittered grid.
            pb = float(np.mean(tone_map.pb_error_per_slot(
                group.snr_db, group.impulsive_rate_hz)))
            residual = max(0.0, pb - self.spec.target_pb_error)
            thr = self._throughput_model.throughput_bps(avg_ble, residual)
            idx = group.indices
            data["ble_per_slot_bps"][idx] = per_slot
            data["avg_ble_bps"][idx] = avg_ble
            data["pb_err"][idx] = pb
            data["loss"][idx] = pb
            data["capacity_bps"][idx] = max(
                self._throughput_model.throughput_bps(avg_ble), 0.0)
            data["throughput_bps"][idx] = thr if thr > 0 else 0.0
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
