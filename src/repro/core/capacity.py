"""Capacity estimation via BLE (§7).

The paper's technique: send a few unicast probe packets (so the devices keep
estimating tone maps), then either

* capture SoF delimiters and average BLE_s over the tone-map slots of the
  mains cycle (invariance scale, §6.1), or
* request the average BLE with a management message (``int6krate``).

Both are implemented here. :func:`estimate_capacity_from_sofs` also exposes
the *wrong* way (no slot averaging) so the slot-averaging ablation bench can
quantify why §7.1 insists on averaging over the invariance scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.plc.channel_estimation import ChannelEstimator
from repro.plc.frames import SofDelimiter
from repro.units import MBPS


@dataclass(frozen=True)
class CapacityEstimate:
    """A capacity estimate with provenance."""

    time: float
    capacity_bps: float
    method: str          # "sof-slot-average" | "mm-int6krate" | "sof-naive"
    n_samples: int

    @property
    def capacity_mbps(self) -> float:
        return self.capacity_bps / MBPS


def estimate_capacity_from_sofs(sofs: Sequence[SofDelimiter],
                                num_slots: int = 6,
                                slot_average: bool = True
                                ) -> CapacityEstimate:
    """Estimate capacity (average BLE) from captured frame headers.

    With ``slot_average=True`` (the paper's method) BLE readings are first
    averaged per tone-map slot and the slot means are averaged, so uneven
    sampling of the mains cycle cannot bias the estimate. With ``False`` the
    readings are pooled naively — biased whenever the frame cadence beats
    against the 10 ms tone-map period (the ablation's point).
    """
    if not sofs:
        raise ValueError("need at least one captured SoF")
    times = np.array([s.timestamp for s in sofs])
    bles = np.array([s.ble_bps for s in sofs])
    slots = np.array([s.slot for s in sofs])
    if slot_average:
        slot_means = [bles[slots == s].mean()
                      for s in range(num_slots) if np.any(slots == s)]
        capacity = float(np.mean(slot_means))
        method = "sof-slot-average"
    else:
        capacity = float(bles.mean())
        method = "sof-naive"
    return CapacityEstimate(time=float(times.max()), capacity_bps=capacity,
                            method=method, n_samples=len(sofs))


def estimate_capacity_mbps(sofs: Sequence[SofDelimiter],
                           num_slots: int = 6) -> float:
    """Shorthand: the paper's slot-averaged BLE estimate, in Mbps."""
    return estimate_capacity_from_sofs(sofs, num_slots).capacity_mbps


class ProbingCapacitySession:
    """Drives a reset→probe→converge estimation run (Figs. 16–18).

    Sends probe packets of a given size/rate through the receive-side
    :class:`ChannelEstimator` and records the estimated capacity over time,
    emulating the paper's protocol (device reset, then N packets/s, capacity
    polled by MM).
    """

    def __init__(self, estimator: ChannelEstimator,
                 payload_bytes: int = 1300,
                 packets_per_second: float = 10.0,
                 burst_packets: int = 1):
        if packets_per_second <= 0:
            raise ValueError("probe rate must be positive")
        if burst_packets < 1:
            raise ValueError("burst size must be >= 1")
        self.estimator = estimator
        self.payload_bytes = payload_bytes
        self.packets_per_second = packets_per_second
        self.burst_packets = burst_packets

    def run(self, t_start: float, duration: float,
            sample_interval: float = 10.0,
            pauses: Optional[List[tuple]] = None) -> List[CapacityEstimate]:
        """Probe for ``duration`` seconds; return capacity samples.

        ``pauses`` is a list of (start, end) windows (absolute times) during
        which no probes are sent — the Fig. 17 pause/resume protocol.
        """
        pauses = pauses or []

        def paused(t: float) -> bool:
            return any(a <= t < b for a, b in pauses)

        from repro.plc.mac import pbs_for_payload

        pbs_per_packet = pbs_for_payload(self.payload_bytes,
                                         self.estimator.spec)
        # Multi-PB probes never trigger the one-symbol pathology, so their
        # observations can be bulk-accounted per sample window (fast path).
        fast_path = pbs_per_packet >= 2
        estimates: List[CapacityEstimate] = []
        interval = self.burst_packets / self.packets_per_second
        t = t_start
        next_sample = t_start
        n_sent = 0
        end = t_start + duration
        while t < end:
            step_end = min(next_sample, end)
            if fast_path and step_end - t > interval:
                # Account every probe in [t, step_end) at once.
                n_slots = int(np.ceil((step_end - t) / interval))
                count = n_slots * self.burst_packets
                for a, b in pauses:
                    overlap = min(b, step_end) - max(a, t)
                    if overlap > 0:
                        count -= int(overlap / interval) * self.burst_packets
                count = max(count, 0)
                if count:
                    self.estimator.observe_clean_pbs(
                        step_end, count * pbs_per_packet)
                n_sent += count
                t += n_slots * interval
            else:
                if not paused(t):
                    if self.burst_packets == 1:
                        self.estimator.observe_probe_packet(
                            t, self.payload_bytes)
                    else:
                        # A burst aggregates into one long frame (§8.2).
                        self.estimator.observe_frame(
                            t, pbs_per_packet * self.burst_packets)
                    n_sent += self.burst_packets
                t += interval
            while next_sample <= t:
                estimates.append(CapacityEstimate(
                    time=next_sample,
                    capacity_bps=self.estimator.estimated_capacity_bps(
                        next_sample),
                    method="mm-int6krate", n_samples=n_sent))
                next_sample += sample_interval
        return estimates
