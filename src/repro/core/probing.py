"""Probing policies: when and how to probe each link (§7.2, §7.3, §8.2).

The paper's guidelines (Table 3) constrain probe design:

* probes must be **unicast** (broadcast rides ROBO and says nothing, §8.1);
* probes must exceed **one PB** or the estimate pins at R_1sym (§7.2);
* probe **frequency** should adapt to link quality: the temporal-variation
  study shows good links hold their tone maps orders of magnitude longer
  than bad ones (§6.2), so probing them equally wastes airtime;
* probes should be sent in **bursts** when background traffic may collide
  with them, so frame aggregation protects the channel estimator (§8.2).

:class:`AdaptiveProbingPolicy` is the paper's §7.3 method: bad links probed
every ``base_interval``, average links 8× slower, good links 16× slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.core.classification import (
    DEFAULT_THRESHOLDS,
    LinkQuality,
    QualityThresholds,
    classify_ble,
)
from repro.units import MBPS


@dataclass(frozen=True)
class ProbeSchedule:
    """A concrete probing prescription for one link."""

    interval_s: float
    payload_bytes: int = 1500
    burst_packets: int = 1

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("probe interval must be positive")
        if self.payload_bytes <= 0:
            raise ValueError("probe payload must be positive")
        if self.burst_packets < 1:
            raise ValueError("burst size must be >= 1")

    def overhead_bps(self) -> float:
        """Average probing load this schedule puts on the medium."""
        return self.payload_bytes * 8 * self.burst_packets / self.interval_s


class FixedProbingPolicy:
    """Probe every link at the same interval (the Fig. 19 baselines)."""

    def __init__(self, interval_s: float, payload_bytes: int = 1500,
                 burst_packets: int = 1):
        self.schedule = ProbeSchedule(interval_s, payload_bytes,
                                      burst_packets)

    def schedule_for(self, ble_bps: float) -> ProbeSchedule:
        return self.schedule


class AdaptiveProbingPolicy:
    """§7.3: probing interval scaled by link quality.

    Bad links get ``base_interval_s``; average links ``average_factor``
    times slower; good links ``good_factor`` times slower (the paper uses
    5 s / ×8 / ×16).
    """

    def __init__(self, base_interval_s: float = 5.0,
                 average_factor: float = 8.0, good_factor: float = 16.0,
                 payload_bytes: int = 1500, burst_packets: int = 1,
                 thresholds: QualityThresholds = DEFAULT_THRESHOLDS):
        if not 1.0 <= average_factor <= good_factor:
            raise ValueError(
                "factors must satisfy 1 <= average_factor <= good_factor")
        self.base_interval_s = base_interval_s
        self.average_factor = average_factor
        self.good_factor = good_factor
        self.payload_bytes = payload_bytes
        self.burst_packets = burst_packets
        self.thresholds = thresholds

    def interval_for(self, ble_bps: float) -> float:
        quality = classify_ble(ble_bps, self.thresholds)
        factor = {LinkQuality.BAD: 1.0,
                  LinkQuality.AVERAGE: self.average_factor,
                  LinkQuality.GOOD: self.good_factor}[quality]
        return self.base_interval_s * factor

    def schedule_for(self, ble_bps: float) -> ProbeSchedule:
        return ProbeSchedule(self.interval_for(ble_bps),
                             self.payload_bytes, self.burst_packets)


def network_overhead_bps(policy, link_bles_bps: Iterable[float]) -> float:
    """Total probing overhead a policy induces across a set of links.

    This is the number behind the paper's "32 % overhead reduction": the
    adaptive policy's overhead relative to probing everything at the base
    interval.
    """
    return sum(policy.schedule_for(ble).overhead_bps()
               for ble in link_bles_bps)


def overhead_reduction(adaptive: AdaptiveProbingPolicy,
                       baseline: FixedProbingPolicy,
                       link_bles_bps: Sequence[float]) -> float:
    """Fractional overhead saved by the adaptive policy vs the baseline."""
    base = network_overhead_bps(baseline, link_bles_bps)
    if base <= 0:
        raise ValueError("baseline overhead must be positive")
    ours = network_overhead_bps(adaptive, link_bles_bps)
    return 1.0 - ours / base
