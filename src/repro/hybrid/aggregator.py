"""The hybrid device: bandwidth aggregation over PLC + WiFi (§7.4, Fig. 20).

:class:`HybridDevice` bonds one PLC and one WiFi link between the same two
stations. Once per second it probes capacities the paper's way — PLC from
the slot-averaged BLE, WiFi from the MCS observed over the last second —
then splits traffic per the configured scheduler. Saturated runs
(:meth:`HybridDevice.run_saturated`) use a 100 ms fluid quantum (the
goodput law of :func:`repro.hybrid.schedulers.fluid_goodput_bps`) and
run to the end in one call: a Fig. 20 run is 60 s of simulated time,
and only the scenario runner's long runs are checkpointed. A
packet-level mode exercises the reorder buffer for jitter measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.metrics import MetricSeries
from repro.hybrid.reorder import ReorderBuffer, ReorderStats
from repro.hybrid.schedulers import (
    CapacityProportionalScheduler,
    RoundRobinScheduler,
    fluid_goodput_bps,
)
from repro.medium.link import Link
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.sim.random import RandomStreams
from repro.traffic.packet import Packet
from repro.units import MBPS


#: Media whose estimated capacity falls below this are left out of the
#: split: assigning traffic to a (near-)dead interface stalls a closed-loop
#: source for nothing (§7.4 implicitly assumes both media carry traffic).
MIN_MEDIUM_CAPACITY_BPS = 2e6


@dataclass
class AggregationResult:
    """Outcome of a saturated hybrid run."""

    mode: str
    throughput: MetricSeries
    reorder_stats: Optional[ReorderStats] = None
    #: Stall-triggered early re-probes during a saturated hybrid run
    #: (0 unless a medium collapsed between scheduled probes).
    failovers: int = 0

    @property
    def mean_mbps(self) -> float:
        return self.throughput.mean / MBPS


class HybridDevice:
    """Bonded PLC+WiFi path between two stations."""

    def __init__(self, plc_link: Link, wifi_link: Link,
                 streams: RandomStreams,
                 capacity_probe_interval_s: float = 1.0,
                 failover_threshold: float = 0.5,
                 metrics: Optional[MetricsRegistry] = None):
        self.plc_link = plc_link
        self.wifi_link = wifi_link
        #: ``hybrid.*`` counters land here (process-global by default).
        self.metrics = metrics if metrics is not None \
            else global_registry()
        #: A saturated hybrid quantum whose goodput falls below this
        #: fraction of the best single medium's deliverable rate is a
        #: stall (the split was built from probes that predate a medium
        #: dying) and triggers an immediate re-probe — so blackout
        #: detection is bounded by one quantum, not the probe interval.
        self.failover_threshold = failover_threshold
        #: Medium tag → bonded link. Insertion order (PLC first) fixes the
        #: per-medium RNG draw order of the smoothing windows.
        self.links: Dict[str, Link] = {plc_link.medium: plc_link,
                                       wifi_link.medium: wifi_link}
        self.capacity_probe_interval_s = capacity_probe_interval_s
        self._rng = streams.get(f"hybrid.{plc_link.name}|{wifi_link.name}")

    # --- capacity estimation (the §7.4 probing design) -------------------------

    def estimate_capacities_bps(self, t: float) -> Dict[str, float]:
        """Per-medium *application* capacity estimates at ``t``.

        Each link answers through the medium contract's ``capacity_bps``:
        PLC averages BLE over the 6 tone-map slots (invariance-scale
        averaging, §6.1) through the MAC model; WiFi averages the observed
        MCS × availability over the last second — WiFi varies too fast
        within a second for a point sample (§4.2). The device no longer
        needs to know either medium's internals.
        """
        self.metrics.inc("hybrid.capacity_probes")
        return {m: max(link.capacity_bps(t), 0.0)
                for m, link in self.links.items()}

    def _actual_capacities_bps(self, t: float,
                               smooth_s: float = 1.0) -> Dict[str, float]:
        """Per-medium deliverable rate around ``t``.

        Driver queues buffer tens of milliseconds of traffic, so the rate a
        blocking sender actually experiences is the short-window average,
        not the instantaneous fading sample — we average over ``smooth_s``.
        """
        if smooth_s <= 0:
            return {m: link.throughput_bps(t)
                    for m, link in self.links.items()}
        samples = np.arange(t - smooth_s / 2, t + smooth_s / 2 + 1e-9,
                            smooth_s / 5)
        return {m: float(np.mean(link.sample_series(samples).throughput_bps))
                for m, link in self.links.items()}

    def _hybrid_goodput(self, estimated: Dict[str, float],
                        actual: Dict[str, float]) -> float:
        """Capacity-proportional goodput with the dead-medium floor.

        A medium is used only if it is both absolutely usable and carries a
        non-negligible share of the bond: handing 5 % of a closed-loop flow
        to a barely-alive interface just stalls the fast one.
        """
        total_est = sum(estimated.values())
        usable = {m: c for m, c in estimated.items()
                  if c >= MIN_MEDIUM_CAPACITY_BPS
                  and c >= 0.08 * total_est}
        if not usable:
            # Fall back to whatever single medium still moves bits.
            best = max(estimated, key=estimated.get)
            usable = {best: max(estimated[best], 1.0)}
        total = sum(usable.values())
        fractions = {m: c / total for m, c in usable.items()}
        return fluid_goodput_bps(fractions,
                                 {m: actual[m] for m in fractions})

    def hybrid_goodput_bps(self, t: float) -> float:
        """Instantaneous goodput of the capacity-proportional bond at t."""
        return self._hybrid_goodput(self.estimate_capacities_bps(t),
                                    self._actual_capacities_bps(t))

    # --- saturated runs (Fig. 20 left) ---------------------------------------------

    def run_saturated(self, mode: str, t_start: float, duration: float,
                      quantum_s: float = 0.1) -> AggregationResult:
        """Saturated UDP over the bonded pair, in one call.

        ``mode``: "wifi" | "plc" | "hybrid" (capacity-proportional) |
        "round-robin".
        """
        if mode not in ("wifi", "plc", "hybrid", "round-robin"):
            raise ValueError(f"unknown mode {mode!r}")
        times = np.arange(t_start, t_start + duration, quantum_s)
        values: List[float] = []
        capacities: Dict[str, float] = {}
        last_probe = -np.inf
        failovers = 0
        for t in times:
            actual = self._actual_capacities_bps(t)
            if mode == "wifi":
                values.append(actual["wifi"])
                continue
            if mode == "plc":
                values.append(actual["plc"])
                continue
            if t - last_probe >= self.capacity_probe_interval_s:
                capacities = self.estimate_capacities_bps(t)
                last_probe = t
            if mode == "hybrid":
                goodput = self._hybrid_goodput(capacities, actual)
                best_single = max(actual.values())
                if (goodput < self.failover_threshold * best_single
                        and t > last_probe):
                    capacities = self.estimate_capacities_bps(t)
                    last_probe = t
                    failovers += 1
                    self.metrics.inc("hybrid.failovers")
                    goodput = self._hybrid_goodput(capacities, actual)
                values.append(goodput)
            else:  # round-robin: capacity-blind equal split
                fractions = {m: 1.0 / len(actual) for m in actual}
                values.append(fluid_goodput_bps(fractions, actual))
        series = MetricSeries(times, values, name=f"hybrid-{mode}")
        return AggregationResult(mode=mode, throughput=series,
                                 failovers=failovers)

    # --- packet-level mode (reordering / jitter) --------------------------------------

    def run_packet_level(self, mode: str, t_start: float, duration: float,
                         packet_bytes: int = 1500,
                         hole_timeout_s: float = 0.05,
                         check_invariants: bool = False) -> ReorderStats:
        """Short packet-level run exercising the reorder buffer.

        Each medium is modelled as a FIFO served at its instantaneous
        capacity; the scheduler assigns packets as they are generated at the
        bonded pair's sustainable rate.

        ``check_invariants=True`` runs the registered ``reorder_release``
        and ``pipeline`` invariants (:mod:`repro.verify.invariants`) over
        the released stream — in-order release, no minted or silently
        dropped packets — and raises
        :class:`~repro.verify.invariants.InvariantViolationError` on any
        breach.
        """
        scheduler = (CapacityProportionalScheduler(self._rng)
                     if mode == "hybrid" else RoundRobinScheduler())
        reorder = ReorderBuffer(hole_timeout_s=hole_timeout_s)
        # Source rate: what the mode can sustain (so queues stay bounded).
        capacities = {m: c
                      for m, c in self.estimate_capacities_bps(
                          t_start).items()
                      if c >= MIN_MEDIUM_CAPACITY_BPS}
        if not capacities:
            capacities = self.estimate_capacities_bps(t_start)
        if mode == "hybrid":
            rate = sum(self._actual_capacities_bps(t_start).values()) * 0.95
        else:
            rate = 2 * min(
                self._actual_capacities_bps(t_start).values()) * 0.95
        interval = packet_bytes * 8 / max(rate, 1e5)
        next_free = {m: t_start for m in self.links}
        t = t_start
        seq = 0
        arrivals: List[Packet] = []
        while t < t_start + duration:
            medium = scheduler.pick(capacities)
            service = packet_bytes * 8 / max(
                self._actual_capacities_bps(t, smooth_s=0.0)[medium], 1e5)
            start = max(t, next_free[medium])
            done = start + service
            next_free[medium] = done
            packet = Packet(seq=seq, size_bytes=packet_bytes, created_at=t,
                            medium=medium)
            packet.delivered_at = done
            arrivals.append(packet)
            seq += 1
            t += interval
        released: List[Packet] = []
        for packet in sorted(arrivals, key=lambda p: p.delivered_at):
            released.extend(reorder.push(packet, packet.delivered_at))
        # End-of-stream drain: without it the tail packets behind the last
        # hole would never be counted (see ReorderBuffer.flush).
        end = max(next_free.values()) if arrivals else t_start
        released.extend(reorder.flush(end))
        if check_invariants:
            # Lazy: the verify layer is optional at runtime and importing
            # it here keeps the hybrid package cycle-free.
            from repro.verify.invariants import enforce_invariants

            subject = f"{self.plc_link.name}|{self.wifi_link.name}"
            seqs = [p.seq for p in released]
            enforce_invariants("reorder_release", seqs,
                               subject_name=subject, metrics=self.metrics)
            enforce_invariants(
                "pipeline",
                {"scheduled": seq, "released": len(released),
                 "pending": reorder.pending_count, "duplicates": 0,
                 "released_unique": len(set(seqs))},
                subject_name=subject, metrics=self.metrics)
        return reorder.stats
