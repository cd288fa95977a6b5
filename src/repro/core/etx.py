"""ETX metrics: broadcast probing vs unicast U-ETX (§8.1).

Classic mesh routing estimates ETX = 1 / (forward × reverse delivery ratio)
from **broadcast** probes ([7], [8] in the paper). The paper shows this is
meaningless on PLC: broadcast rides the ultra-robust ROBO modulation and is
proxy-acknowledged, so nearly every link — good or terrible — shows ~1e-4
loss. The useful metric is the **unicast** expected transmission count
(U-ETX), recovered from SoF timestamps (frames within 10 ms of the previous
one are retransmissions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.medium.link import Link
from repro.plc import mac
from repro.plc.frames import SofDelimiter
from repro.plc.link import PlcLink
from repro.plc.sniffer import capture_probe_flow, classify_retransmissions


@dataclass(frozen=True)
class BroadcastProbeResult:
    """Outcome of a §8.1 broadcast-probe run on one link."""

    probes_sent: int
    probes_lost: int

    @property
    def loss_rate(self) -> float:
        return (self.probes_lost / self.probes_sent
                if self.probes_sent else 0.0)

    @property
    def etx(self) -> float:
        """Classic broadcast ETX = 1 / delivery ratio (one direction)."""
        delivered = self.probes_sent - self.probes_lost
        return self.probes_sent / delivered if delivered else float("inf")


def run_broadcast_probes(link: PlcLink, t_start: float, duration: float,
                         probe_interval: float, rng: np.random.Generator
                         ) -> BroadcastProbeResult:
    """Broadcast 1500 B probes every ``probe_interval`` (paper: 100 ms,
    500 s) and count losses at this receiver.

    The ROBO loss probability moves on the channel's jitter/appliance
    timescales (≫ the probe interval), so probes are drawn in batches per
    ~5 s window — same statistics, far fewer channel evaluations.
    """
    if probe_interval <= 0:
        raise ValueError("probe interval must be positive")
    sent = 0
    lost = 0
    t = t_start
    window = max(probe_interval, 5.0)
    while t < t_start + duration:
        span = min(window, t_start + duration - t)
        n = max(1, int(round(span / probe_interval)))
        p = link.broadcast_loss_probability(t)
        sent += n
        lost += int(rng.binomial(n, p))
        t += span
    return BroadcastProbeResult(probes_sent=sent, probes_lost=lost)


@dataclass(frozen=True)
class UEtxResult:
    """U-ETX measured from a unicast probe flow (Fig. 22).

    ``predicted_u_etx`` is the §8.1 predictor: the SACK retransmission law
    applied to the PBerr samples (averaged over the law, not over PBerr —
    the law is convex, so E[etx(p)] ≠ etx(E[p]) on bursty links).
    """

    u_etx: float
    std: float
    packets: int
    mean_pb_err: float
    predicted_u_etx: float


def u_etx_from_sofs(sofs: Sequence[SofDelimiter],
                    threshold_s: float = 0.010) -> Tuple[float, float, int]:
    """(U-ETX, std, packet count) from a SoF capture via the paper's
    10 ms retransmission heuristic."""
    if not sofs:
        raise ValueError("no frames captured")
    flags = classify_retransmissions(list(sofs), threshold_s)
    counts: List[int] = []
    current = 0
    for is_retx in flags:
        if is_retx and current > 0:
            current += 1
        else:
            if current > 0:
                counts.append(current)
            current = 1
    if current > 0:
        counts.append(current)
    arr = np.asarray(counts, dtype=float)
    return float(arr.mean()), float(arr.std()), len(arr)


def measure_u_etx(link: Link, t_start: float, duration: float,
                  rng: np.random.Generator,
                  rate_bps: float = 150e3,
                  payload_bytes: int = 1500) -> UEtxResult:
    """The §8.1 protocol: 150 kbps unicast for 5 min, SoF capture,
    timestamp-based retransmission classification.

    Works on any :class:`repro.medium.Link` whose ``loss`` column is a
    PB-error probability (PLC links and the two-metric model)."""
    interval = payload_bytes * 8 / rate_bps
    sofs = capture_probe_flow(link, t_start, duration,
                              packet_interval_s=interval,
                              payload_bytes=payload_bytes, rng=rng)
    u_etx, std, packets = u_etx_from_sofs(sofs)
    # PBerr sampled every 500 ms as in the paper — one batch through the
    # medium contract (an MM read: no measurement noise to draw).
    times = np.arange(t_start, t_start + duration, 0.5)
    loss = link.sample_series(times, measured=False).column("loss")
    pb_errs = [float(p) for p in np.minimum(loss, 0.95)]
    n_pbs = mac.pbs_for_payload(payload_bytes, link.spec)
    predicted = float(np.mean([mac.expected_transmissions(n_pbs, p)
                               for p in pb_errs]))
    return UEtxResult(u_etx=u_etx, std=std, packets=packets,
                      mean_pb_err=float(np.mean(pb_errs)),
                      predicted_u_etx=predicted)
