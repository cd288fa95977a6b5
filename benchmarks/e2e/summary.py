"""Turn per-round measurements into the benchmark's named metrics.

Pure functions over plain numbers, spans and artifact stats: no clock,
no program imports, so the arithmetic is testable on synthetic inputs.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

from spans import ROOT_SPAN, Span, self_times
from workloads import UNIT_EVENTS

#: End-to-end metrics (measured with tracing off) and their units.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_rate": "sim-s/s",
    "task_p50_s": "s",
    "task_p90_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run and their units. Times are self
#: time per round and counts are per round (means over the traced
#: rounds); ``*_rate``, ``coverage``, ``groups_per_sample`` and
#: ``bytes_mean`` are ratios of run totals, ``bytes_max`` a maximum and
#: ``trace.overhead_s`` a median over rounds.
PER_LAYER = {
    "powergrid.signature_s": "s",
    "powergrid.signature_calls": "count",
    "powergrid.impulse_s": "s",
    "powergrid.impulse_calls": "count",
    "powergrid.noise_s": "s",
    "powergrid.noise_calls": "count",
    "plc.phy_s": "s",
    "plc.phy_calls": "count",
    "plc.batch_s": "s",
    "plc.samples": "count",
    "plc.groups_per_sample": "ratio",
    "plc.scalar_s": "s",
    "plc.scalar_calls": "count",
    "plc.snr_s": "s",
    "wifi.batch_s": "s",
    "wifi.samples": "count",
    "wifi.scalar_s": "s",
    "wifi.scalar_calls": "count",
    "testbed.measure_s": "s",
    "netsim.loop_s": "s",
    "netsim.quanta": "count",
    "netsim.capacity_misses": "count",
    "netsim.cache_hit_rate": "ratio",
    "snapshot.save_s": "s",
    "snapshot.load_s": "s",
    "snapshot.checkpoints": "count",
    "snapshot.bytes_mean": "B",
    "snapshot.bytes_max": "B",
    "compile.checkout_s": "s",
    "compile.checkouts": "count",
    "compile.builds": "count",
    "compile.hit_rate": "ratio",
    "campaign.task_s": "s",
    "campaign.write_s": "s",
    "campaign.units": "count",
    "campaign.failed": "count",
    "campaign.retries": "count",
    "campaign.bytes": "B",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
}

#: Samples that must lie beyond a tail percentile before it is reported.
MIN_BEYOND = 10


def tail_percentile(samples: Sequence[float], q: float,
                    min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Nearest-rank ``q`` quantile, or ``None`` when fewer than
    ``min_beyond`` samples lie beyond it (e.g. p90 needs >= 100)."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def unit_latencies(t0: float, events: Sequence[tuple],
                   stamps: Sequence[float]) -> List[float]:
    """Latency of each dispatch unit: the gap since the previous unit
    ended (the first unit is timed from submission at ``t0``)."""
    out: List[float] = []
    previous = t0
    for (event, _), stamp in zip(events, stamps):
        if event in UNIT_EVENTS:
            out.append(stamp - previous)
            previous = stamp
    return out


def round_layers(spans: Sequence[Span], counts: Dict[str, float],
                 task_stats: Sequence[dict]) -> Dict[str, float]:
    """Per-layer totals of one traced round.

    ``spans`` are the round's spans, one of them the ``round`` root
    whose self time is wall time no wrapped entry point accounts for;
    every other span ``x`` feeds the metric ``x_s``. ``counts`` are the
    recorder's tallies, kept under their own names.
    """
    own = self_times(spans)
    wall = sum(s.end - s.start for s in spans if s.name == ROOT_SPAN)
    out = dict.fromkeys(PER_LAYER, 0.0)
    for name, seconds in own.items():
        if name != ROOT_SPAN:
            out[name + "_s"] += seconds
    out.update(counts)
    for metric, stat in (("netsim.quanta", "quanta"),
                         ("netsim.cache_hits", "cache_hits"),
                         ("netsim.capacity_misses", "cache_misses")):
        out[metric] = float(sum(s.get(stat, 0) for s in task_stats))
    out["trace.wall_s"] = wall
    out["trace.covered_s"] = wall - own.get(ROOT_SPAN, 0.0)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rounds: Sequence[Dict[str, float]],
              overheads: Sequence[float]) -> Dict[str, float]:
    """Aggregate traced rounds into the :data:`PER_LAYER` metrics.

    ``rounds`` are :func:`round_layers` outputs, extended with the
    round's ``campaign.*`` tallies; ``overheads`` are traced-minus-
    untraced wall times of the same inputs.
    """
    n = len(rounds)
    total = {key: sum(r.get(key, 0.0) for r in rounds)
             for key in set().union(*rounds)}
    out = {name: total.get(name, 0.0) / n for name in PER_LAYER}
    out["plc.groups_per_sample"] = _ratio(total.get("plc.groups", 0.0),
                                          total["plc.samples"])
    out["netsim.cache_hit_rate"] = _ratio(
        total["netsim.cache_hits"],
        total["netsim.cache_hits"] + total["netsim.capacity_misses"])
    out["snapshot.bytes_mean"] = _ratio(total.get("snapshot.bytes", 0.0),
                                        total["snapshot.checkpoints"])
    out["snapshot.bytes_max"] = max(r.get("snapshot.bytes_max", 0.0)
                                    for r in rounds)
    out["compile.hit_rate"] = 1.0 - _ratio(total["compile.builds"],
                                           total["compile.checkouts"])
    out["trace.coverage"] = _ratio(total["trace.covered_s"],
                                   total["trace.wall_s"])
    out["trace.overhead_s"] = statistics.median(overheads)
    return out
