"""A process-safe metrics registry with an *exact* merge.

Three metric kinds, chosen so that merging two registries is associative
and commutative:

* **counters** — monotonic sums (``inc``); merge adds;
* **gauges** — high-watermark values with a sim-time stamp (``watermark``);
  merge keeps the larger ``(value, sim_time)`` pair, so "max over the
  campaign" survives any merge order;
* **histograms** — **fixed bucket edges** declared at first observation;
  merge adds bucket counts elementwise. Fixed edges are the point: two
  histograms over the same edges merge exactly, where adaptive-bucket
  schemes would have to re-bin and lose counts.

Exactness, precisely: everything *discrete* — integer counters, bucket
counts and totals, gauge picks, histogram min/max — merges bit-for-bit
in any grouping or order. *Float* accumulations (wall-seconds counters,
histogram value sums) are correctly-rounded IEEE additions: commutative
bit-for-bit, associative only to within an ulp per merge — regrouping
can move the last bit, never a count. Ratios are therefore always
derived from the discrete parts at read time, never stored.

Per-process safety is a ``threading.Lock`` around every mutation; *cross*-
process flow is explicit — a worker serialises its registry with
:meth:`MetricsRegistry.to_dict`, the parent folds it in with
:meth:`MetricsRegistry.merge`. No shared memory, no partial reads.

``RunnerStats`` and ``CampaignStats`` are thin views over a registry:
every ``*_rate``-style figure is *derived* from counters at read time,
never stored, so merged registries can't carry stale ratios.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

#: Serialised registry: {"counters": ..., "gauges": ..., "histograms": ...}
RegistryDict = Dict[str, Dict[str, object]]


class Histogram:
    """Fixed-edge histogram: ``len(edges) + 1`` buckets (last = overflow)."""

    __slots__ = ("edges", "counts", "total", "sum", "min", "max")

    def __init__(self, edges: Sequence[float]):
        edges = tuple(float(e) for e in edges)
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("histogram edges must be strictly increasing")
        if not edges:
            raise ValueError("histogram needs at least one edge")
        self.edges: Tuple[float, ...] = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        k = 0
        while k < len(self.edges) and value > self.edges[k]:
            k += 1
        self.counts[k] += 1
        self.total += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "Histogram") -> None:
        if self.edges != other.edges:
            raise ValueError(
                f"cannot merge histograms with different edges: "
                f"{self.edges} vs {other.edges}")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.total += other.total
        self.sum += other.sum
        for attr in ("min", "max"):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            if theirs is None:
                continue
            if mine is None:
                setattr(self, attr, theirs)
            else:
                pick = min if attr == "min" else max
                setattr(self, attr, pick(mine, theirs))

    def to_dict(self) -> Dict[str, object]:
        return {"edges": list(self.edges), "counts": list(self.counts),
                "sum": self.sum, "min": self.min, "max": self.max}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Histogram":
        hist = cls(data["edges"])
        hist.counts = [int(c) for c in data["counts"]]
        hist.total = sum(hist.counts)
        hist.sum = float(data.get("sum", 0.0))
        hist.min = data.get("min")
        hist.max = data.get("max")
        return hist


class MetricsRegistry:
    """Named counters, watermark gauges and fixed-edge histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        #: name -> (value, sim_time); merge keeps the lexicographic max.
        self._gauges: Dict[str, Tuple[float, float]] = {}
        self._histograms: Dict[str, Histogram] = {}

    # --- mutation -------------------------------------------------------------

    def inc(self, name: str, delta: Union[int, float] = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def set_counter(self, name: str, value: Union[int, float]) -> None:
        """Assign a counter outright (for set-once figures like
        ``wall_seconds``; merging still sums)."""
        with self._lock:
            self._counters[name] = value

    def watermark(self, name: str, value: float,
                  sim_time: float = 0.0) -> None:
        """Raise the high-watermark gauge ``name`` to ``value`` if higher."""
        with self._lock:
            current = self._gauges.get(name)
            candidate = (float(value), float(sim_time))
            if current is None or candidate > current:
                self._gauges[name] = candidate

    def observe(self, name: str, value: float,
                edges: Sequence[float]) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(edges)
            hist.observe(value)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # --- reads ----------------------------------------------------------------

    def counter(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._counters.get(name, default)

    def gauge(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            entry = self._gauges.get(name)
            return entry[0] if entry is not None else default

    def histogram(self, name: str) -> Optional[Histogram]:
        with self._lock:
            return self._histograms.get(name)

    def counters_with_prefix(self, prefix: str) -> Dict[str, float]:
        """``{suffix: value}`` for every counter named ``prefix<suffix>``."""
        with self._lock:
            return {name[len(prefix):]: value
                    for name, value in self._counters.items()
                    if name.startswith(prefix)}

    def gauges_with_prefix(self, prefix: str) -> Dict[str, float]:
        """``{suffix: value}`` for every gauge named ``prefix<suffix>``."""
        with self._lock:
            return {name[len(prefix):]: value
                    for name, (value, _) in self._gauges.items()
                    if name.startswith(prefix)}

    # --- merge / serialisation ------------------------------------------------

    def merge(self, other: Union["MetricsRegistry", RegistryDict]) -> None:
        """Fold ``other`` in. Counters add, gauges keep the max
        ``(value, sim_time)``, histograms add counts (same edges
        required) — commutative, and associative bit-for-bit in the
        discrete parts (float sums to within an ulp; see module doc)."""
        data = other.to_dict() if isinstance(other, MetricsRegistry) \
            else other
        with self._lock:
            for name, value in data.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, entry in data.get("gauges", {}).items():
                candidate = (float(entry[0]), float(entry[1]))
                current = self._gauges.get(name)
                if current is None or candidate > current:
                    self._gauges[name] = candidate
            for name, hist_data in data.get("histograms", {}).items():
                incoming = Histogram.from_dict(hist_data)
                mine = self._histograms.get(name)
                if mine is None:
                    self._histograms[name] = incoming
                else:
                    mine.merge(incoming)

    def to_dict(self) -> RegistryDict:
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": {n: [v, t] for n, (v, t)
                           in self._gauges.items()},
                "histograms": {n: h.to_dict()
                               for n, h in self._histograms.items()},
            }

    @classmethod
    def from_dict(cls, data: RegistryDict) -> "MetricsRegistry":
        registry = cls()
        registry.merge(data)
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (f"MetricsRegistry(counters={len(self._counters)}, "
                    f"gauges={len(self._gauges)}, "
                    f"histograms={len(self._histograms)})")


# --- the process-wide default registry ----------------------------------------

_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry instruments publish into by default.

    Components take an optional ``metrics`` argument; ``None`` means this
    registry. It never crosses a process boundary implicitly — a campaign
    worker that wants its numbers aggregated returns ``to_dict()`` in its
    payload.
    """
    return _GLOBAL


def reset_global_registry() -> None:
    """Clear the process-wide registry (test isolation)."""
    _GLOBAL.reset()
