"""Quantum-based scenario execution with airtime-fair medium sharing.

The runner advances in fixed quanta (default 0.5 s). In each quantum:

1. flows that have started and not finished are *active*;
2. PLC flows sharing a contention domain (one AVLN/board — CSMA is
   domain-wide) split airtime equally among backlogged flows, so flow i's
   rate is ``capacity_i / n_backlogged`` (the round-based CSMA simulator's
   long-term behaviour, without paying its per-frame cost);
3. WiFi flows share the (single) channel the same way;
4. hybrid flows take their share on both media (§7.4's bond);
5. CBR flows consume at most their offered rate — the *airtime* they do
   not need goes back to the saturated flows in a second pass
   (work-conserving). Accounting is done in airtime fractions, not bits:
   a domain's airtime sums to at most 1, so no pass can mint capacity;
6. file flows retire once their bytes are moved.

Per-quantum link-capacity lookups are memoised in a shared
:class:`~repro.cache.WindowedLruCache` (channel drift is minutes-scale,
so capacities are effectively constant over a few seconds) and the
allocation passes are batched with numpy across all (flow, medium) pairs.
:class:`RunnerStats` exposes cache hit rates, per-domain utilisation,
peak concurrency and the work-conservation invariant for observability;
the per-quantum time series is the tracer's ``runner.quantum`` events,
so the runner keeps no history of its own.

This is deliberately fluid-level: the frame-level dynamics live in
:mod:`repro.plc.csma`; the runner answers capacity-planning questions
("what do these nine flows do to each other for ten minutes?") that the
paper's metrics exist to serve.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache import CacheStats, WindowedLruCache
from repro.medium.registry import constituent_media, get_medium
from repro.netsim.scenario import FlowRequest, FlowResult, Scenario
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import NULL_PROFILER, Profiler
from repro.obs.trace import NULL_TRACER, Tracer
from repro.snapshot.codec import Snapshot
from repro.snapshot.world import (
    restore_cache,
    restore_streams,
    snapshot_cache,
    snapshot_streams,
)

#: ``Snapshot.kind`` for a paused :class:`ScenarioRunner`.
RUNNER_SNAPSHOT_KIND = "scenario-runner"


def results_to_campaign(results: Dict[str, "FlowResult"],
                        name: str = "scenario",
                        stats: Optional["RunnerStats"] = None):
    """Export scenario outcomes as a persistable measurement campaign.

    When ``stats`` (the runner's :class:`RunnerStats`) is given, a summary
    of the run — quanta executed, cache hit rate, invariant violations —
    is recorded in the campaign description so archived campaigns carry
    their execution provenance.
    """
    from repro.analysis.traces import Campaign
    from repro.core.metrics import LinkMetricRecord

    description = "netsim scenario results"
    if stats is not None:
        description += (
            f" [quanta={stats.quanta}"
            f" cache_hit_rate={stats.cache.hit_rate:.3f}"
            f" invariant_violations={stats.invariant_violations}]")
    campaign = Campaign(name=name, description=description)
    for flow_name, result in sorted(results.items()):
        request = result.request
        campaign.add(LinkMetricRecord(
            time=result.completed_at if result.finished
            else request.start_s + result.active_time_s,
            src=str(request.src), dst=str(request.dst),
            # Records are per elemental medium; a composite flow is filed
            # under its primary constituent (PLC for the hybrid bond).
            medium=constituent_media(request.medium)[0],
            capacity_bps=result.mean_rate_bps,
            throughput_bps=result.mean_rate_bps))
    return campaign


class WorkConservationError(RuntimeError):
    """A quantum allocated more airtime in a domain than the domain has."""


class RunnerStats:
    """Aggregate observability for one :meth:`ScenarioRunner.run` call.

    A thin **view over a metrics registry** (:mod:`repro.obs.metrics`):
    the runner publishes counters under ``runner.*`` and this class reads
    them back as the familiar attributes, so per-task registries merge
    exactly into campaign-wide aggregates. ``domain_airtime`` sums each
    domain's used airtime fraction over the quanta in which it was
    active; divide by ``domain_quanta`` (see :meth:`domain_utilisation`)
    for its mean utilisation — both raw sums are exported by
    :meth:`to_dict` so downstream merges can stay quanta-weighted. Every
    rate/ratio is derived at read time, never stored.

    ``peak_active_flows`` and ``peak_domain_load`` are watermark gauges
    (most flows active in one quantum, most flow/medium pairs sharing
    each contention domain). They ride in the registry, and so in
    checkpoints, but stay out of :meth:`to_dict` and thus out of
    artifacts.
    """

    def __init__(self, cache: Optional[CacheStats] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.cache = cache if cache is not None else CacheStats()
        self.registry = registry if registry is not None \
            else MetricsRegistry()

    # --- recording (runner-side) ---------------------------------------------

    def note_quantum(self) -> None:
        self.registry.inc("runner.quanta")

    def note_starved(self) -> None:
        self.registry.inc("runner.starved_quanta")

    def note_violation(self) -> None:
        self.registry.inc("runner.invariant_violations")

    def add_domain_airtime(self, domain: str, airtime: float) -> None:
        self.registry.inc(f"runner.domain_airtime.{domain}",
                          float(airtime))
        self.registry.inc(f"runner.domain_quanta.{domain}")

    def note_peak_airtime(self, peak: float, sim_time: float) -> None:
        self.registry.watermark("runner.max_domain_airtime",
                                float(peak), sim_time)

    def note_load(self, active_flows: int, members: np.ndarray,
                  domain_names: List[str], sim_time: float) -> None:
        registry = self.registry
        registry.watermark("runner.peak_active_flows", active_flows,
                           sim_time)
        for k, name in enumerate(domain_names):
            registry.watermark(f"runner.peak_domain_load.{name}",
                               members[k], sim_time)

    # --- views ----------------------------------------------------------------

    @property
    def quanta(self) -> int:
        return int(self.registry.counter("runner.quanta"))

    @property
    def starved_quanta(self) -> int:
        return int(self.registry.counter("runner.starved_quanta"))

    @property
    def invariant_violations(self) -> int:
        return int(self.registry.counter("runner.invariant_violations"))

    @property
    def max_domain_airtime(self) -> float:
        return self.registry.gauge("runner.max_domain_airtime", 0.0)

    @property
    def peak_active_flows(self) -> int:
        return int(self.registry.gauge("runner.peak_active_flows"))

    @property
    def peak_domain_load(self) -> Dict[str, int]:
        return {d: int(n) for d, n in self.registry.gauges_with_prefix(
            "runner.peak_domain_load.").items()}

    @property
    def domain_airtime(self) -> Dict[str, float]:
        return self.registry.counters_with_prefix("runner.domain_airtime.")

    @property
    def domain_quanta(self) -> Dict[str, int]:
        return {d: int(n) for d, n in self.registry.counters_with_prefix(
            "runner.domain_quanta.").items()}

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate

    def domain_utilisation(self) -> Dict[str, float]:
        """Mean airtime fraction used per domain while it was active."""
        airtime, quanta = self.domain_airtime, self.domain_quanta
        return {d: airtime[d] / quanta[d]
                for d in airtime if quanta.get(d)}

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict summary (for reports / JSON export).

        Includes the raw ``domain_airtime`` / ``domain_quanta`` sums:
        they are what makes the campaign-level per-domain merge exact
        (``domain_utilisation`` alone cannot be averaged without its
        weights).
        """
        return {
            "quanta": self.quanta,
            "starved_quanta": self.starved_quanta,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": self.cache.hit_rate,
            "max_domain_airtime": self.max_domain_airtime,
            "invariant_violations": self.invariant_violations,
            "domain_airtime": self.domain_airtime,
            "domain_quanta": self.domain_quanta,
            "domain_utilisation": self.domain_utilisation(),
        }


class ScenarioRunner:
    """Execute a :class:`Scenario` against a testbed.

    ``cache_window_s`` controls how long a link-capacity reading is
    reused before being recomputed from the channel model; the default
    (5 s, ten quanta) tracks the minutes-scale appliance/channel drift
    while cutting the dominant cost of long scenarios. Set it to
    ``quantum_s`` to recompute every quantum.

    ``check_invariants=True`` raises :class:`WorkConservationError` if a
    quantum ever allocates more than ``1 + invariant_epsilon`` of any
    domain's airtime; the violation count is always tracked in
    :attr:`stats` either way.

    ``tracer`` (a :class:`repro.obs.Tracer`) records the sim-time event
    stream — per-quantum domain airtime, flow completions, invariant
    violations — with zero effect on results. ``profiler`` (a
    :class:`repro.obs.Profiler`) times the wall-clock hot stages
    (capacity recompute, allocation) into the metrics registry. Both
    default to the shared no-op instances.
    """

    def __init__(self, testbed, quantum_s: float = 0.5,
                 cache_window_s: float = 5.0,
                 cache_entries: int = 50_000,
                 check_invariants: bool = False,
                 invariant_epsilon: float = 1e-6,
                 link_decorator=None,
                 tracer: Optional[Tracer] = None,
                 profiler: Optional[Profiler] = None,
                 metrics: Optional[MetricsRegistry] = None):
        if quantum_s <= 0:
            raise ValueError("quantum must be positive")
        self.testbed = testbed
        self.quantum_s = quantum_s
        self.check_invariants = check_invariants
        self.invariant_epsilon = invariant_epsilon
        #: Optional ``f(link, medium, src, dst) -> Link`` applied to every
        #: link before its capacity is read — the fault-injection seam
        #: (:func:`repro.faults.faulty_link_decorator`). Note the capacity
        #: cache: a fault edge (outage start/end) is observed at the next
        #: recompute, so detection lag is bounded by ``cache_window_s``.
        self.link_decorator = link_decorator
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self._metrics = metrics
        self._capacity_cache = WindowedLruCache(cache_window_s,
                                                max_entries=cache_entries)
        self.stats = RunnerStats(cache=self._capacity_cache.stats,
                                 registry=self._metrics)
        #: Set while a run is paused at an ``until_s`` boundary:
        #: ``{"t0", "t", "deadline"}``. ``None`` once the run completes
        #: (so callers can tell "paused" from "done").
        self._paused: Optional[Dict[str, object]] = None

    # --- per-flow capacity on one medium at time t ------------------------------

    def _link_capacity(self, flow: FlowRequest, medium: str,
                       t: float) -> float:
        return self._capacity_cache.get(
            (medium, flow.src, flow.dst), t,
            lambda: self._compute_capacity(flow, medium, t))

    def _compute_capacity(self, flow: FlowRequest, medium: str,
                          t: float) -> float:
        with self.profiler.stage("runner.capacity_compute"):
            link = get_medium(medium).get_link(self.testbed, flow.src,
                                               flow.dst)
            if link is None:  # e.g. PLC pairs split across boards
                return 0.0
            if self.link_decorator is not None:
                link = self.link_decorator(link, medium, flow.src,
                                           flow.dst)
            return max(link.throughput_bps(t, measured=False), 0.0)

    def _domain(self, flow: FlowRequest, medium: str) -> str:
        return get_medium(medium).contention_domain(self.testbed,
                                                    flow.src)

    # --- main loop -----------------------------------------------------------------

    def run(self, scenario: Scenario, horizon_s: Optional[float] = None,
            until_s: Optional[float] = None) -> Dict[str, FlowResult]:
        """Run the scenario and return per-flow results.

        ``horizon_s`` is **relative**: the maximum simulated duration
        measured from the first flow's start time. When omitted, the
        runner stops at :meth:`default_deadline`.

        ``until_s`` is an **absolute** pause point: the loop stops
        *before* executing the first quantum at ``t >= until_s``,
        records the paused position, and returns the partial results.
        A paused runner can be serialised with :meth:`snapshot` and the
        run continued — on this runner or a freshly built twin — with
        :meth:`resume`. The final ``runner.run`` trace span is emitted
        only when the run actually completes, with the *original* start
        time, so a sliced run's trace is byte-identical to a straight
        one.

        Each call resets :attr:`stats` (when no shared ``metrics``
        registry was injected — an injected registry keeps accumulating
        across runs); the capacity cache persists across calls (it is
        keyed by absolute time).
        """
        if not scenario.flows:
            return {}
        t0 = min(f.start_s for f in scenario.flows)
        deadline = (t0 + horizon_s if horizon_s is not None
                    else self.default_deadline(scenario))
        self._capacity_cache.stats.reset()
        self.stats = RunnerStats(cache=self._capacity_cache.stats,
                                 registry=self._metrics)
        self._paused = None
        results = {f.name: FlowResult(request=f) for f in scenario.flows}
        return self._loop(scenario, results, t0, t0, deadline, until_s)

    def default_deadline(self, scenario: Scenario) -> float:
        """The *absolute* deadline of a run without ``horizon_s``: the
        last scheduled flow end plus 60 s of slack, which bounds file
        flows that never complete (e.g. on a dead link) without
        double-counting a late scenario start."""
        return scenario.end_time() + 60.0

    def _loop(self, scenario: Scenario,
              results: Dict[str, FlowResult], t0: float, t: float,
              deadline: float,
              until_s: Optional[float]) -> Dict[str, FlowResult]:
        """The quantum loop, resumable at any quantum boundary."""
        tracer = self.tracer
        while t < deadline:
            if until_s is not None and t >= until_s:
                self._paused = {"t0": t0, "t": t, "deadline": deadline}
                return results
            active = [f for f in scenario.flows
                      if f.start_s <= t and not self._done(results[f.name],
                                                           f, t)]
            if not active:
                upcoming = [f.start_s for f in scenario.flows
                            if f.start_s > t]
                if not upcoming:
                    break
                t = min(upcoming)
                continue
            self._step(active, results, t)
            t += self.quantum_s
        self._paused = None
        if tracer.enabled:
            tracer.span("runner.run", t0, t, quanta=self.stats.quanta,
                        flows=len(scenario.flows))
        return results

    # --- snapshot / resume ---------------------------------------------------------

    @property
    def paused(self) -> bool:
        """Whether the last :meth:`run`/:meth:`resume` stopped at an
        ``until_s`` boundary rather than completing."""
        return self._paused is not None

    def snapshot(self, scenario: Scenario,
                 results: Dict[str, FlowResult]) -> Snapshot:
        """Serialise a paused run into a restorable :class:`Snapshot`.

        Captures everything the continued loop can observe: the paused
        position, per-flow progress, the testbed's RNG stream states,
        the capacity cache's windows from the paused time on *with
        their LRU order, the count of earlier ones and the counters*
        (see :func:`~repro.snapshot.world.snapshot_cache`), and the
        metrics registry. Restoring into a freshly built testbed of the
        same preset+seed and calling :meth:`resume` continues
        bit-identically. The size stays flat over a run: nothing here
        grows with the quanta already executed.
        """
        if self._paused is None:
            raise RuntimeError(
                "snapshot() requires a paused run — call "
                "run(..., until_s=...) first and only snapshot when "
                "`paused` is True")
        flows: Dict[str, Dict[str, object]] = {}
        for name in sorted(results):
            result = results[name]
            flows[name] = {
                "delivered_bytes": float(result.delivered_bytes),
                "active_time_s": float(result.active_time_s),
                "completed_at": (None if result.completed_at is None
                                 else float(result.completed_at)),
                "starved_quanta": int(result.starved_quanta),
            }
        payload = {
            "quantum_s": float(self.quantum_s),
            "t0": float(self._paused["t0"]),
            "t": float(self._paused["t"]),
            "deadline": float(self._paused["deadline"]),
            "flows": flows,
            "streams": snapshot_streams(self.testbed.streams),
            "cache": snapshot_cache(self._capacity_cache,
                                    self._paused["t"]),
            "registry": self.stats.registry.to_dict(),
        }
        return Snapshot(kind=RUNNER_SNAPSHOT_KIND, payload=payload)

    def resume(self, scenario: Scenario, snap: Snapshot,
               until_s: Optional[float] = None) -> Dict[str, FlowResult]:
        """Continue a snapshotted run on this runner.

        The runner must wrap a *fresh* testbed built from the same
        preset and seed as the one snapshotted (its stream states are
        overwritten wholesale), and ``scenario`` must be the same
        scenario. The injected ``metrics`` registry, if any, is ignored
        for the resumed stats: the snapshot's registry is restored so
        cumulative counters continue exactly.
        """
        if snap.kind != RUNNER_SNAPSHOT_KIND:
            raise ValueError(
                f"cannot resume a {snap.kind!r} snapshot on a "
                f"ScenarioRunner (need {RUNNER_SNAPSHOT_KIND!r})")
        payload = snap.payload
        if float(payload["quantum_s"]) != self.quantum_s:
            raise ValueError(
                f"snapshot was taken at quantum_s="
                f"{payload['quantum_s']}, runner has {self.quantum_s}")
        names = {f.name for f in scenario.flows}
        if names != set(payload["flows"]):
            raise ValueError(
                "snapshot flow set does not match the scenario: "
                f"snapshot has {sorted(payload['flows'])}, scenario "
                f"has {sorted(names)}")
        restore_streams(self.testbed.streams, payload["streams"])
        restore_cache(self._capacity_cache, payload["cache"])
        self.stats = RunnerStats(
            cache=self._capacity_cache.stats,
            registry=MetricsRegistry.from_dict(payload["registry"]))
        results = {}
        for flow in scenario.flows:
            state = payload["flows"][flow.name]
            results[flow.name] = FlowResult(
                request=flow,
                delivered_bytes=state["delivered_bytes"],
                active_time_s=state["active_time_s"],
                completed_at=state["completed_at"],
                starved_quanta=int(state["starved_quanta"]))
        self._paused = None
        return self._loop(scenario, results, payload["t0"],
                          payload["t"], payload["deadline"], until_s)

    def _done(self, result: FlowResult, flow: FlowRequest,
              t: float) -> bool:
        if result.finished:
            return True
        if flow.kind in ("saturated", "cbr"):
            if t >= flow.start_s + flow.duration_s:
                result.completed_at = flow.start_s + flow.duration_s
                return True
        return False

    @staticmethod
    def _media(flow: FlowRequest) -> Tuple[str, ...]:
        return constituent_media(flow.medium)

    # --- one quantum --------------------------------------------------------------

    def _step(self, active: List[FlowRequest],
              results: Dict[str, FlowResult], t: float) -> None:
        with self.profiler.stage("runner.allocate"):
            airtime, rates, fidx, didx, members, domain_names = (
                self._allocate(active, t))
        n_flows = len(active)
        totals = np.bincount(fidx, weights=rates, minlength=n_flows)
        self._account(n_flows, airtime, didx, members, domain_names, t)
        tracer = self.tracer
        # Book the quantum.
        for i, flow in enumerate(active):
            result = results[flow.name]
            rate = float(totals[i])
            moved = rate * self.quantum_s / 8.0
            if flow.kind == "file" and flow.size_bytes is not None:
                remaining = flow.size_bytes - result.delivered_bytes
                if moved >= remaining:
                    fraction = remaining / moved if moved > 0 else 0.0
                    result.delivered_bytes = flow.size_bytes
                    result.active_time_s += self.quantum_s * fraction
                    result.completed_at = t + self.quantum_s * fraction
                    if tracer.enabled:
                        tracer.event("runner.flow_done",
                                     result.completed_at,
                                     flow=flow.name,
                                     bytes=float(flow.size_bytes))
                    continue
            result.delivered_bytes += moved
            result.active_time_s += self.quantum_s
            if rate <= 0:
                result.starved_quanta += 1
                self.stats.note_starved()
                if tracer.enabled:
                    tracer.event("runner.flow_starved", t, flow=flow.name)

    def _allocate(self, active: List[FlowRequest], t: float):
        """Two-pass airtime allocation over all (flow, medium) pairs.

        Returns per-pair arrays (airtime fractions, rates in bps, flow
        indices, domain indices), the pair count per domain, and the
        domain name list.
        """
        pair_flow: List[int] = []
        pair_domain: List[int] = []
        caps_list: List[float] = []
        domain_ids: Dict[str, int] = {}
        with self.profiler.stage("runner.capacity_lookup"):
            for i, flow in enumerate(active):
                for medium in self._media(flow):
                    pair_flow.append(i)
                    domain = self._domain(flow, medium)
                    pair_domain.append(
                        domain_ids.setdefault(domain, len(domain_ids)))
                    caps_list.append(self._link_capacity(flow, medium, t))
        fidx = np.asarray(pair_flow, dtype=np.intp)
        didx = np.asarray(pair_domain, dtype=np.intp)
        caps = np.asarray(caps_list, dtype=float)
        n_domains = len(domain_ids)
        # Pass 1: equal airtime shares per domain.
        members = np.bincount(didx, minlength=n_domains)
        airtime = 1.0 / members[didx]
        rates = caps * airtime
        # Pass 2: CBR flows cap at their offered rate. A capped flow keeps
        # only the airtime fraction it needs on *each* of its media and
        # returns the rest to that medium's domain — returning airtime
        # (not bits) and splitting per medium keeps every domain's total
        # at 1, where the old code credited a hybrid flow's full excess
        # to both domains at once.
        totals = np.bincount(fidx, weights=rates, minlength=len(active))
        spare = np.zeros(n_domains)
        for i, flow in enumerate(active):
            if (flow.kind != "cbr" or flow.rate_bps is None
                    or totals[i] <= flow.rate_bps):
                continue
            mask = fidx == i
            keep = flow.rate_bps / totals[i]
            np.add.at(spare, didx[mask], airtime[mask] * (1.0 - keep))
            airtime[mask] *= keep
            rates[mask] *= keep
        if spare.any():
            greedy_pair = np.array(
                [active[i].kind != "cbr" for i in pair_flow], dtype=bool)
            greedy_members = np.bincount(didx[greedy_pair],
                                         minlength=n_domains)
            bonus = np.divide(spare, greedy_members,
                              out=np.zeros(n_domains),
                              where=greedy_members > 0)
            extra = bonus[didx] * greedy_pair
            airtime = airtime + extra
            rates = rates + extra * caps
        domain_names = [None] * n_domains
        for name, k in domain_ids.items():
            domain_names[k] = name
        return airtime, rates, fidx, didx, members, domain_names

    def _account(self, n_flows: int, airtime: np.ndarray,
                 didx: np.ndarray, members: np.ndarray,
                 domain_names: List[str], t: float) -> None:
        """Record per-domain load and utilisation and check work
        conservation."""
        stats = self.stats
        tracer = self.tracer
        stats.note_quantum()
        stats.note_load(n_flows, members, domain_names, t)
        used = np.bincount(didx, weights=airtime,
                           minlength=len(domain_names))
        for k, name in enumerate(domain_names):
            stats.add_domain_airtime(name, float(used[k]))
        if tracer.enabled:
            tracer.event("runner.quantum", t,
                         domains={name: round(float(used[k]), 9)
                                  for k, name in enumerate(domain_names)})
        peak = float(used.max()) if len(used) else 0.0
        stats.note_peak_airtime(peak, t)
        if peak > 1.0 + self.invariant_epsilon:
            stats.note_violation()
            worst = domain_names[int(np.argmax(used))]
            if tracer.enabled:
                tracer.event("runner.violation", t, domain=worst,
                             airtime=peak)
            if self.check_invariants:
                raise WorkConservationError(
                    f"domain {worst} allocated {peak:.6f} airtime at "
                    f"t={t:.3f} (> 1 + {self.invariant_epsilon})")
