"""The campaign compile plane: content-addressed testbed compilation.

The paper's year-long measurement study becomes, in this reproduction, a
campaign of thousands of near-identical tasks over a handful of worlds.
Before this module every task kind rebuilt its world from scratch —
grid topology, Zimmermann transfer functions, appliance activity — even
when N tasks shared the same ``(preset, seed)``. The compile plane splits
that cost off the execute plane:

* :func:`compile_testbed` turns ``(preset, seed)`` into an immutable
  :class:`CompiledTestbed`: a fully built template testbed whose
  deterministic state (electrical load memoisation, PLC/WiFi channel
  caches) accretes as links are resolved, content-addressed by the
  canonical hash of the resolved preset description, the seed and the
  compile format version;
* :func:`compiled_testbed` serves compilations from a process-wide
  :class:`repro.cache.WindowedLruCache`, so N tasks sharing a testbed
  build it once — and under the POSIX-default ``fork`` start method a
  pool worker inherits the parent's warm cache read-only;
* :func:`checkout_testbed` — the one call task executors make — hands
  each task a private :meth:`CompiledTestbed.instantiate` view:
  fresh derived seed streams and fresh link facades over the shared
  compiled state, bit-identical to a from-scratch build.

Everything here publishes ``compile.*`` counters into
:func:`repro.obs.global_registry`.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.cache import WindowedLruCache
from repro.obs.clock import SystemClock
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.testbed.builder import Testbed, build_preset_testbed  # noqa: TID251 — the compile plane owns the one legit scratch-build site
from repro.testbed.presets import resolve_testbed_preset
from repro.wire import dumps_compact

#: Bumped whenever the build recipe changes meaning: the version is part
#: of every fingerprint, so stale cross-process cache reuse (e.g. a
#: memory-mapped future format) can never serve an old-world testbed.
COMPILE_FORMAT_VERSION = 1

#: Distinct worlds a process keeps compiled at once. Campaigns sweep a
#: handful of ``(preset, seed)`` pairs but fuzzers sweep many seeds; LRU
#: keeps the working set without letting a seed sweep hold every world.
COMPILE_CACHE_ENTRIES = 16

#: Worker-local clock for compile *durations* (never epochs).
_BUILD_CLOCK = SystemClock()


def testbed_fingerprint(preset_name: str) -> str:
    """Canonical content hash of everything a build depends on.

    Covers the *resolved* preset — vendor, chip, full PHY spec, station
    subset — plus the compile format version, not just the preset's name:
    two presets that resolve to identical worlds share compilations, and
    editing a preset in place invalidates its cache entries.
    """
    preset = resolve_testbed_preset(preset_name)
    material = {
        "format": COMPILE_FORMAT_VERSION,
        "vendor": preset.vendor.name,
        "chip": preset.vendor.chip,
        "overreact_to_bursts": preset.vendor.overreact_to_bursts,
        "spec": asdict(preset.vendor.spec),
        "stations": list(preset.stations) if preset.stations else None,
    }
    return hashlib.sha256(
        dumps_compact(material).encode("utf-8")).hexdigest()


@dataclass(frozen=True, eq=False)
class CompiledTestbed:
    """An immutable, shareable compilation of one ``(preset, seed)`` world.

    The wrapped template testbed is **never handed to a task**: tasks get
    :meth:`instantiate` views whose monotonic randomness (measurement
    noise, estimator jitter) is private, while the template's
    deterministic caches — electrical distances, channel structure, tone
    maps' SNR state — are shared by reference. The template's own caches
    fill lazily as instantiated views resolve links, so a compilation
    gets *warmer* over a campaign without ever changing a result byte.
    """

    preset: str
    seed: int
    fingerprint: str
    template: Testbed

    @property
    def cache_key(self) -> str:
        """The content address: preset/seed/fingerprint digest."""
        return f"{self.preset}/s{self.seed}/{self.fingerprint[:12]}"

    def instantiate(self,
                    metrics: Optional[MetricsRegistry] = None) -> Testbed:
        """A private fresh-RNG checkout of the compiled world.

        Bit-identical to ``build_preset_testbed(preset, seed=seed)`` —
        the compile plane's core contract, enforced by
        ``tests/test_compile.py`` and the backend-equivalence oracle.
        """
        reg = metrics if metrics is not None else global_registry()
        reg.inc("compile.instantiations")
        return self.template.fork()

    def warm_links(self, pairs: Optional[Sequence[Tuple[int, int]]] = None,
                   media: Iterable[str] = ("plc", "wifi")) -> int:
        """Pre-resolve channel state for ``pairs`` into the shared caches.

        ``pairs=None`` warms every directed same-board pair. Returns the
        number of channels resolved. Useful before forking a worker pool:
        the parent's warmed channel caches are inherited read-only by
        every child.
        """
        world = self.template
        if pairs is None:
            pairs = world.same_board_pairs()
        resolved = 0
        for medium in media:
            for i, j in pairs:
                if medium == "plc":
                    if not world.same_board(i, j):
                        continue
                    network = world.networks[world.board_of(i)]
                    network.channel(str(i), str(j))
                elif medium == "wifi":
                    world.wifi_link(i, j)
                else:
                    world.link(medium, i, j)
                resolved += 1
        return resolved


# --- the process-wide compile cache -------------------------------------------

#: ``WindowedLruCache`` used as a pure LRU: compilations are timeless, so
#: every lookup pins ``t=0`` and entries only ever leave by LRU eviction.
_cache = WindowedLruCache(window_s=1.0, max_entries=COMPILE_CACHE_ENTRIES)
_cache_lock = threading.Lock()
_cache_enabled = True


def compile_cache() -> WindowedLruCache:
    """The process-wide compilation cache (exposed for tests/benchmarks)."""
    return _cache


def reset_compile_cache() -> None:
    """Drop every cached compilation (the cache's stats survive)."""
    with _cache_lock:
        _cache.clear()


@contextmanager
def compile_cache_disabled():
    """Bypass the cache: every checkout compiles from scratch.

    This is the pre-compile-plane behaviour — benchmarks use it as the
    *cold* baseline, and the differential oracles use it to show caching
    never moves a byte.
    """
    global _cache_enabled
    previous = _cache_enabled
    _cache_enabled = False
    try:
        yield
    finally:
        _cache_enabled = previous


def compile_testbed(preset: str, seed: int = 7,
                    metrics: Optional[MetricsRegistry] = None
                    ) -> CompiledTestbed:
    """Compile one world, bypassing the cache (the pure build)."""
    reg = metrics if metrics is not None else global_registry()
    fingerprint = testbed_fingerprint(preset)
    t0 = _BUILD_CLOCK.now()
    template = build_preset_testbed(preset, seed=seed)
    reg.inc("compile.builds")
    reg.inc("compile.build_seconds", _BUILD_CLOCK.now() - t0)
    return CompiledTestbed(preset=preset, seed=int(seed),
                           fingerprint=fingerprint, template=template)


def compiled_testbed(preset: str, seed: int = 7,
                     metrics: Optional[MetricsRegistry] = None
                     ) -> CompiledTestbed:
    """Compile through the process-wide content-addressed cache.

    Thread-safe (the ``thread`` execution backend shares this cache
    across workers); the lock also makes the build single-flight, so
    concurrent first checkouts of one world compile it once.
    """
    reg = metrics if metrics is not None else global_registry()
    fingerprint = testbed_fingerprint(preset)
    if not _cache_enabled:
        reg.inc("compile.cache.bypasses")
        return compile_testbed(preset, seed, metrics=reg)
    key = (preset, int(seed), fingerprint)
    with _cache_lock:
        hits_before = _cache.stats.hits
        evictions_before = _cache.stats.evictions
        compiled = _cache.get(
            key, 0.0,
            lambda: compile_testbed(preset, seed, metrics=reg))
        if _cache.stats.hits > hits_before:
            reg.inc("compile.cache.hits")
        else:
            reg.inc("compile.cache.misses")
        evicted = _cache.stats.evictions - evictions_before
        if evicted:
            reg.inc("compile.cache.evictions", evicted)
    return compiled


def checkout_testbed(preset: str, seed: int = 7,
                     metrics: Optional[MetricsRegistry] = None) -> Testbed:
    """What task executors call: a private view of the cached world.

    One line replaces ``build_preset_testbed(spec.preset, spec.seed)``
    in every task kind — same bytes out, one build per distinct
    ``(preset, seed, fingerprint)`` per process instead of one per task.
    """
    return compiled_testbed(preset, seed, metrics=metrics).instantiate(
        metrics=metrics)


def precompile_specs(specs: Iterable, metrics: Optional[MetricsRegistry]
                     = None) -> int:
    """Warm the cache for every distinct world a spec list will need.

    Called by the campaign engine before starting a pooled backend, so
    forked workers inherit the compiled templates read-only instead of
    each building their own. Only kinds that declare
    ``uses_testbed=True`` at registration count — an ``rng_probe``
    campaign compiles nothing. Returns the number of worlds compiled or
    touched.
    """
    from repro.campaign.tasks import task_uses_testbed

    worlds: Dict[Tuple[str, int], None] = {}
    for spec in specs:
        if task_uses_testbed(spec.kind):
            worlds.setdefault((spec.preset, spec.seed))
    for preset, seed in worlds:
        compiled_testbed(preset, seed, metrics=metrics)
    return len(worlds)
