"""Benchmark specs and the process-wide benchmark registry.

A :class:`BenchmarkSpec` is to the bench plane what an
``ExperimentSpec`` is to the campaign plane: a declarative description
of one measurement — a name, a lazy ``setup``, the timed ``fn``, how
many warmup passes to discard and how many repeats to record. Domain
modules under :mod:`repro.bench.domains` register their specs at import
time; the runner, the manifest-completeness test and the ``repro bench``
CLI all read the same registry, so a benchmark cannot exist without
being runnable, comparable and trajectory-tracked.

Timing discipline: benchmark bodies never touch ``time.perf_counter``
directly (the TID251 ban holds in ``src/``). They receive a
:class:`BenchContext` whose clock is injected by the runner — the
production :class:`~repro.obs.clock.SystemClock` normally, a
:class:`~repro.obs.clock.FakeClock` in tests, which is what makes the
regression-gate tests deterministic instead of sleep-and-hope.
"""

from __future__ import annotations

import difflib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

from repro.obs.clock import Clock, DEFAULT_CLOCK

#: Default repeat schedule: enough samples for a min-of-repeats and a
#: bootstrap band, few enough that `repro bench run --all` stays a
#: minutes-scale job.
DEFAULT_REPEATS = 5
DEFAULT_WARMUP = 1


class BenchContext:
    """What a benchmark body gets: an injected clock."""

    __slots__ = ("clock",)

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock or DEFAULT_CLOCK


#: A benchmark body: ``fn(ctx, state) -> optional {metric: number}``.
#: ``state`` is whatever ``setup`` returned (``None`` without a setup).
BenchFn = Callable[[BenchContext, Any], Optional[Mapping[str, float]]]


@dataclass
class BenchmarkSpec:
    """One registered benchmark.

    ``name`` is dotted ``<domain>.<rest>`` (``medium.plc.sample_series``);
    the leading segment is the benchmark's domain and groups it in
    reports. ``setup`` builds expensive shared state exactly once per
    run, *outside* the timed region. ``figure`` links the benchmark to
    the paper artefact whose regeneration cost it tracks.
    """

    name: str
    fn: BenchFn
    setup: Optional[Callable[[], Any]] = None
    repeats: int = DEFAULT_REPEATS
    warmup: int = DEFAULT_WARMUP
    tags: Tuple[str, ...] = ()
    figure: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or "." not in self.name:
            raise ValueError(
                f"benchmark name must be dotted '<domain>.<rest>', "
                f"got {self.name!r}")
        if self.repeats < 1:
            raise ValueError(f"{self.name}: repeats must be >= 1")
        if self.warmup < 0:
            raise ValueError(f"{self.name}: warmup must be >= 0")
        self.tags = tuple(self.tags)

    @property
    def domain(self) -> str:
        return self.name.split(".", 1)[0]


# --- the registry -------------------------------------------------------------

_REGISTRY: Dict[str, BenchmarkSpec] = {}

#: Smoke checks: generous *absolute* floors evaluated over a whole run
#: document (so a check can relate two benchmarks, e.g. a scalar/batch
#: speedup). ``fn(doc) -> iterable of violation messages``; empty means
#: the floor holds. Real regression gating is baseline-relative
#: (:mod:`repro.bench.compare`); these only catch catastrophic breakage
#: on machines with no baseline affinity.
_SMOKE_CHECKS: Dict[str, Callable[[Any], Iterable[str]]] = {}


def register_benchmark(spec: BenchmarkSpec) -> BenchmarkSpec:
    """Add ``spec`` to the registry (duplicate names are a bug)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"benchmark {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def benchmark(name: str, **kwargs) -> Callable[[BenchFn], BenchFn]:
    """Decorator form: ``@benchmark("medium.plc.sample_series", ...)``."""
    def deco(fn: BenchFn) -> BenchFn:
        register_benchmark(BenchmarkSpec(name=name, fn=fn, **kwargs))
        return fn
    return deco


def register_smoke(name: str,
                   fn: Callable[[Any], Iterable[str]]) -> None:
    """Register a named document-level smoke check (absolute floor)."""
    if name in _SMOKE_CHECKS:
        raise ValueError(f"smoke check {name!r} is already registered")
    _SMOKE_CHECKS[name] = fn


def smoke_checks() -> Dict[str, Callable[[Any], Iterable[str]]]:
    return dict(_SMOKE_CHECKS)


def get_benchmark(name: str) -> BenchmarkSpec:
    """Look up one benchmark; unknown names get a did-you-mean hint."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = sorted(_REGISTRY)
        close = difflib.get_close_matches(name, known, n=3)
        hint = f" (did you mean {', '.join(close)}?)" if close else ""
        raise KeyError(
            f"unknown benchmark {name!r}{hint}; known: "
            f"{', '.join(known) or '<none registered>'}") from None


def benchmark_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def iter_benchmarks() -> Tuple[BenchmarkSpec, ...]:
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def unregister_benchmark(name: str) -> None:
    _REGISTRY.pop(name, None)
    _SMOKE_CHECKS.pop(name, None)


@contextmanager
def temporary_benchmark(spec: BenchmarkSpec,
                        smoke: Optional[Callable[[Any], Iterable[str]]]
                        = None) -> Iterator[BenchmarkSpec]:
    """Register ``spec`` (and optionally a same-named smoke check) for
    the duration of a ``with`` block — test isolation for harness
    tests that must not leak stubs into the real manifest."""
    register_benchmark(spec)
    if smoke is not None:
        register_smoke(spec.name, smoke)
    try:
        yield spec
    finally:
        unregister_benchmark(spec.name)


_DEFAULTS_LOADED = False


def load_default_benchmarks() -> Tuple[str, ...]:
    """Import every domain module so its specs register (idempotent).

    Returns the registered names. Domain modules keep import-time work
    trivial — testbeds compile lazily inside each spec's ``setup``.
    """
    global _DEFAULTS_LOADED
    if not _DEFAULTS_LOADED:
        from repro.bench import domains  # noqa: F401 — import-for-effect
        domains.load_all()
        _DEFAULTS_LOADED = True
    return benchmark_names()
