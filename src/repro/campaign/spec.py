"""Experiment specs: the unit of work the campaign engine fans out.

A spec is a *description* — task kind, testbed preset name, world seed and a
flat parameter mapping — never a built object. Descriptions pickle cheaply
across the process-pool boundary and serialise canonically into artifacts,
and every worker rebuilds an identical world from them, which is what makes
campaign results independent of worker count.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.sim.random import derive_seed
from repro.testbed.presets import resolve_testbed_preset
from repro.wire import dumps_compact

#: Parameter values must round-trip JSON exactly: scalars only (or tuples of
#: scalars, stored as tuples for hashability, serialised as lists).
_SCALARS = (str, int, float, bool, type(None))


def _freeze_value(value: Any) -> Any:
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    raise TypeError(f"spec parameter values must be JSON scalars or "
                    f"lists of them, got {type(value).__name__}")


def _thaw_value(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_thaw_value(v) for v in value]
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """One task of a campaign: kind × preset × seed × parameters."""

    kind: str
    preset: str
    seed: int
    params: Tuple[Tuple[str, Any], ...] = field(default=())

    @classmethod
    def make(cls, kind: str, preset: str, seed: int,
             **params: Any) -> "ExperimentSpec":
        """Build a spec, normalising the parameter mapping.

        Parameters are stored sorted by name so two specs with the same
        content are equal (and hash equal) regardless of construction
        order, and the task key below is stable.
        """
        frozen = tuple(sorted((k, _freeze_value(v))
                              for k, v in params.items()))
        return cls(kind=kind, preset=preset, seed=int(seed), params=frozen)

    @property
    def params_dict(self) -> Dict[str, Any]:
        return {k: _thaw_value(v) for k, v in self.params}

    # --- identity ------------------------------------------------------------

    def canonical_json(self) -> str:
        """Canonical serialised form (sorted keys, no whitespace)."""
        return dumps_compact(self.to_dict())

    def task_key(self) -> str:
        """Stable, unique, human-scannable identity of this task.

        The readable prefix names kind/preset/seed; the digest covers the
        full canonical spec, so any parameter change yields a new key.
        Resume logic and artifact dedup key on this string.
        """
        digest = hashlib.sha256(
            self.canonical_json().encode("utf-8")).hexdigest()[:12]
        return f"{self.kind}/{self.preset}/s{self.seed}/{digest}"

    def task_seed(self) -> int:
        """Per-task seed for task-local randomness.

        Derived with :func:`repro.sim.random.derive_seed` from the spec's
        world seed and its task key — a pure function of the spec, so it is
        identical in every worker, at every worker count, on every resume.
        """
        return derive_seed(self.seed, self.task_key())

    # --- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "preset": self.preset,
                "seed": self.seed, "params": self.params_dict}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        return cls.make(kind=data["kind"], preset=data["preset"],
                        seed=data["seed"], **dict(data.get("params", {})))


def check_specs(specs: Sequence[ExperimentSpec]) -> None:
    """Validate a spec list before a run: presets known, task keys unique."""
    seen: Dict[str, ExperimentSpec] = {}
    for spec in specs:
        resolve_testbed_preset(spec.preset)
        key = spec.task_key()
        if key in seen:
            raise ValueError(f"duplicate task key {key!r} "
                             f"({spec} vs {seen[key]})")
        seen[key] = spec


# --- grid builders ------------------------------------------------------------


def spec_grid(kind: str, presets: Iterable[str], seeds: Iterable[int],
              param_grid: Optional[Mapping[str, Sequence[Any]]] = None,
              **fixed: Any) -> List[ExperimentSpec]:
    """Cartesian product of presets × seeds × parameter axes.

    ``param_grid`` maps parameter names to the values each should sweep;
    ``fixed`` parameters are attached to every spec unchanged.
    """
    axes = sorted((param_grid or {}).items())
    names = [n for n, _ in axes]
    combos = itertools.product(*(values for _, values in axes)) \
        if axes else [()]
    specs: List[ExperimentSpec] = []
    for combo in combos:
        swept = dict(zip(names, combo))
        for preset in presets:
            for seed in seeds:
                specs.append(ExperimentSpec.make(
                    kind, preset, seed, **fixed, **swept))
    return specs


def survey_specs(preset: str, seeds: Iterable[int],
                 pairs: Iterable[Tuple[int, int]],
                 day: int = 2, hour: float = 14.0,
                 duration_s: float = 30.0,
                 interval_s: float = 1.0) -> List[ExperimentSpec]:
    """One ``survey_pair`` task per (seed, directed pair)."""
    return [
        ExperimentSpec.make(
            "survey_pair", preset, seed, src=int(i), dst=int(j),
            day=day, hour=hour, duration_s=duration_s,
            interval_s=interval_s)
        for seed in seeds for i, j in pairs
    ]


def scenario_specs(preset: str, seeds: Iterable[int],
                   scenarios: Iterable[str],
                   day: int = 2, hour: float = 14.0,
                   horizon_s: float = 900.0) -> List[ExperimentSpec]:
    """One ``scenario`` task per (seed, library scenario name)."""
    return [
        ExperimentSpec.make("scenario", preset, seed, scenario=name,
                            day=day, hour=hour, horizon_s=horizon_s)
        for seed in seeds for name in scenarios
    ]
