"""The parallel campaign engine: the *policy* half of the campaign path.

Fans a list of :class:`ExperimentSpec` out across an
:class:`~repro.campaign.backends.ExecutionBackend` and collects
artifacts, with:

* **deterministic seeding** — every task's world is a pure function of its
  spec (`seed` + :meth:`ExperimentSpec.task_seed`), so artifacts are
  bit-identical at any worker count *and any backend* (inline, process
  at any chunk size, thread — see :mod:`repro.campaign.backends`);
* **per-task timeout and retry** — failed or timed-out attempts are
  resubmitted with exponential backoff, up to ``retries`` times;
* **a circuit breaker** — more than ``max_failures`` permanently failed
  tasks abort the campaign (completed artifacts survive for resume);
* **resume** — specs whose task keys already sit in the artifact file are
  skipped, so an interrupted campaign continues where it stopped;
* **precompile** — distinct testbed worlds the spec list needs are
  compiled into the :mod:`repro.compile` cache before the backend
  starts, so (fork-started) pool workers inherit them read-only.

The engine never touches an executor directly: it submits batches,
waits on futures, and applies policy to the outcomes. Mechanism —
pools, chunking, IPC — lives entirely in the backend.

**Clock discipline.** Every engine-side epoch — the run's wall-clock
span, retry-heap deadlines, timeout expiry, wait budgets — is read from
ONE injected :class:`repro.obs.Clock`, so they are mutually comparable
and a :class:`repro.obs.FakeClock` makes the retry/backoff/breaker logic
deterministically testable. Workers time their tasks on their own clock
and report only the *duration* (``elapsed_s``); durations may cross the
process boundary, epochs never do.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.campaign.artifacts import (
    ArtifactWriter,
    QuarantineEntry,
    QuarantineWriter,
    TaskArtifact,
    quarantine_path_for,
)
from repro.campaign.backends import BACKEND_NAMES, create_backend
from repro.campaign.spec import (
    ExperimentSpec,
    check_specs,
    scenario_specs,
    survey_specs,
)
from repro.campaign.stats import CampaignStats, TaskFailure
from repro.campaign.tasks import validate_task_params
from repro.obs.clock import Clock, SystemClock
from repro.obs.metrics import global_registry
from repro.obs.trace import trace_path_for, write_trace

ProgressFn = Callable[[str, str, CampaignStats], None]


class CampaignAborted(RuntimeError):
    """The circuit breaker opened: too many tasks failed permanently."""


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of one campaign run."""

    #: 0 = inline (no pool, timeouts not enforced); N >= 1 = process pool.
    workers: int = 1
    #: Wall-clock budget per attempt; ``None`` disables the check.
    timeout_s: Optional[float] = None
    #: Re-submissions allowed per task after its first attempt.
    retries: int = 2
    #: Backoff before retry k is ``min(cap, base * 2**k)`` seconds.
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: Permanently failed tasks tolerated before aborting the campaign.
    max_failures: int = 0
    #: Quarantine poison tasks: a spec that exhausts its retries lands in
    #: a ``<name>.quarantine.jsonl`` sidecar (canonical, sorted, byte-
    #: identical at any worker count) instead of counting against
    #: ``max_failures`` — one deterministic bad task no longer aborts the
    #: unrelated 99% of a campaign.
    quarantine: bool = False
    resume: bool = True
    #: Collect each task's sim-time trace events and write them to a
    #: ``<out>.trace.jsonl`` sidecar at finalize. Never touches the
    #: result artifact: its bytes are identical with tracing on or off,
    #: and the sidecar itself is canonical at any worker count.
    trace: bool = False
    #: Execution mechanism (see :mod:`repro.campaign.backends`).
    #: ``auto`` = ``inline`` when ``workers == 0``, else ``process``.
    backend: str = "auto"
    #: Specs per round-trip for the ``process`` backend.
    chunk_size: int = 1
    #: Compile the spec list's distinct testbed worlds into the process-
    #: wide cache before the backend starts (fork-inherited by workers).
    precompile: bool = True
    #: Time-sliced execution: split every ``scenario`` task whose horizon
    #: exceeds this many simulated seconds into chained slices — each
    #: slice checkpoints the simulation world (``repro.snapshot``) and
    #: the next one restores it. Slicing pipelines long tasks across
    #: workers and makes them crash-resumable mid-task, while the
    #: finalized artifact stays byte-identical to a straight run (the
    #: ``diff_slice_equivalence`` oracle enforces this). ``None``
    #: disables slicing.
    slice_horizon_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r} "
                f"(known: {', '.join(BACKEND_NAMES)})")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.slice_horizon_s is not None and self.slice_horizon_s <= 0:
            raise ValueError("slice horizon must be positive")


class CampaignEngine:
    """Run a spec list to a finalized artifact file."""

    def __init__(self, specs: Sequence[ExperimentSpec],
                 out_path: Union[str, Path], name: str = "campaign",
                 config: EngineConfig = EngineConfig(),
                 progress: Optional[ProgressFn] = None,
                 clock: Optional[Clock] = None):
        check_specs(specs)
        # Fail fast on misspelled parameters for kinds whose schema is
        # already registered; unknown kinds still fail at execution time
        # (workers import plugin kinds the engine may not have loaded).
        for spec in specs:
            validate_task_params(spec.kind, spec.params_dict)
        self.specs = list(specs)
        self.out_path = Path(out_path)
        self.name = name
        self.config = config
        self.progress = progress or (lambda event, detail, stats: None)
        #: The single source of engine-side epochs (see module docstring);
        #: tests inject a FakeClock here to drive retries and timeouts.
        self.clock: Clock = clock if clock is not None else SystemClock()
        seeds = {s.seed for s in self.specs}
        self._root_seed = seeds.pop() if len(seeds) == 1 else None
        self._quarantine: Optional[QuarantineWriter] = None
        #: task_key -> sim-time trace events, gathered when tracing.
        self._traces: Dict[str, List[Dict[str, object]]] = {}
        #: slice task_key -> {"spec": original spec, "num_slices": K}
        #: for every in-play slice of a time-sliced scenario task.
        self._slice_origins: Dict[str, Dict[str, object]] = {}

    @property
    def quarantine_path(self) -> Path:
        """Where poison tasks land when quarantine is enabled."""
        return quarantine_path_for(self.out_path)

    @property
    def trace_path(self) -> Path:
        """Where the sim-time event trace lands when tracing is enabled."""
        return trace_path_for(self.out_path)

    # --- public API -----------------------------------------------------------

    def run(self) -> CampaignStats:
        """Execute all pending specs; returns the run's statistics.

        Raises :class:`CampaignAborted` when the circuit breaker opens;
        artifacts completed before the abort remain on disk and a rerun
        resumes from them.
        """
        start = self.clock.now()
        cfg = self.config
        stats = CampaignStats(total_specs=len(self.specs),
                              workers=max(1, cfg.workers))
        writer = ArtifactWriter(self.out_path, name=self.name,
                                root_seed=self._root_seed,
                                resume=cfg.resume)
        self._quarantine = (QuarantineWriter(self.out_path,
                                             name=self.name,
                                             resume=cfg.resume)
                            if cfg.quarantine else None)
        self._traces = {}
        try:
            done_keys = writer.completed_keys()
            pending = [s for s in self.specs
                       if s.task_key() not in done_keys]
            if len(self.specs) > len(pending):
                stats.note_resumed(len(self.specs) - len(pending))
                self.progress("resumed", f"{stats.resumed} tasks", stats)
            pending = self._expand_slices(pending)
            if cfg.precompile and pending:
                # Before the backend exists: a fork-started pool spawned
                # after this point inherits the compiled worlds.
                from repro.compile import precompile_specs
                precompile_specs(pending)
            backend = create_backend(cfg.backend, cfg.workers,
                                     cfg.chunk_size)
            global_registry().inc(f"backend.selected.{backend.name}")
            self._run_backend(pending, writer, stats, backend)
            writer.finalize()
            if self._quarantine is not None:
                self._quarantine.finalize(writer.completed_keys())
            if cfg.trace:
                write_trace(self.trace_path, self._traces,
                            name=self.name)
        finally:
            writer.close()
            stats.set_wall_seconds(self.clock.now() - start)
            stats.check_accounting()
        return stats

    # --- time-sliced execution ------------------------------------------------

    def _expand_slices(self, pending: Sequence[ExperimentSpec]
                       ) -> List[ExperimentSpec]:
        """Replace sliceable ``scenario`` specs with their first slice.

        A spec is sliceable when ``slice_horizon_s`` is configured and
        its horizon spans more than one slice. Later slices are enqueued
        by :meth:`_finish_result` as each checkpoint lands. Crash
        resume: if a valid checkpoint chain for the same slicing plan
        already sits in the snapshot store, the expansion starts at the
        slice *after* the newest checkpoint instead of at 0.
        """
        import math

        cfg = self.config
        if cfg.slice_horizon_s is None:
            return list(pending)
        from repro.snapshot.store import SnapshotStore, snapshot_dir_for

        store = SnapshotStore(snapshot_dir_for(self.out_path))
        expanded: List[ExperimentSpec] = []
        for spec in pending:
            horizon = float(spec.params_dict.get("horizon_s", 900.0)) \
                if spec.kind == "scenario" else 0.0
            num_slices = (math.ceil(horizon / cfg.slice_horizon_s)
                          if horizon > 0 else 0)
            if spec.kind != "scenario" or num_slices <= 1:
                expanded.append(spec)
                continue
            start = self._resume_slice_index(store, spec, num_slices)
            slice_spec = self._slice_spec(spec, start, num_slices)
            self._slice_origins[slice_spec.task_key()] = {
                "spec": spec, "num_slices": num_slices}
            expanded.append(slice_spec)
        return expanded

    def _slice_spec(self, original: ExperimentSpec, index: int,
                    num_slices: int) -> ExperimentSpec:
        from repro.snapshot.store import snapshot_dir_for

        params = dict(original.params_dict)
        params.update(
            slice_index=index, num_slices=num_slices,
            slice_horizon_s=float(self.config.slice_horizon_s),
            store=str(snapshot_dir_for(self.out_path)),
            original_key=original.task_key())
        return ExperimentSpec.make("scenario_slice", original.preset,
                                   original.seed, **params)

    def _resume_slice_index(self, store, original: ExperimentSpec,
                            num_slices: int) -> int:
        """First slice still to run, given checkpoints already on disk.

        Only checkpoints that load cleanly *and* belong to the same
        slicing plan count; anything corrupt, foreign or left over from
        a different ``--slice-horizon`` is ignored (the chain restarts
        at 0 rather than restoring the wrong world). A traced run also
        ignores untraced checkpoints, and continues only an unbroken
        prefix of traced ones: its final slice replays the trace
        segment of every earlier checkpoint."""
        from repro.campaign.tasks import slice_chain_mismatch, slice_plan

        cfg = self.config
        plan = slice_plan(original.params_dict.get("horizon_s", 900.0),
                          cfg.slice_horizon_s, num_slices)
        key = original.task_key()

        def usable(index: int) -> bool:
            if not store.path_for(key, index).exists():
                return False
            try:
                checkpoint = store.load(key, index)
            except (ValueError, OSError):
                return False
            return slice_chain_mismatch(checkpoint, plan,
                                        cfg.trace) is None

        if cfg.trace:
            index = 0
            while index < num_slices - 1 and usable(index):
                index += 1
            return index
        for index in range(num_slices - 2, -1, -1):
            if usable(index):
                return index + 1
        return 0

    def _finish_result(self, result: Dict[str, object], queue,
                       writer: ArtifactWriter,
                       stats: CampaignStats) -> None:
        """Record a successful payload, chaining slice continuations.

        Intermediate slices book their wall-clock into the accounting
        (``add_task_seconds``) but do not complete anything; the final
        slice is rewritten to the original task's identity before it is
        recorded, so the artifact carries no trace of the slicing."""
        origin = self._slice_origins.pop(result["task_key"], None)
        if origin is None:
            self._record_success(result, writer, stats)
            return
        control = result.get("control") or {}
        original: ExperimentSpec = origin["spec"]
        if control.get("slice_paused"):
            stats.add_task_seconds(float(result.get("elapsed_s", 0.0)))
            next_index = int(control["slice_index"]) + 1
            next_spec = self._slice_spec(original, next_index,
                                         origin["num_slices"])
            self._slice_origins[next_spec.task_key()] = origin
            queue.appendleft((next_spec, 0))
            self.progress(
                "slice",
                f"{original.task_key()} {next_index}/"
                f"{origin['num_slices']}", stats)
            return
        result = dict(result)
        result.pop("control", None)
        result["task_key"] = original.task_key()
        result["spec"] = original.to_dict()
        result["task_seed"] = original.task_seed()
        self._record_success(result, writer, stats)

    # --- shared bookkeeping ---------------------------------------------------

    def _record_success(self, payload: Dict[str, object],
                        writer: ArtifactWriter,
                        stats: CampaignStats) -> None:
        stats.add_task_seconds(float(payload.pop("elapsed_s", 0.0)))
        trace_events = payload.pop("trace", None)
        artifact = TaskArtifact(
            task_key=payload["task_key"], spec=payload["spec"],
            task_seed=payload["task_seed"],
            records=payload["records"], stats=payload["stats"])
        if trace_events is not None:
            self._traces[artifact.task_key] = trace_events
        writer.write(artifact)
        stats.note_completed()
        stats.merge_task_stats(artifact.stats)
        self.progress("done", artifact.task_key, stats)

    def _record_permanent_failure(self, spec: ExperimentSpec,
                                  attempts: int, error: str,
                                  stats: CampaignStats) -> None:
        failure = TaskFailure(task_key=spec.task_key(),
                              attempts=attempts, error=error)
        if self._quarantine is not None:
            stats.note_quarantined()
            stats.quarantine.append(failure)
            self._quarantine.add(QuarantineEntry(
                task_key=failure.task_key, spec=spec.to_dict(),
                attempts=attempts, error=error))
            self.progress("quarantine", failure.task_key, stats)
            return
        stats.note_failed()
        stats.failures.append(failure)
        self.progress("fail", spec.task_key(), stats)
        if stats.failed > self.config.max_failures:
            raise CampaignAborted(
                f"{stats.failed} tasks failed permanently "
                f"(max_failures={self.config.max_failures}); "
                f"last: {spec.task_key()}: {error}")

    def _backoff_s(self, attempt: int) -> float:
        return min(self.config.backoff_cap_s,
                   self.config.backoff_base_s * (2.0 ** attempt))

    # --- the policy loop (any backend) ----------------------------------------

    def _run_backend(self, pending: Sequence[ExperimentSpec],
                     writer: ArtifactWriter, stats: CampaignStats,
                     backend) -> None:
        """Drive ``backend`` over ``pending``, applying all policy.

        One loop serves every backend: the inline backend is a
        capacity-1 executor whose futures complete at submit time, the
        pools differ only in capacity and chunk size. Batches are the
        unit of flight; specs remain the unit of retry, timeout
        accounting and artifact ordering.
        """
        cfg = self.config
        reg = global_registry()
        queue = deque((spec, 0) for spec in pending)
        #: (ready_time, tiebreak, spec, attempt) — retries waiting out
        #: their backoff.
        retry_heap: List[Tuple[float, int, ExperimentSpec, int]] = []
        tiebreak = itertools.count()
        #: future -> ([(spec, attempt), ...], submitted_at).
        in_flight: Dict[object, Tuple[List[Tuple[ExperimentSpec, int]],
                                      float]] = {}
        abandoned = 0
        try:
            while queue or retry_heap or in_flight:
                now = self.clock.now()
                while retry_heap and retry_heap[0][0] <= now:
                    _, _, spec, attempt = heapq.heappop(retry_heap)
                    queue.appendleft((spec, attempt))
                # Keep at most ``capacity`` batches in flight so a
                # submitted batch starts ~immediately and its timeout
                # clock measures compute, not queueing.
                while queue and len(in_flight) < backend.capacity:
                    batch = [queue.popleft()
                             for _ in range(min(backend.chunk_size,
                                                len(queue)))]
                    future = backend.submit(
                        [(spec.to_dict(), attempt)
                         for spec, attempt in batch], cfg.trace)
                    in_flight[future] = (batch, now)
                    reg.inc("backend.batches")
                    reg.inc("backend.tasks", len(batch))
                wait_s = self._wait_budget(retry_heap, in_flight, now)
                if not in_flight:
                    self.clock.sleep(wait_s)
                    continue
                done, _ = wait(set(in_flight), timeout=wait_s,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    batch, _ = in_flight.pop(future)
                    error = future.exception()
                    if error is not None:
                        # Infrastructure failure (broken pool, unpickle-
                        # able payload): every member fails this attempt.
                        reg.inc("backend.infra_failures")
                        for spec, attempt in batch:
                            self._handle_failure(spec, attempt,
                                                 repr(error), retry_heap,
                                                 tiebreak, stats)
                        continue
                    for (spec, attempt), result in zip(batch,
                                                       future.result()):
                        task_error = result.get("error")
                        if task_error is not None:
                            self._handle_failure(spec, attempt,
                                                 task_error, retry_heap,
                                                 tiebreak, stats)
                        else:
                            self._finish_result(result, queue, writer,
                                                stats)
                abandoned += self._expire_timeouts(
                    in_flight, retry_heap, tiebreak, stats)
        except BaseException:
            backend.shutdown(wait=False, cancel_futures=True)
            raise
        # Timed-out attempts may still be running in the pool; don't
        # block campaign completion on them (the interpreter reaps the
        # stragglers at exit).
        backend.shutdown(wait=(abandoned == 0),
                         cancel_futures=(abandoned > 0))

    def _handle_failure(self, spec: ExperimentSpec, attempt: int,
                        error: str, retry_heap, tiebreak,
                        stats: CampaignStats) -> None:
        if attempt < self.config.retries:
            stats.note_retry()
            self.progress("retry", spec.task_key(), stats)
            # Same clock as the pool loop's ``now`` reads: the deadline
            # and its comparison share one epoch by construction.
            ready = self.clock.now() + self._backoff_s(attempt)
            heapq.heappush(retry_heap,
                           (ready, next(tiebreak), spec, attempt + 1))
        else:
            self._record_permanent_failure(spec, attempt + 1, error,
                                           stats)

    def _expire_timeouts(self, in_flight, retry_heap, tiebreak,
                         stats: CampaignStats) -> int:
        """Abandon in-flight batches past the attempt budget.

        The timeout is per *batch* submission (a batch is one attempt's
        worth of pool occupancy); every member of an expired batch is
        counted and retried individually.
        """
        if self.config.timeout_s is None:
            return 0
        now = self.clock.now()
        expired = [f for f, (_, submitted) in in_flight.items()
                   if now - submitted > self.config.timeout_s]
        for future in expired:
            batch, _ = in_flight.pop(future)
            future.cancel()  # a no-op if already running — we abandon it
            for spec, attempt in batch:
                stats.note_timeout()
                self.progress("timeout", spec.task_key(), stats)
                self._handle_failure(
                    spec, attempt,
                    f"TimeoutError(attempt exceeded "
                    f"{self.config.timeout_s:g}s)", retry_heap, tiebreak,
                    stats)
        return len(expired)

    def _wait_budget(self, retry_heap, in_flight, now: float) -> float:
        """How long the completion wait may block before bookkeeping."""
        budget = 0.25
        if retry_heap:
            budget = min(budget, max(0.0, retry_heap[0][0] - now))
        if self.config.timeout_s is not None and in_flight:
            next_deadline = min(
                submitted + self.config.timeout_s
                for _, submitted in in_flight.values())
            budget = min(budget, max(0.0, next_deadline - now))
        return max(budget, 0.01)


# --- convenience front doors --------------------------------------------------


def run_campaign(specs: Sequence[ExperimentSpec],
                 out_path: Union[str, Path], name: str = "campaign",
                 workers: int = 1, progress: Optional[ProgressFn] = None,
                 clock: Optional[Clock] = None,
                 **config_kwargs) -> CampaignStats:
    """One-call engine: build the config, run, return stats."""
    config = EngineConfig(workers=workers, **config_kwargs)
    return CampaignEngine(specs, out_path, name=name, config=config,
                          progress=progress, clock=clock).run()


def survey_campaign(preset: str, seeds: Iterable[int],
                    out_path: Union[str, Path],
                    pairs: Optional[Sequence[Tuple[int, int]]] = None,
                    workers: int = 1, day: int = 2, hour: float = 14.0,
                    duration_s: float = 30.0, interval_s: float = 1.0,
                    progress: Optional[ProgressFn] = None,
                    **config_kwargs) -> CampaignStats:
    """Fan the §4.1 dual-medium survey out across worker processes.

    ``pairs=None`` surveys every directed same-board pair of the preset.
    """
    seeds = list(seeds)
    if pairs is None:
        # Pair enumeration is read-only: use the compiled template
        # directly (no fork) — the same world the tasks will check out.
        from repro.compile import compiled_testbed
        world = compiled_testbed(preset,
                                 seed=seeds[0] if seeds else 7).template
        pairs = world.same_board_pairs()
    specs = survey_specs(preset, seeds, pairs, day=day, hour=hour,
                         duration_s=duration_s, interval_s=interval_s)
    return run_campaign(specs, out_path, name=f"survey-{preset}",
                        workers=workers, progress=progress,
                        **config_kwargs)


def scenario_campaign(preset: str, seeds: Iterable[int],
                      scenarios: Iterable[str],
                      out_path: Union[str, Path], workers: int = 1,
                      day: int = 2, hour: float = 14.0,
                      horizon_s: float = 900.0,
                      progress: Optional[ProgressFn] = None,
                      **config_kwargs) -> CampaignStats:
    """Fan named library scenarios out across worker processes."""
    specs = scenario_specs(preset, list(seeds), list(scenarios), day=day,
                           hour=hour, horizon_s=horizon_s)
    return run_campaign(specs, out_path, name=f"scenario-{preset}",
                        workers=workers, progress=progress,
                        **config_kwargs)
