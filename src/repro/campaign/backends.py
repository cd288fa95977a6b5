"""Execution backends: the *mechanism* half of the campaign engine.

The engine owns policy — retry/backoff, per-attempt timeouts, the circuit
breaker, resume, artifact ordering. How an attempt actually runs is a
pluggable :class:`ExecutionBackend`:

* ``inline``  — synchronous, in this process (``workers=0`` semantics);
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor` fed
  ``chunk_size`` specs per round-trip (one by default; more amortise
  pickling/IPC over K tasks for cheap-task campaigns);
* ``thread``  — a thread pool: cheaper dispatch for numpy-bound kinds that
  release the GIL, and every worker shares the parent's compile cache.

Every backend runs specs through one worker entry point,
:func:`run_task_batch`, which catches *per-task* exceptions and returns
them as data — one poisoned spec fails alone instead of voiding its
batch, and the error string the engine records is the worker-side
``repr`` for every backend, which is what keeps failure/quarantine
artifacts byte-identical whichever backend produced them.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, List, Sequence, Tuple

from repro.campaign.spec import ExperimentSpec
from repro.campaign.tasks import execute_spec
from repro.obs.clock import SystemClock
from repro.obs.trace import task_trace

#: Names :func:`create_backend` accepts. ``auto`` maps to ``inline`` when
#: ``workers == 0`` and ``process`` otherwise — the pre-backend behaviour.
BACKEND_NAMES = ("auto", "inline", "process", "thread")

#: A batch entry crossing the pool boundary: ``(spec_dict, attempt)``.
SpecJob = Tuple[Dict[str, object], int]

#: Worker-process clock: used only for the in-worker task *duration*.
_WORKER_CLOCK = SystemClock()


def run_task_payload(spec_dict: Dict[str, object], attempt: int,
                     trace: bool = False) -> Dict[str, object]:
    """Worker-side single-task entry (module-level: pickles by name).

    ``elapsed_s`` is a worker-local *duration* (safe to aggregate in the
    parent); ``trace`` installs a tracer for the task's executors to
    publish sim-time events into, returned out-of-band from the records.
    """
    t0 = _WORKER_CLOCK.now()
    spec = ExperimentSpec.from_dict(spec_dict)
    with task_trace(enabled=trace) as tracer:
        out = execute_spec(spec, attempt)
    return {"task_key": spec.task_key(), "spec": spec.to_dict(),
            "task_seed": spec.task_seed(), "records": out.records,
            "stats": out.stats, "control": out.control,
            "trace": tracer.to_dicts() if trace else None,
            "elapsed_s": _WORKER_CLOCK.now() - t0}


def run_task_batch(batch: Sequence[SpecJob],
                   trace: bool = False) -> List[Dict[str, object]]:
    """Worker-side batch entry: one result dict per job, in order.

    A job that raises yields ``{"error": repr(exc)}`` instead of a
    payload, so the engine retries exactly the failed members — a chunk
    is an IPC optimisation, never a failure domain.
    """
    results: List[Dict[str, object]] = []
    for spec_dict, attempt in batch:
        try:
            results.append(run_task_payload(spec_dict, attempt, trace))
        except Exception as exc:  # noqa: BLE001 — task sandbox
            results.append({"error": repr(exc)})
    return results


class InlineBackend:
    """Run batches synchronously in the calling process.

    ``capacity == 1`` keeps the engine loop strictly sequential, so an
    inline campaign executes specs in exactly the submission order (and
    per-attempt timeouts never fire: the future completes at submit
    time, before any expiry sweep can see it — unchanged ``workers=0``
    semantics).
    """

    name = "inline"
    capacity = 1
    chunk_size = 1

    def submit(self, batch: Sequence[SpecJob],
               trace: bool = False) -> "Future[List[Dict[str, object]]]":
        future: Future = Future()
        try:
            future.set_result(run_task_batch(batch, trace))
        except BaseException as exc:  # pragma: no cover - defensive
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        return None


class _PoolBackend:
    """Shared submit/shutdown plumbing over a concurrent.futures pool."""

    name = "pool"

    def __init__(self, workers: int, chunk_size: int = 1):
        if workers < 1:
            raise ValueError(f"{self.name} backend needs workers >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.capacity = workers
        self.chunk_size = chunk_size
        self._pool = self._make_pool(workers)

    def _make_pool(self, workers: int):
        raise NotImplementedError

    def submit(self, batch: Sequence[SpecJob],
               trace: bool = False) -> "Future[List[Dict[str, object]]]":
        return self._pool.submit(run_task_batch, list(batch), trace)

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)


class ProcessBackend(_PoolBackend):
    """A process pool fed ``chunk_size`` specs per round-trip.

    A chunk cuts per-task IPC (pickle a batch, unpickle a batch of
    payloads) by the chunk factor — the win for campaigns of many cheap
    tasks. It also coarsens the timeout granularity: the engine times
    out whole in-flight batches, so keep chunks small when attempts are
    slow or flaky.
    """

    name = "process"

    def _make_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=workers)


class ThreadBackend(_PoolBackend):
    """A thread pool in this process.

    No pickling and no fork: workers share the parent's task registry,
    compile cache and metrics registry directly. Best for numpy-bound
    kinds (vectorised sampling releases the GIL) and for platforms where
    process start-up dominates short campaigns.
    """

    name = "thread"

    def _make_pool(self, workers: int) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="campaign-worker")


def create_backend(name: str, workers: int,
                   chunk_size: int = 1):
    """Resolve a backend name (see :data:`BACKEND_NAMES`) to an instance.

    ``auto`` preserves the pre-backend engine contract: ``workers=0``
    runs inline, anything else uses the process pool. Only the process
    pool takes ``chunk_size``.
    """
    if name == "auto":
        name = "inline" if workers == 0 else "process"
    if name == "inline":
        return InlineBackend()
    if name == "process":
        return ProcessBackend(max(1, workers), chunk_size=chunk_size)
    if name == "thread":
        return ThreadBackend(max(1, workers))
    raise ValueError(
        f"unknown backend {name!r} (known: {', '.join(BACKEND_NAMES)})")
