"""End-to-end benchmark of the campaign stack, one workload per call.

    python3 benchmarks/e2e/run.py --workload survey --seed 1 \\
        --seconds 55 --trace 0

Runs the named workload (see ``workloads.py``) through the public
campaign API — :func:`repro.campaign.run_campaign`, inline backend, one
process, one dispatch unit in flight — in a closed loop of campaign
rounds for about ``--seconds`` seconds, checks every finalized
artifact, and prints as its last stdout line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``summary.END_TO_END``);
``--trace 1`` alternates untraced and traced rounds over the same inputs
and reports the per-layer metrics (``summary.PER_LAYER``) from spans
recorded around each layer's public entry points (``spans.py``).

Everything the benchmark writes lands under ``.bench_scratch/`` in the
checkout; each round starts from an empty directory with
``resume=False``, and ``os.fsync`` is a no-op in the measuring process
(see :func:`skip_device_flush`). The benchmark reads its own clock and never uses the
program's ``repro.bench`` / ``repro.obs`` planes, so the parent and a
change are measured by identical code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_scratch" / "e2e"

clock = time.perf_counter

#: Fresh processes timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 5
#: A run keeps going past its time budget until this many units ran, so
#: ``task_p90_s`` has >= 10 samples beyond it; HARD_CAP_S bounds that.
MIN_UNITS = 100
HARD_CAP_S = 120.0
#: Iterations of the drift-diagnostic reference loop.
REFERENCE_ITERATIONS = 300_000


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"cannot import the program from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")


@dataclass
class RoundResult:
    wall_s: float
    sim_s: float
    latencies: List[float]
    attempted: int
    failed: int
    failures: Dict[str, str]
    sha256: str
    layers: Optional[Dict[str, float]] = None
    spans: list = field(default_factory=list)


def run_round(workload, plan, rec=None) -> RoundResult:
    """One campaign from an empty scratch directory, then its checks.

    The worlds are compiled before the clock starts (that is set-up);
    ``wall_s`` runs from submitting the spec list to the finalized
    artifact.
    """
    from repro.campaign import read_artifacts, run_campaign
    from repro.compile import precompile_specs

    from summary import round_layers, unit_latencies
    from workloads import account_units, sim_seconds

    out_dir = SCRATCH / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    out = out_dir / "campaign.jsonl"
    precompile_specs(plan.specs)
    setup_counts: Dict[str, float] = {}
    if rec is not None:
        _, setup_counts = rec.take()
    events: list = []
    stamps: List[float] = []

    def progress(event, detail, stats):
        stamps.append(clock())
        events.append((event, detail))

    if rec is not None:
        rec.open("round")
    t0 = clock()
    stats = run_campaign(plan.specs, out, name=f"bench-{workload.name}",
                         workers=0, progress=progress, resume=False,
                         retries=0, max_failures=len(plan.specs),
                         **plan.config)
    wall = clock() - t0
    if rec is not None:
        rec.close()
    _, tasks = read_artifacts(out)
    attempted, failed, failures = account_units(workload, plan, tasks,
                                                events)
    data = out.read_bytes()
    result = RoundResult(
        wall_s=wall, sim_s=sim_seconds(plan, tasks),
        latencies=unit_latencies(t0, events, stamps),
        attempted=attempted, failed=failed, failures=failures,
        sha256=hashlib.sha256(data).hexdigest())
    if rec is not None:
        spans, counts = rec.take()
        for name, value in setup_counts.items():
            counts[name] = counts.get(name, 0.0) + value
        layers = round_layers(spans, counts, [t.stats for t in tasks])
        layers.update({"campaign.units": attempted,
                       "campaign.failed": failed,
                       "campaign.retries": stats.retries,
                       "campaign.bytes": len(data)})
        result.layers = layers
        result.spans = spans
    return result


def report_round(index: int, traced: bool, r: RoundResult) -> None:
    tag = "traced" if traced else "untraced"
    print(f"round {index} {tag}: wall_s={r.wall_s:.4f} units={r.attempted} "
          f"failed={r.failed} sim_s={r.sim_s:g} "
          f"artifact_sha256={r.sha256}")
    for key, reason in sorted(r.failures.items())[:5]:
        print(f"  check failed: {key}: {reason}", file=sys.stderr)


def loop_rounds(args, workload, traced: bool):
    """Closed loop of rounds until the time budget (and MIN_UNITS) is met.

    Traced runs execute each round's inputs twice, untraced then traced,
    so the traced-minus-untraced wall time measures tracing overhead.
    """
    from repro.compile import reset_compile_cache

    from spans import SpanRecorder, installed

    rec = SpanRecorder(clock=clock) if traced else None
    untraced: List[RoundResult] = []
    traced_rounds: List[RoundResult] = []
    start = clock()
    lengths: List[float] = []
    index = 0
    while True:
        round_start = clock()
        reset_compile_cache()
        plan = workload.plan(args.seed, index)
        r = run_round(workload, plan)
        untraced.append(r)
        report_round(index, False, r)
        if traced:
            reset_compile_cache()
            with installed(rec):
                t = run_round(workload, plan, rec)
            traced_rounds.append(t)
            report_round(index, True, t)
        index += 1
        lengths.append(clock() - round_start)
        elapsed = clock() - start
        units = sum(x.attempted for x in untraced)
        if elapsed >= HARD_CAP_S:
            break
        if elapsed + statistics.median(lengths) > args.seconds \
                and units >= MIN_UNITS:
            break
    return untraced, traced_rounds


def skip_device_flush() -> None:
    """Make ``os.fsync`` return at once in this process, as on tmpfs.

    Artifact lines and checkpoints are still written, into the page
    cache; only the flush to the device is skipped. The scratch has to
    live inside the checkout, here a virtual disk shared with other
    tenants, whose flush latency is their I/O rather than the program's
    work: 0.5 ms median and 8 ms p99 per flush, 0.4 s of a 4 s ``sliced``
    round, and the main source of that workload's run-to-run spread.
    """
    os.fsync = lambda fd: None


def setup_probe(args) -> None:
    """Child-process body of one ``setup_s`` sample: import the program,
    build the first round's specs, compile their worlds, say ready."""
    import_program()
    from repro.compile import precompile_specs

    from workloads import WORKLOADS

    plan = WORKLOADS[args.workload].plan(args.seed, 0)
    precompile_specs(plan.specs)
    print("ready", flush=True)


def setup_samples(args) -> List[float]:
    """Time fresh processes from launch to their first-task readiness."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = clock()
        proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = clock() - t0
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit("setup probe did not exit")
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"setup probe failed (rc={proc.returncode}): "
                             f"{err.strip()[-500:]}")
        samples.append(elapsed)
    return samples


# --- drift diagnostic -------------------------------------------------------------


def reference_loop() -> float:
    """Median seconds of a fixed pure-Python loop (host-speed probe)."""
    times = []
    for _ in range(5):
        t0 = clock()
        acc = 0
        for i in range(REFERENCE_ITERATIONS):
            acc += i * i
        times.append(clock() - t0)
    return statistics.median(times)


def git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def filesystem_type(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                if (str(path) + "/").startswith(mount.rstrip("/") + "/") \
                        and len(mount) >= len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def diagnostics(before: float, after: float) -> Dict[str, object]:
    import numpy

    return {"reference_loop_before_s": before,
            "reference_loop_after_s": after,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha(),
            "scratch_fs": filesystem_type(SCRATCH),
            "fsync": "skipped"}


# --- the run ----------------------------------------------------------------------


def end_to_end(untraced: List[RoundResult], setup: List[float]):
    from summary import END_TO_END, tail_percentile

    latencies = [x for r in untraced for x in r.latencies]
    values = {
        "wall_s": statistics.median(r.wall_s for r in untraced),
        "setup_s": statistics.median(setup),
        "sim_rate": statistics.median(r.sim_s / r.wall_s
                                      for r in untraced),
        "task_p50_s": statistics.median(latencies),
        "task_p90_s": tail_percentile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
            if values[name] is not None}


def write_spans(path: Path, rounds: List[RoundResult]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for index, r in enumerate(rounds):
            for s in r.spans:
                fh.write(json.dumps({
                    "round": index, "id": s.span_id, "parent": s.parent_id,
                    "name": s.name, "start": s.start, "end": s.end,
                    "task": s.task_key}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        setup_probe(args)
        return 0
    import_program()
    from summary import PER_LAYER, per_layer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    SCRATCH.mkdir(parents=True, exist_ok=True)
    before = reference_loop()
    setup = [] if args.trace else setup_samples(args)
    skip_device_flush()
    untraced, traced = loop_rounds(args, workload, bool(args.trace))
    diag = diagnostics(before, reference_loop())
    stem = f"{workload.name}-s{args.seed}-t{args.trace}"
    (SCRATCH / f"{stem}.diagnostics.json").write_text(
        json.dumps(diag, sort_keys=True) + "\n")
    print("diagnostics " + json.dumps(diag, sort_keys=True))
    everything = untraced + traced
    failed = sum(r.failed for r in everything)
    checks_ok = not any(r.failures for r in everything)
    if args.trace:
        write_spans(SCRATCH / f"{stem}.spans.jsonl", traced)
        layers = per_layer(
            [r.layers for r in traced],
            [t.wall_s - u.wall_s for u, t in zip(untraced, traced)])
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = end_to_end(untraced, setup)
    print(json.dumps({"correct": failed == 0 and checks_ok,
                      "attempted": sum(r.attempted for r in everything),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
