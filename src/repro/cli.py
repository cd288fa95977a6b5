"""Command-line interface: the toolkit's shell entry point.

Subcommands mirror the paper's workflows::

    python -m repro survey  [--save FILE]      # §4.1 dual-medium survey
    python -m repro probe SRC DST              # Table 2 metrics + Table 3 advice
    python -m repro route SRC DST              # §4.3 hybrid mesh route
    python -m repro campaign --out FILE        # parallel experiment campaign
    python -m repro campaign ... --check       # + invariant sweep of artifact
    python -m repro report FILE                # summarise a saved campaign
    python -m repro report FILE --timeline     # per-domain utilisation view
    python -m repro trace FILE                 # inspect a trace sidecar
    python -m repro verify --suite smoke       # verification suites / fuzzer
    python -m repro bench run --all            # benchmark plane: measure
    python -m repro bench compare BASELINE     # ... and regression-gate
    python -m repro bench report FILE          # inspect a BENCH document

Common options: ``--seed`` (testbed world), ``--day``/``--hour``
(measurement time), ``--av500`` (validation devices).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.reporting import (
    format_table,
    summarize_artifacts,
    summarize_timeline,
)
from repro.analysis.traces import load_campaign, record_survey, save_campaign
from repro.sim.clock import MainsClock
from repro.testbed import HPAV500_PRESET, HPAV_PRESET, build_testbed
from repro.units import MBPS


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7,
                        help="testbed world seed (default 7)")
    parser.add_argument("--day", type=int, default=2,
                        help="day index, 0 = Monday (default 2)")
    parser.add_argument("--hour", type=float, default=14.0,
                        help="hour of day (default 14.0 = working hours)")
    parser.add_argument("--av500", action="store_true",
                        help="use HPAV500 validation devices")


def _build(args) -> tuple:
    preset = HPAV500_PRESET if args.av500 else HPAV_PRESET
    testbed = build_testbed(seed=args.seed, preset=preset)
    t = MainsClock.at(day=args.day, hour=args.hour)
    return testbed, t


def _parse_pairs(text: Optional[str]) -> Optional[List[Tuple[int, int]]]:
    """Parse ``"0-1,1-0,2-5"`` into directed pairs (None passes through)."""
    if text is None:
        return None
    pairs: List[Tuple[int, int]] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            src, dst = token.split("-")
            pairs.append((int(src), int(dst)))
        except ValueError:
            raise ValueError(
                f"bad pair {token!r} (expected SRC-DST, e.g. 0-1)") \
                from None
    return pairs


def cmd_survey(args) -> int:
    testbed, t = _build(args)
    try:
        pairs = _parse_pairs(args.pairs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    survey_pairs = (pairs if pairs is not None
                    else testbed.same_board_pairs())
    if not survey_pairs:
        print("error: empty survey (no pairs selected)", file=sys.stderr)
        return 1
    campaign = record_survey(testbed, t, pairs=survey_pairs)
    rows = []
    for i, j in survey_pairs:
        plc = campaign.series(str(i), str(j), "plc",
                              "throughput_bps")
        wifi = campaign.series(str(i), str(j), "wifi",
                               "throughput_bps")
        if len(plc) and len(wifi):
            rows.append([f"{i}->{j}", testbed.cable_distance(i, j),
                         plc.values[0] / MBPS, wifi.values[0] / MBPS])
    rows.sort(key=lambda r: -r[2])
    print(format_table(
        ["link", "cable (m)", "PLC (Mbps)", "WiFi (Mbps)"],
        rows[: args.top],
        title=f"Dual-medium survey (seed {args.seed}, "
              f"day {args.day} {args.hour:g}h) — top {args.top}"))
    plc_thr = np.array([r[2] for r in rows])
    wifi_thr = np.array([r[3] for r in rows])
    print(f"\n{len(rows)} links; PLC faster on "
          f"{100 * np.mean(plc_thr > wifi_thr):.0f}%")
    if args.save:
        try:
            save_campaign(campaign, args.save)
        except OSError as exc:
            print(f"error: cannot write {args.save}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"campaign saved to {args.save}")
    return 0


def cmd_probe(args) -> int:
    testbed, t = _build(args)
    src, dst = args.src, args.dst
    link = testbed.plc_link(src, dst)
    if link is None:
        print(f"stations {src} and {dst} are on different boards: "
              f"no direct PLC link (try `route`)", file=sys.stderr)
        return 1
    rev = testbed.plc_link(dst, src)
    wifi = testbed.wifi_link(src, dst)
    print(format_table(
        ["metric", "value"],
        [
            ["cable distance (m)", testbed.cable_distance(src, dst)],
            ["air distance (m)", testbed.air_distance(src, dst)],
            ["avg BLE (Mbps)", link.avg_ble_bps(t) / MBPS],
            ["PBerr", link.pb_err(t)],
            ["UDP throughput (Mbps)",
             link.throughput_bps(t, measured=False) / MBPS],
            ["U-ETX", link.u_etx(t)],
            ["reverse BLE (Mbps)", rev.avg_ble_bps(t) / MBPS],
            ["WiFi throughput (Mbps)",
             wifi.throughput_bps(t, measured=False) / MBPS],
        ],
        title=f"Link {src} -> {dst}"))
    from repro.core.guidelines import LinkState, recommend
    rec = recommend(LinkState(ble_fwd_bps=link.avg_ble_bps(t),
                              ble_rev_bps=rev.avg_ble_bps(t)))
    print(f"\nprobing advice: every {rec.schedule.interval_s:g}s, "
          f"{rec.schedule.payload_bytes}B unicast, "
          f"burst={rec.schedule.burst_packets}")
    for note in rec.notes:
        print(f"  note: {note}")
    return 0


def cmd_route(args) -> int:
    testbed, t = _build(args)
    from repro.hybrid.ieee1905 import AbstractionLayer
    from repro.hybrid.routing import HybridMeshRouter, populate_from_testbed
    layer = AbstractionLayer()
    populate_from_testbed(layer, testbed, t)
    router = HybridMeshRouter(layer)
    path = router.best_path(str(args.src), str(args.dst))
    if path is None:
        print(f"no route from {args.src} to {args.dst}", file=sys.stderr)
        return 1
    print(f"route {args.src} -> {args.dst} "
          f"(ETT {path.total_ett_s * 1e3:.2f} ms"
          f"{', alternates media' if path.alternates_media else ''}):")
    for hop in path.hops:
        print(f"  {hop.src} -> {hop.dst}  [{hop.medium}]  "
              f"{hop.ett_s * 1e3:.2f} ms")
    return 0


def cmd_campaign(args) -> int:
    """Run a parallel experiment campaign to a JSONL artifact file."""
    from repro.campaign import (
        CampaignAborted,
        run_campaign,
        scenario_specs,
        survey_specs,
    )
    from repro.compile import compiled_testbed
    from repro.testbed import resolve_testbed_preset

    try:
        resolve_testbed_preset(args.preset)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        pairs = _parse_pairs(args.pairs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not seeds:
        print("error: empty campaign (no seeds)", file=sys.stderr)
        return 1

    if args.kind == "survey":
        if pairs is None:
            # Read-only pair enumeration on the compiled template — the
            # same cached world the survey tasks will check out.
            world = compiled_testbed(args.preset, seed=seeds[0]).template
            pairs = world.same_board_pairs()
            if args.max_pairs:
                pairs = pairs[: args.max_pairs]
        if not pairs:
            print("error: empty campaign (no pairs to survey)",
                  file=sys.stderr)
            return 1
        specs = survey_specs(args.preset, seeds, pairs, day=args.day,
                             hour=args.hour, duration_s=args.duration,
                             interval_s=args.interval)
    else:
        from repro.netsim.scenario import SCENARIO_LIBRARY
        scenarios = [s for s in args.scenarios.split(",") if s.strip()]
        if not scenarios:
            print("error: empty campaign (no scenarios)", file=sys.stderr)
            return 1
        unknown = [s for s in scenarios if s not in SCENARIO_LIBRARY]
        if unknown:
            print(f"error: unknown scenario(s) {', '.join(unknown)} "
                  f"(known: {', '.join(sorted(SCENARIO_LIBRARY))})",
                  file=sys.stderr)
            return 1
        specs = scenario_specs(args.preset, seeds, scenarios,
                               day=args.day, hour=args.hour,
                               horizon_s=args.horizon)

    def progress(event: str, detail: str, stats) -> None:
        if args.quiet:
            return
        print(f"[{stats.done}/{stats.total_specs}] {event}: {detail}")

    try:
        stats = run_campaign(
            specs, args.out, name=f"{args.kind}-{args.preset}",
            workers=args.workers, progress=progress,
            backend=args.backend, chunk_size=args.chunk_size,
            timeout_s=args.timeout, retries=args.retries,
            max_failures=args.max_failures, resume=not args.no_resume,
            quarantine=args.quarantine, trace=args.trace,
            slice_horizon_s=args.slice_horizon)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    except (CampaignAborted, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summary = stats.to_dict()
    print(format_table(
        ["stat", "value"],
        [["specs", summary["total_specs"]],
         ["completed", summary["completed"]],
         ["resumed (skipped)", summary["resumed"]],
         ["failed", summary["failed"]],
         ["retries", summary["retries"]],
         ["timeouts", summary["timeouts"]],
         ["workers", summary["workers"]],
         ["quarantined", summary["quarantined"]],
         ["wall (s)", summary["wall_seconds"]],
         ["worker utilisation", summary["worker_utilisation"]]],
        title=f"campaign {args.kind}-{args.preset} -> {args.out}"))
    if stats.quarantined:
        from repro.campaign.artifacts import quarantine_path_for
        print(f"{stats.quarantined} poison task(s) quarantined in "
              f"{quarantine_path_for(args.out)}")
    if stats.runner:
        rows = sorted((k, v) for k, v in stats.runner.items()
                      if isinstance(v, (int, float)))
        print(format_table(["runner stat", "value"], rows,
                           title="aggregated scenario-runner stats"))
    if args.trace:
        from repro.obs.trace import trace_path_for
        print(f"trace sidecar written to {trace_path_for(args.out)}")
    if args.check:
        return _check_artifact(args.out)
    return 0


def _check_artifact(path: str) -> int:
    """Sweep a finalized campaign artifact with the registered
    ``artifact_task`` invariants (``repro campaign --check``)."""
    from repro.campaign.artifacts import read_artifacts
    from repro.verify.invariants import check_invariants

    try:
        _, artifacts = read_artifacts(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot check {path}: {exc}", file=sys.stderr)
        return 1
    violations = []
    for artifact in artifacts:
        violations.extend(check_invariants(
            "artifact_task", artifact, subject_name=artifact.task_key))
    if violations:
        print(f"--check: {len(violations)} invariant violation(s) in "
              f"{path}:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(f"--check: {len(artifacts)} task artifact(s) satisfy all "
          f"invariants")
    return 0


def cmd_verify(args) -> int:
    """Run a verification suite (or replay a fuzz-failure artifact)."""
    from repro.obs.clock import SystemClock
    from repro.verify import replay_repro, run_suite, write_report

    if args.replay:
        try:
            spec, results = replay_repro(args.replay)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot replay {args.replay}: {exc}",
                  file=sys.stderr)
            return 1
        failures = [r for r in results if not r.passed]
        print(f"replayed {spec.task_key()}: {len(results)} check(s), "
              f"{len(failures)} failing")
        for r in failures:
            print(f"  FAIL {r.check} [{r.subject}]: {r.detail}")
        return 1 if failures else 0

    clock = SystemClock()
    started = clock.now()
    report = run_suite(args.suite, preset=args.preset, seed=args.seed,
                       budget_s=args.budget_s, max_cases=args.max_cases,
                       repro_dir=args.repro_dir)
    wall_s = clock.now() - started
    summary = report.summary()
    for r in report.failures:
        print(f"  FAIL {r.check} [{r.subject}]: {r.detail}")
    print(f"suite {report.suite!r} on preset {report.preset!r} "
          f"(seed {report.seed}): {summary['passed']}/"
          f"{summary['checks']} checks passed in {wall_s:.1f}s")
    if args.report:
        try:
            write_report(args.report, report)
        except OSError as exc:
            print(f"error: cannot write {args.report}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"report written to {args.report}")
    bench_path = os.environ.get("BENCH_VERIFY_JSON")
    if bench_path:
        # Suite wall time in the unified BENCH schema (one sample — a
        # timing record, not a gated multi-repeat benchmark).
        from repro import bench

        doc = bench.BenchDocument(environment=bench.Environment.capture())
        doc.add(bench.BenchResult(
            name=f"verify.{report.suite}", samples_s=(wall_s,),
            metrics={k: float(v) for k, v in summary.items()
                     if isinstance(v, (int, float))},
            tags=("verify", report.preset)))
        try:
            bench.write_document(bench_path, doc)
        except OSError as exc:
            print(f"error: cannot write {bench_path}: {exc}",
                  file=sys.stderr)
            return 1
    if not report.ok:
        print(f"error: {summary['failed']} verification check(s) "
              f"failed", file=sys.stderr)
        return 1
    return 0


def cmd_bench_run(args) -> int:
    """Run registered benchmarks into one unified BENCH document."""
    from repro import bench

    bench.load_default_benchmarks()
    if args.names and args.all:
        print("error: give benchmark names or --all, not both",
              file=sys.stderr)
        return 2
    if not args.names and not args.all:
        print("error: name at least one benchmark or pass --all "
              "(see `repro bench list`)", file=sys.stderr)
        return 2
    try:
        names = (list(bench.benchmark_names()) if args.all
                 else [bench.get_benchmark(n).name for n in args.names])
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    def progress(name, result):
        if not args.quiet:
            print(f"{name}: min {result.min_s:.4f}s "
                  f"mean {result.mean_s:.4f}s "
                  f"({result.repeats} repeats, "
                  f"{result.warmup_discarded} warmup)")

    doc = bench.run_benchmarks(names, repeats=args.repeats,
                               warmup=args.warmup, progress=progress)
    if args.out:
        try:
            bench.write_document(args.out, doc)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"BENCH document written to {args.out}")
    if args.trajectory:
        try:
            bench.append_trajectory(args.trajectory, doc)
        except OSError as exc:
            print(f"error: cannot append to {args.trajectory}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"trajectory appended to {args.trajectory}")
    env = doc.environment
    print(f"{len(doc.results)} benchmark(s) over domains "
          f"{', '.join(doc.domains())} "
          f"(python {env.python}, {env.cpu_count} cpu, "
          f"git {env.git_sha[:12] if env.git_sha else 'n/a'})")
    if not args.no_smoke:
        violations = bench.check_smoke(doc)
        if violations:
            print(f"error: {len(violations)} smoke-floor violation(s):",
                  file=sys.stderr)
            for v in violations:
                print(f"  {v}", file=sys.stderr)
            return 1
        print("smoke floors: all hold")
    return 0


def cmd_bench_compare(args) -> int:
    """Gate a candidate run (file, or live) against a baseline."""
    from repro import bench

    bench.load_default_benchmarks()
    baseline_path = bench.find_document(args.baseline)
    try:
        baseline = bench.read_document(baseline_path)
    except OSError as exc:
        print(f"error: cannot read baseline {baseline_path}: {exc}",
              file=sys.stderr)
        return 1
    except ValueError as exc:  # includes bench.FormatError
        print(f"error: baseline {baseline_path}: {exc}", file=sys.stderr)
        return 1

    if args.candidate:
        try:
            candidate = bench.read_document(args.candidate)
        except OSError as exc:
            print(f"error: cannot read candidate {args.candidate}: "
                  f"{exc}", file=sys.stderr)
            return 1
        except ValueError as exc:  # includes bench.FormatError
            print(f"error: candidate {args.candidate}: {exc}",
                  file=sys.stderr)
            return 1
    else:
        registered = set(bench.benchmark_names())
        names = [n for n in sorted(baseline.results) if n in registered]
        if not names:
            print("error: no benchmark in the baseline is registered "
                  "in this harness", file=sys.stderr)
            return 1
        candidate = bench.run_benchmarks(names)

    thresholds = {}
    if args.warn_ratio is not None:
        thresholds["warn_ratio"] = args.warn_ratio
    if args.fail_ratio is not None:
        thresholds["fail_ratio"] = args.fail_ratio
    comparison = bench.compare_documents(baseline, candidate,
                                         **thresholds)
    print(bench.format_comparison(comparison))
    return 0 if comparison.ok else 1


def cmd_bench_report(args) -> int:
    """Summarise a BENCH document or a trajectory file."""
    from repro import bench

    if args.trajectory:
        records = bench.read_trajectory(args.file)
        if not records:
            print(f"error: no trajectory records in {args.file}",
                  file=sys.stderr)
            return 1
        print(f"trajectory {args.file}: {len(records)} run(s)")
        names = sorted({name for rec in records
                        for name in rec.get("min_s", {})})
        rows = []
        for name in names:
            series = [rec["min_s"][name] for rec in records
                      if name in rec.get("min_s", {})]
            rows.append([name, len(series), series[0], series[-1],
                         series[-1] / series[0]])
        print(format_table(
            ["benchmark", "runs", "first min (s)", "last min (s)",
             "last/first"],
            rows, title="per-benchmark trajectory"))
        return 0

    try:
        doc = bench.read_document(bench.find_document(args.file))
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # includes bench.FormatError
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 1
    env = doc.environment
    print(f"BENCH document: {len(doc.results)} benchmark(s), domains "
          f"{', '.join(doc.domains())}")
    print(f"environment: python {env.python} on {env.platform}, "
          f"{env.cpu_count} cpu, numpy {env.numpy}, "
          f"git {env.git_sha or 'n/a'}")
    rows = []
    for name, result in sorted(doc.results.items()):
        rows.append([name, result.repeats, result.min_s, result.mean_s,
                     result.figure or "-"])
    print(format_table(
        ["benchmark", "repeats", "min (s)", "mean (s)", "figure"],
        rows, title="results (min-of-repeats is the gated statistic)"))
    for name, result in sorted(doc.results.items()):
        if result.metrics:
            metrics = ", ".join(f"{k}={v:g}" for k, v
                                in sorted(result.metrics.items()))
            print(f"  {name}: {metrics}")
    return 0


def cmd_bench_list(args) -> int:
    """List registered benchmarks with their manifest modules."""
    from repro import bench
    from repro.bench.manifest import module_for

    bench.load_default_benchmarks()
    rows = []
    for spec in bench.iter_benchmarks():
        try:
            module = module_for(spec.name)
        except KeyError:
            module = "<unclaimed>"
        rows.append([spec.name, spec.repeats, spec.warmup, module])
    print(format_table(
        ["benchmark", "repeats", "warmup", "benchmarks/ module"],
        rows, title=f"{len(rows)} registered benchmark(s)"))
    return 0


def cmd_report(args) -> int:
    from repro.campaign.artifacts import (
        is_artifact_file,
        quarantine_path_for,
        read_quarantine,
    )

    try:
        if args.timeline:
            if not is_artifact_file(args.file):
                print("error: --timeline needs a campaign artifact file",
                      file=sys.stderr)
                return 2
            print(summarize_timeline(args.file, top=args.top))
            return 0
        if is_artifact_file(args.file):
            text, _ = summarize_artifacts(args.file, top=args.top)
        else:
            text, campaign = None, load_campaign(args.file)
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if text is not None:
        print(text)
        sidecar = quarantine_path_for(args.file)
        entries = read_quarantine(sidecar)
        if entries:
            print(format_table(
                ["task", "attempts", "error"],
                [[e.task_key, e.attempts, e.error[:60]]
                 for e in entries[: args.top]],
                title=f"quarantined tasks ({sidecar})"))
        return 0
    print(f"campaign {campaign.name!r}: {len(campaign)} records, "
          f"seed={campaign.seed}")
    rows = []
    for (src, dst, medium) in campaign.links()[: args.top]:
        series = campaign.series(src, dst, medium)
        rows.append([f"{src}->{dst}", medium, len(series),
                     series.mean / MBPS, series.std / MBPS])
    print(format_table(
        ["link", "medium", "samples", "mean cap (Mbps)", "std"],
        rows, title="per-link summary"))
    return 0


def cmd_trace(args) -> int:
    """Inspect a trace sidecar: header, event census, raw event lines."""
    from pathlib import Path

    from repro.campaign.artifacts import is_artifact_file
    from repro.obs.trace import read_trace, trace_path_for

    path = Path(args.file)
    try:
        if path.exists() and is_artifact_file(path):
            path = trace_path_for(path)
        header, events = read_trace(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.name:
        events = [e for e in events if args.name in e["name"]]
    if args.task:
        events = [e for e in events if args.task in e["task_key"]]
    print(f"trace {header.get('name')!r} (format "
          f"{header.get('format')} v{header.get('version')}): "
          f"{len(events)} events")

    census: dict = {}
    for ev in events:
        entry = census.setdefault(
            ev["name"], {"count": 0, "tasks": set(),
                         "t_lo": float("inf"), "t_hi": float("-inf")})
        entry["count"] += 1
        entry["tasks"].add(ev["task_key"])
        entry["t_lo"] = min(entry["t_lo"], ev["sim_time"])
        entry["t_hi"] = max(entry["t_hi"],
                            ev["sim_time"] + ev.get("duration_s", 0.0))
    if census:
        print(format_table(
            ["event", "count", "tasks", "sim start", "sim end"],
            [[name, c["count"], len(c["tasks"]), c["t_lo"], c["t_hi"]]
             for name, c in sorted(census.items())],
            title="event census"))
    if args.events:
        for ev in events[: args.events]:
            span = (f" +{ev['duration_s']:g}s"
                    if "duration_s" in ev else "")
            attrs = f"  {ev['attrs']}" if ev.get("attrs") else ""
            # .10g, not :g — absolute sim times run ~2e5 s, where six
            # significant digits would swallow the sub-second quantum.
            print(f"{ev['task_key']}#{ev['seq']}  t={ev['sim_time']:.10g}"
                  f"{span}  {ev['name']}{attrs}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Electri-Fi reproduction toolkit (IMC'15)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_survey = sub.add_parser("survey", help="dual-medium link survey")
    _add_common(p_survey)
    p_survey.add_argument("--save", help="write campaign JSONL here")
    p_survey.add_argument("--top", type=int, default=15,
                          help="rows to print (default 15)")
    p_survey.add_argument("--pairs",
                          help="directed pairs to survey, e.g. 0-1,1-0 "
                               "(default: all same-board pairs)")
    p_survey.set_defaults(func=cmd_survey)

    p_campaign = sub.add_parser(
        "campaign", help="parallel experiment campaign")
    p_campaign.add_argument("--preset", default="office",
                            help="testbed preset name (default office)")
    p_campaign.add_argument("--kind", choices=("survey", "scenario"),
                            default="survey")
    p_campaign.add_argument("--seeds", default="7",
                            help="comma-separated world seeds "
                                 "(default 7)")
    p_campaign.add_argument("--out", required=True,
                            help="JSONL artifact output path")
    p_campaign.add_argument("--workers", type=int, default=1,
                            help="worker processes; 0 = run inline "
                                 "(default 1)")
    p_campaign.add_argument("--backend",
                            choices=("auto", "inline", "process",
                                     "thread", "chunked"),
                            default="auto",
                            help="execution backend (default auto: "
                                 "inline when --workers 0, else "
                                 "process); artifacts are byte-identical "
                                 "across backends")
    p_campaign.add_argument("--chunk-size", type=int, default=8,
                            help="chunked backend: specs per pool "
                                 "round-trip (default 8)")
    p_campaign.add_argument("--pairs",
                            help="survey: directed pairs, e.g. 0-1,1-0")
    p_campaign.add_argument("--max-pairs", type=int, default=0,
                            help="survey: cap auto-enumerated pairs")
    p_campaign.add_argument("--scenarios", default="office-afternoon",
                            help="scenario: comma-separated library "
                                 "names")
    p_campaign.add_argument("--day", type=int, default=2)
    p_campaign.add_argument("--hour", type=float, default=14.0)
    p_campaign.add_argument("--duration", type=float, default=30.0,
                            help="survey: seconds per medium "
                                 "(default 30)")
    p_campaign.add_argument("--interval", type=float, default=1.0,
                            help="survey: report interval (default 1)")
    p_campaign.add_argument("--horizon", type=float, default=900.0,
                            help="scenario: runner horizon (default "
                                 "900)")
    p_campaign.add_argument("--slice-horizon", type=float, default=None,
                            help="scenario: split long tasks into "
                                 "checkpointed slices of this many "
                                 "simulated seconds (time-sliced "
                                 "execution; artifacts stay "
                                 "byte-identical to a straight run)")
    p_campaign.add_argument("--timeout", type=float, default=None,
                            help="per-task timeout in seconds")
    p_campaign.add_argument("--retries", type=int, default=2)
    p_campaign.add_argument("--max-failures", type=int, default=0,
                            help="circuit breaker: permanent failures "
                                 "tolerated (default 0)")
    p_campaign.add_argument("--quarantine", action="store_true",
                            help="park permanently failing tasks in a "
                                 "quarantine sidecar instead of tripping "
                                 "the circuit breaker")
    p_campaign.add_argument("--no-resume", action="store_true",
                            help="ignore existing artifacts and redo "
                                 "everything")
    p_campaign.add_argument("--quiet", action="store_true",
                            help="suppress per-task progress lines")
    p_campaign.add_argument("--trace", action="store_true",
                            help="record a sim-time trace sidecar next "
                                 "to the artifact (never changes the "
                                 "artifact bytes)")
    p_campaign.add_argument("--check", action="store_true",
                            help="after the run, sweep the artifact "
                                 "with the registered invariants and "
                                 "fail on any violation")
    p_campaign.set_defaults(func=cmd_campaign)

    p_probe = sub.add_parser("probe", help="measure one PLC link")
    _add_common(p_probe)
    p_probe.add_argument("src", type=int)
    p_probe.add_argument("dst", type=int)
    p_probe.set_defaults(func=cmd_probe)

    p_route = sub.add_parser("route", help="hybrid mesh route")
    _add_common(p_route)
    p_route.add_argument("src", type=int)
    p_route.add_argument("dst", type=int)
    p_route.set_defaults(func=cmd_route)

    p_report = sub.add_parser("report", help="summarise a saved campaign")
    p_report.add_argument("file")
    p_report.add_argument("--top", type=int, default=15)
    p_report.add_argument("--timeline", action="store_true",
                          help="per-domain utilisation + trace activity "
                               "view of a campaign artifact")
    p_report.set_defaults(func=cmd_report)

    p_trace = sub.add_parser(
        "trace", help="inspect a campaign trace sidecar")
    p_trace.add_argument("file",
                         help="trace sidecar (or its campaign artifact)")
    p_trace.add_argument("--name", help="only events whose name contains "
                                        "this substring")
    p_trace.add_argument("--task", help="only events whose task key "
                                        "contains this substring")
    p_trace.add_argument("--events", type=int, default=0,
                         help="also print the first N raw event lines")
    p_trace.set_defaults(func=cmd_trace)

    p_verify = sub.add_parser(
        "verify", help="run a verification suite (invariants, "
                       "differential oracles, metamorphic relations, "
                       "scenario fuzzer)")
    p_verify.add_argument("--suite", choices=("smoke", "full", "fuzz"),
                          default="smoke",
                          help="which suite to run (default smoke)")
    p_verify.add_argument("--preset", default=None,
                          help="testbed preset (default: the suite's "
                               "own — mini3 for smoke/fuzz, office for "
                               "full)")
    p_verify.add_argument("--seed", type=int, default=7,
                          help="root seed (default 7)")
    p_verify.add_argument("--report",
                          help="write the canonical JSONL report here")
    p_verify.add_argument("--budget-s", type=float, default=None,
                          help="fuzz: wall-clock budget in seconds "
                               "(default 60)")
    p_verify.add_argument("--max-cases", type=int, default=None,
                          help="fuzz: maximum cases (default 64)")
    p_verify.add_argument("--repro-dir", default="verify-failures",
                          help="fuzz: where failure repro artifacts go")
    p_verify.add_argument("--replay",
                          help="replay a fuzz-failure repro artifact "
                               "instead of running a suite")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser(
        "bench", help="benchmark plane: run registered benchmarks, "
                      "regression-gate against baselines, inspect BENCH "
                      "documents and trajectories")
    bench_sub = p_bench.add_subparsers(dest="bench_command",
                                       required=True)

    pb_run = bench_sub.add_parser(
        "run", help="run benchmarks into one unified BENCH document")
    pb_run.add_argument("names", nargs="*",
                        help="benchmark names (see `repro bench list`)")
    pb_run.add_argument("--all", action="store_true",
                        help="run every registered benchmark")
    pb_run.add_argument("--out",
                        help="write the BENCH JSON document here")
    pb_run.add_argument("--trajectory",
                        help="append a one-line trajectory record here")
    pb_run.add_argument("--repeats", type=int, default=None,
                        help="override every spec's repeat count")
    pb_run.add_argument("--warmup", type=int, default=None,
                        help="override every spec's warmup count")
    pb_run.add_argument("--no-smoke", action="store_true",
                        help="skip the absolute smoke floors")
    pb_run.add_argument("--quiet", action="store_true",
                        help="suppress per-benchmark progress lines")
    pb_run.set_defaults(func=cmd_bench_run)

    pb_compare = bench_sub.add_parser(
        "compare", help="gate a candidate run against a baseline "
                        "(noise-aware: min-of-repeats + bootstrap band)")
    pb_compare.add_argument("baseline",
                            help="baseline BENCH file, or a directory "
                                 "holding BENCH.json (e.g. "
                                 "benchmarks/baselines/)")
    pb_compare.add_argument("candidate", nargs="?",
                            help="candidate BENCH file (default: run "
                                 "the baseline's benchmarks live)")
    pb_compare.add_argument("--warn-ratio", type=float, default=None,
                            help="min-ratio above which to warn "
                                 "(default 1.2)")
    pb_compare.add_argument("--fail-ratio", type=float, default=None,
                            help="ratio the whole bootstrap band must "
                                 "clear to fail (default 1.5)")
    pb_compare.set_defaults(func=cmd_bench_compare)

    pb_report = bench_sub.add_parser(
        "report", help="summarise a BENCH document or trajectory")
    pb_report.add_argument("file",
                           help="BENCH JSON document (or baselines "
                                "directory), or a trajectory file with "
                                "--trajectory")
    pb_report.add_argument("--trajectory", action="store_true",
                           help="treat FILE as a trajectory JSONL file")
    pb_report.set_defaults(func=cmd_bench_report)

    pb_list = bench_sub.add_parser(
        "list", help="list registered benchmarks and their modules")
    pb_list.set_defaults(func=cmd_bench_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `repro report ... | head`) went away;
        # stdout is unusable, so detach it before interpreter shutdown
        # tries to flush and raises again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
