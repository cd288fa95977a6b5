"""Plain-text tables for benchmark output (the paper's rows and series),
plus the campaign timeline view (``repro report --timeline``)."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple, Union

#: Width of the ASCII utilisation bars in the timeline view.
_BAR_WIDTH = 30


def format_bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    """``0.4 -> '############..................'`` — clamped for display
    only (the underlying numbers are never clamped)."""
    filled = int(round(max(0.0, min(fraction, 1.0)) * width))
    return "#" * filled + "." * (width - filled)


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Fixed-width table; numbers rendered with sensible precision."""
    def cell(value) -> str:
        if isinstance(value, float):
            if value != value:  # NaN
                return "nan"
            if abs(value) >= 100:
                return f"{value:.0f}"
            if abs(value) >= 1:
                return f"{value:.1f}"
            return f"{value:.3g}"
        return str(value)

    str_rows: List[List[str]] = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for k, value in enumerate(row):
            widths[k] = max(widths[k], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def summarize_artifacts(path: Union[str, Path],
                        top: int = 15) -> Tuple[str, Dict[str, int]]:
    """Summarise a campaign-artifact JSONL file for ``repro report``.

    Returns the formatted text plus a per-kind task census. Survey tasks
    get a per-link throughput table; other kinds are counted.
    """
    from repro.campaign.artifacts import read_artifacts

    header, tasks = read_artifacts(path)
    census: Dict[str, int] = {}
    for task in tasks:
        kind = task.spec.get("kind", "?")
        census[kind] = census.get(kind, 0) + 1
    lines = [f"campaign {header.get('name')!r}: {len(tasks)} tasks "
             f"(root seed {header.get('root_seed')})"]
    lines.append(format_table(
        ["task kind", "tasks"], sorted(census.items()),
        title="task census"))

    survey_rows = []
    for task in tasks:
        if task.spec.get("kind") != "survey_pair":
            continue
        for rec in task.records:
            survey_rows.append([
                f"{rec['src']}->{rec['dst']}",
                task.spec.get("seed"),
                rec["cable_distance_m"],
                rec["plc_mean_mbps"], rec["wifi_mean_mbps"]])
    if survey_rows:
        survey_rows.sort(key=lambda r: -r[3])
        lines.append("")
        lines.append(format_table(
            ["link", "seed", "cable (m)", "PLC (Mbps)", "WiFi (Mbps)"],
            survey_rows[:top],
            title=f"survey results — top {min(top, len(survey_rows))} "
                  f"of {len(survey_rows)}"))

    flow_rows = []
    for task in tasks:
        if task.spec.get("kind") != "scenario":
            continue
        for rec in task.records:
            flow_rows.append([
                task.spec["params"].get("scenario", "?"),
                task.spec.get("seed"), rec["flow"], rec["kind"],
                rec["mean_rate_bps"] / 1e6,
                "done" if rec["finished"] else "running"])
    if flow_rows:
        lines.append("")
        lines.append(format_table(
            ["scenario", "seed", "flow", "kind", "rate (Mbps)", "state"],
            flow_rows[:top], title="scenario flows"))
    return "\n".join(lines), census


def summarize_timeline(path: Union[str, Path], top: int = 15,
                       buckets: int = 12) -> str:
    """The ``repro report --timeline`` view of a campaign artifact.

    Re-merges every task's runner stats through the campaign's exact
    quanta-weighted merge (:meth:`CampaignStats.merge_task_stats`) and
    renders per-domain utilisation as ASCII bars; if the run left a trace
    sidecar next to the artifact, adds a sim-time event census and a
    bucketed activity strip from the deterministic event stream.
    """
    from repro.campaign.artifacts import read_artifacts
    from repro.campaign.stats import CampaignStats
    from repro.obs.trace import read_trace, trace_path_for

    header, tasks = read_artifacts(path)
    stats = CampaignStats(total_specs=len(tasks))
    with_stats = 0
    for task in tasks:
        if task.stats:
            stats.merge_task_stats(task.stats)
            with_stats += 1
    lines = [f"campaign {header.get('name')!r}: {len(tasks)} tasks, "
             f"{with_stats} with runner stats"]

    utilisation = stats.domain_utilisation()
    if utilisation:
        quanta = stats.registry.counters_with_prefix(
            "runner.domain_quanta.")
        rows = [[domain, quanta.get(domain, 0), f"{util:.3f}",
                 format_bar(util)]
                for domain, util in sorted(utilisation.items())]
        lines.append(format_table(
            ["domain", "quanta", "utilisation", ""], rows,
            title="per-domain airtime utilisation "
                  "(quanta-weighted across tasks)"))
    elif with_stats:
        lines.append("(no per-domain airtime in task stats)")

    sidecar = trace_path_for(path)
    if sidecar.exists():
        trace_header, events = read_trace(sidecar)
        census: Dict[str, List[float]] = {}
        for ev in events:
            entry = census.setdefault(ev["name"], [0, float("inf"),
                                                   float("-inf")])
            entry[0] += 1
            entry[1] = min(entry[1], ev["sim_time"])
            end = ev["sim_time"] + ev.get("duration_s", 0.0)
            entry[2] = max(entry[2], end)
        lines.append("")
        lines.append(format_table(
            ["event", "count", "sim start", "sim end"],
            [[name, int(c[0]), c[1], c[2]]
             for name, c in sorted(census.items())][:top],
            title=f"trace events ({sidecar.name}, "
                  f"{len(events)} events)"))
        if events:
            t_lo = min(ev["sim_time"] for ev in events)
            t_hi = max(ev["sim_time"] + ev.get("duration_s", 0.0)
                       for ev in events)
            span = max(t_hi - t_lo, 1e-12)
            counts = [0] * buckets
            for ev in events:
                k = min(int((ev["sim_time"] - t_lo) / span * buckets),
                        buckets - 1)
                counts[k] += 1
            peak = max(counts)
            strip = "".join(
                "#" if c and peak and c / peak > 0.5
                else ("+" if c else ".") for c in counts)
            lines.append(f"sim-time activity [{t_lo:g}s .. {t_hi:g}s]: "
                         f"|{strip}|")
    else:
        lines.append("")
        lines.append(f"(no trace sidecar at {sidecar.name}; rerun the "
                     f"campaign with --trace to record one)")
    return "\n".join(lines)
