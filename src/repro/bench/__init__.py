"""``repro.bench`` — the unified benchmark & perf-regression plane.

Mirrors the campaign compile/execute split for *measurement*: specs
(:mod:`~repro.bench.spec`) declare what to time, the runner
(:mod:`~repro.bench.runner`) executes multi-repeat schedules with
warmup discard and an environment fingerprint, the schema
(:mod:`~repro.bench.schema`) is the one canonical versioned BENCH JSON
document, and compare (:mod:`~repro.bench.compare`) gates candidates
against checked-in baselines with min-of-repeats plus a bootstrap
confidence band. ``repro bench run/compare/report`` is the CLI surface;
``benchmarks/baselines/`` holds the gated baselines; the trajectory
(one JSON line per run) is the repo's permanent perf record.
"""

from repro.bench.compare import (
    BenchComparison,
    ComparisonRow,
    bootstrap_ratio_band,
    compare_documents,
    format_comparison,
)
from repro.bench.manifest import MODULE_MANIFEST, manifest_names
from repro.bench.runner import check_smoke, run_benchmark, run_benchmarks
from repro.bench.schema import (
    BENCH_FORMAT,
    BENCH_SCHEMA_VERSION,
    BenchDocument,
    BenchResult,
    Environment,
    append_trajectory,
    dump_document,
    find_document,
    load_document,
    read_document,
    read_trajectory,
    trajectory_line,
    write_document,
)
from repro.bench.spec import (
    BenchContext,
    BenchmarkSpec,
    benchmark,
    benchmark_names,
    get_benchmark,
    iter_benchmarks,
    load_default_benchmarks,
    register_benchmark,
    register_smoke,
    temporary_benchmark,
    unregister_benchmark,
)
from repro.wire import FormatError

__all__ = [
    "BENCH_FORMAT",
    "BENCH_SCHEMA_VERSION",
    "BenchComparison",
    "BenchContext",
    "BenchDocument",
    "BenchResult",
    "BenchmarkSpec",
    "ComparisonRow",
    "Environment",
    "FormatError",
    "MODULE_MANIFEST",
    "append_trajectory",
    "benchmark",
    "benchmark_names",
    "bootstrap_ratio_band",
    "check_smoke",
    "compare_documents",
    "dump_document",
    "find_document",
    "format_comparison",
    "get_benchmark",
    "iter_benchmarks",
    "load_default_benchmarks",
    "load_document",
    "manifest_names",
    "read_document",
    "read_trajectory",
    "register_benchmark",
    "register_smoke",
    "run_benchmark",
    "run_benchmarks",
    "temporary_benchmark",
    "trajectory_line",
    "unregister_benchmark",
    "write_document",
]
