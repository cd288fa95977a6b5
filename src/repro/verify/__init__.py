"""`repro.verify`: the unified verification layer.

Four parts, one purpose — make equivalence machine-checkable on *any*
scenario instead of a handful of frozen goldens:

* :mod:`~repro.verify.invariants` — a registry of named invariants over
  runner stats, flow results, link series, tone maps, the hybrid reorder
  pipeline and campaign artifacts, reporting through ``repro.obs``;
* :mod:`~repro.verify.oracles` — differential oracles for the contracts
  earlier layers promised (scalar ≡ vectorized, inline ≡ pool, traced ≡
  untraced, plan ≡ replayed plan, default ≡ explicit horizon);
* :mod:`~repro.verify.metamorphic` — relations derived from the paper
  (time-shift equivariance in the invariance band, SNR/attenuation
  monotonicity, size/contention scaling, seed relabeling);
* :mod:`~repro.verify.fuzzer` — a seeded :class:`ScenarioFuzzer` whose
  cases are campaign specs, so every failure is a replayable artifact.

``repro verify --suite {smoke,full,fuzz}`` (see :mod:`repro.cli`) runs
the suites in :mod:`~repro.verify.suites` and writes a canonical JSONL
report.
"""

from repro.verify.fuzzer import (
    CASE_KINDS,
    ScenarioFuzzer,
    invariant_results,
    replay_repro,
)
from repro.verify.invariants import (
    AIRTIME_EPSILON,
    Invariant,
    InvariantViolationError,
    Violation,
    check_invariants,
    enforce_invariants,
    invariants_for,
    register_invariant,
    registered_kinds,
)
from repro.verify.metamorphic import (
    FrozenLink,
    check_attenuation_monotonicity,
    check_cbr_contention_monotonicity,
    check_file_size_scaling,
    check_snr_monotonicity,
    check_time_shift,
    frozen_link_decorator,
    shift_scenario,
)
from repro.verify.oracles import (
    diff_default_horizon,
    diff_fault_replay,
    diff_scalar_vs_vectorized,
    diff_seed_relabeling,
    diff_traced_vs_untraced,
)
from repro.verify.report import (
    CheckResult,
    VerifyReport,
    failed,
    from_messages,
    passed,
    read_report,
    write_report,
)
from repro.verify.suites import SUITES, run_suite, suite_names

__all__ = [
    "AIRTIME_EPSILON",
    "CASE_KINDS",
    "CheckResult",
    "FrozenLink",
    "Invariant",
    "InvariantViolationError",
    "SUITES",
    "ScenarioFuzzer",
    "VerifyReport",
    "Violation",
    "check_attenuation_monotonicity",
    "check_cbr_contention_monotonicity",
    "check_file_size_scaling",
    "check_invariants",
    "check_snr_monotonicity",
    "check_time_shift",
    "diff_default_horizon",
    "diff_fault_replay",
    "diff_scalar_vs_vectorized",
    "diff_seed_relabeling",
    "diff_traced_vs_untraced",
    "enforce_invariants",
    "failed",
    "from_messages",
    "frozen_link_decorator",
    "invariant_results",
    "invariants_for",
    "passed",
    "read_report",
    "register_invariant",
    "registered_kinds",
    "replay_repro",
    "run_suite",
    "shift_scenario",
    "suite_names",
    "write_report",
]
