"""Canonical JSONL verification reports.

A verify run (suite or fuzz) emits one report file:

* line 1 — a header: ``{"format": "verify-report", "version": 1, ...}``;
* one line per check, **sorted by (check, subject)** in the compact
  canonical form of :mod:`repro.wire` — like campaign artifacts, the
  bytes are a pure function of the results, so two runs that observed
  the same outcomes produce identical files;
* a final summary line with the pass/fail census.

Wall-clock timings never appear in the report (they would break the
canonical-bytes property); they go to ``BENCH_verify.json`` via the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.wire import atomic_write, dumps_jsonl, read_headed_jsonl

REPORT_FORMAT = "verify-report"
REPORT_VERSION = 1


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check against one subject.

    ``check`` names the oracle/relation/invariant group (e.g.
    ``"oracle.scalar_vs_vectorized"``); ``subject`` what it ran against
    (e.g. ``"plc:0->1"``); ``detail`` carries the first failure message
    (empty on a pass).
    """

    check: str
    subject: str
    status: str  # "pass" | "fail"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> Dict[str, str]:
        return {"check": self.check, "subject": self.subject,
                "status": self.status, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "CheckResult":
        return cls(check=data["check"], subject=data["subject"],
                   status=data["status"], detail=data.get("detail", ""))


def passed(check: str, subject: str) -> CheckResult:
    return CheckResult(check=check, subject=subject, status="pass")


def failed(check: str, subject: str, detail: str) -> CheckResult:
    return CheckResult(check=check, subject=subject, status="fail",
                       detail=detail)


def from_messages(check: str, subject: str,
                  messages: Sequence[str]) -> CheckResult:
    """Collapse a diff/violation message list into one result."""
    if not messages:
        return passed(check, subject)
    detail = messages[0] if len(messages) == 1 else (
        f"{messages[0]} (+{len(messages) - 1} more)")
    return failed(check, subject, detail)


@dataclass
class VerifyReport:
    """An in-memory report: results plus identifying metadata."""

    suite: str
    seed: int
    preset: str
    results: List[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> None:
        self.results.append(result)

    def extend(self, results: Sequence[CheckResult]) -> None:
        self.results.extend(results)

    @property
    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if not r.passed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> Dict[str, int]:
        return {"checks": len(self.results),
                "passed": sum(r.passed for r in self.results),
                "failed": len(self.failures)}


def write_report(path: Union[str, Path], report: VerifyReport) -> Path:
    """Write the canonical JSONL report; returns the path written."""
    path = Path(path)
    header = {"format": REPORT_FORMAT, "version": REPORT_VERSION,
              "suite": report.suite, "seed": report.seed,
              "preset": report.preset}
    ordered = sorted(report.results,
                     key=lambda r: (r.check, r.subject, r.status))
    atomic_write(path, dumps_jsonl(
        [header] + [r.to_dict() for r in ordered]
        + [{"summary": report.summary()}]))
    return path


def read_report(path: Union[str, Path]
                ) -> Tuple[Dict[str, object], List[CheckResult]]:
    """Parse a report file back into (header, results).

    Raises :class:`repro.wire.FormatError` on anything that is not a
    verify report.
    """
    header, lines = read_headed_jsonl(path, REPORT_FORMAT, REPORT_VERSION)
    return header, [CheckResult.from_dict(data) for data in lines
                    if "summary" not in data]
