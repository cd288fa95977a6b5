"""The file contract of ``repro.wire``, checked on every file the program
writes.

* The refusal battery runs over every reader. A file that is not JSON,
  whose top level is not an object, or that names a foreign format, no
  version, a past version or a future version is refused with a
  ``FormatError`` that names the file. A snapshot whose payload no
  longer matches its hash is an ``IntegrityError``. The torn final line
  a killed append leaves is tolerated; a corrupt line before it is not.
* ``NaN`` is refused by both encoded forms before a byte is written.
* The crash-safety test makes the rename of each whole-file writer fail
  and checks that the old bytes survive, that no tmp file is left
  behind, and that the tmp file was fsynced before the rename.
* A static scan keeps the JSON codec and the atomic-write primitives
  inside ``repro.wire`` (ruff's banned-api lint says the same in CI).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.analysis.traces import Campaign, load_campaign, save_campaign
from repro.bench.schema import (
    BenchDocument,
    BenchResult,
    Environment,
    read_document,
    write_document,
)
from repro.campaign.artifacts import (
    ArtifactWriter,
    QuarantineEntry,
    QuarantineWriter,
    TaskArtifact,
    quarantine_path_for,
    read_artifacts,
    read_quarantine,
)
from repro.campaign.spec import ExperimentSpec
from repro.core.metrics import LinkMetricRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import read_trace, write_trace
from repro.snapshot.codec import Snapshot, read_snapshot, write_snapshot
from repro.verify.fuzzer import ScenarioFuzzer, replay_repro
from repro.verify.report import (
    VerifyReport,
    failed,
    passed,
    read_report,
    write_report,
)
from repro.wire import FormatError, IntegrityError

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


# --- one writer per format: ``write(directory, v)`` writes version v ----------


def _write_artifacts(d: Path, v: int) -> Path:
    path = d / "campaign.jsonl"
    writer = ArtifactWriter(path, "campaign", root_seed=v, resume=False)
    writer.write(TaskArtifact(task_key=f"k{v}", spec={}, task_seed=v,
                              records=[{"x": float(v)}], stats={}))
    writer.finalize()
    writer.close()
    return path


def _write_quarantine(d: Path, v: int) -> Path:
    writer = QuarantineWriter(d / "campaign.jsonl", "campaign",
                              resume=False)
    writer.add(QuarantineEntry(task_key=f"k{v}", spec={}, attempts=v,
                               error="boom"))
    writer.finalize(completed_keys=set())
    return quarantine_path_for(d / "campaign.jsonl")


def _write_trace(d: Path, v: int) -> Path:
    return write_trace(d / "campaign.trace.jsonl",
                       {"task": [{"name": "e", "sim_time": float(v)}]})


def _write_snapshot(d: Path, v: int) -> Path:
    path = d / "checkpoint.json"
    write_snapshot(path, Snapshot(kind="scenario-slice", payload={"v": v}))
    return path


def _write_report(d: Path, v: int) -> Path:
    report = VerifyReport(suite="smoke", seed=v, preset="mini3")
    report.add(passed("check", "subject"))
    return write_report(d / "verify.jsonl", report)


def _write_repro(d: Path, v: int) -> Path:
    spec = ExperimentSpec.make("verify_case", "mini3", 7, case="relabel",
                               index=0, t0=0, medium="wifi", n_seeds=2)
    fuzzer = ScenarioFuzzer(repro_dir=d, metrics=MetricsRegistry())
    return fuzzer.write_repro(spec, [failed("check", "subject", f"v{v}")])


def _bench_document(sample: float) -> BenchDocument:
    doc = BenchDocument(environment=Environment(
        python="3.11", platform="linux", cpu_count=1, numpy="2.0"))
    doc.add(BenchResult(name="a.b", samples_s=(sample,)))
    return doc


def _write_bench(d: Path, v: int) -> Path:
    path = d / "BENCH.json"
    write_document(path, _bench_document(float(v)))
    return path


def _write_campaign(d: Path, v: int) -> Path:
    campaign = Campaign(name="survey", seed=v)
    campaign.add(LinkMetricRecord(time=float(v), src="0", dst="1",
                                  medium="plc", capacity_bps=1e6))
    path = d / "survey.jsonl"
    save_campaign(campaign, path)
    return path


#: format -> (writer, reader, layout). ``lines`` files carry their
#: envelope on the first line; a ``document`` is the envelope.
FORMATS = {
    "artifacts": (_write_artifacts, read_artifacts, "lines"),
    "quarantine": (_write_quarantine, read_quarantine, "lines"),
    "trace": (_write_trace, read_trace, "lines"),
    "snapshot": (_write_snapshot, read_snapshot, "document"),
    "verify-report": (_write_report, read_report, "lines"),
    "fuzz-repro": (_write_repro, replay_repro, "document"),
    "bench": (_write_bench, read_document, "document"),
    "saved-campaign": (_write_campaign, load_campaign, "lines"),
}
LINE_FORMATS = sorted(name for name, (_, _, layout) in FORMATS.items()
                      if layout == "lines")


# --- the refusal battery ------------------------------------------------------


def _with(key, value):
    return lambda data: json.dumps({**data, key: value})


#: damage name -> new envelope text, from the intact envelope's value.
DAMAGE = {
    "not-json": lambda data: "this is not json",
    "not-an-object": lambda data: "[1, 2, 3]",
    "foreign-format": _with("format", "somebody-elses-format"),
    "no-version": lambda data: json.dumps(
        {k: v for k, v in data.items() if k != "version"}),
    "past-version": lambda data: json.dumps(
        {**data, "version": data["version"] - 1}),
    "future-version": _with("version", 99),
}


def _damage_envelope(path: Path, layout: str, damage) -> None:
    text = path.read_text(encoding="utf-8")
    if layout == "document":
        text = damage(json.loads(text))
    else:
        header, rest = text.split("\n", 1)
        text = damage(json.loads(header)) + "\n" + rest
    path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_reader_refuses_a_damaged_envelope(tmp_path, fmt, damage):
    write, read, layout = FORMATS[fmt]
    path = write(tmp_path, 1)
    _damage_envelope(path, layout, DAMAGE[damage])
    with pytest.raises(FormatError, match=re.escape(str(path))):
        read(path)


def test_snapshot_hash_mismatch_is_an_integrity_error(tmp_path):
    path = _write_snapshot(tmp_path, 1)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"v":1', '"v":2'), encoding="utf-8")
    with pytest.raises(IntegrityError, match=re.escape(str(path))):
        read_snapshot(path)


@pytest.mark.parametrize("fmt", LINE_FORMATS)
def test_torn_tail_is_tolerated(tmp_path, fmt):
    write, read, _ = FORMATS[fmt]
    path = write(tmp_path, 1)
    intact = read(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"task_key": "k2", "spec": {"kin')
    assert read(path) == intact


@pytest.mark.parametrize("fmt", LINE_FORMATS)
def test_corrupt_line_before_the_tail_is_refused(tmp_path, fmt):
    write, read, _ = FORMATS[fmt]
    path = write(tmp_path, 1)
    header, rest = path.read_text(encoding="utf-8").split("\n", 1)
    path.write_text(header + '\n{"task_key": "k2", "spec": {"kin\n' + rest,
                    encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}:2")):
        read(path)


# --- NaN, in both encoded forms -----------------------------------------------


def test_compact_form_refuses_nan_before_writing(tmp_path):
    path = tmp_path / "campaign.jsonl"
    writer = ArtifactWriter(path, "campaign", resume=False)
    writer.write(TaskArtifact(task_key="k1", spec={}, task_seed=1,
                              records=[{"x": 1.0}], stats={}))
    before = path.read_bytes()
    with pytest.raises(ValueError):
        writer.write(TaskArtifact(task_key="k2", spec={}, task_seed=2,
                                  records=[{"x": float("nan")}], stats={}))
    assert path.read_bytes() == before
    writer.finalize()
    writer.close()
    assert [t.task_key for t in read_artifacts(path)[1]] == ["k1"]


def test_indented_form_refuses_nan_before_writing(tmp_path):
    path = _write_bench(tmp_path, 1)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_document(path, _bench_document(float("nan")))
    assert path.read_bytes() == before


# --- crash safety of every whole-file writer ----------------------------------


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_whole_file_writer_survives_a_failed_rename(tmp_path, monkeypatch,
                                                    fmt):
    write, _, _ = FORMATS[fmt]
    path = write(tmp_path, 1)
    before = path.read_bytes()
    listing = sorted(tmp_path.rglob("*"))
    calls = []
    real_fsync = os.fsync

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino))
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="simulated crash"):
        write(tmp_path, 2)
    assert path.read_bytes() == before
    assert sorted(tmp_path.rglob("*")) == listing, "tmp file left behind"
    # The tmp file renamed over the target was fsynced first.
    assert calls[-1][0] == "replace"
    assert ("fsync", calls[-1][1]) in calls[:-1]


# --- one implementation -------------------------------------------------------


#: Mirrors the ruff TID251 entries in pyproject.toml; ``write_text`` is a
#: method, which ruff's banned-api cannot name.
BANNED = re.compile(
    r"\bjson\s*\.\s*(dump|dumps|load|loads)\b"
    r"|\btempfile\s*\.\s*mkstemp\b"
    r"|\bos\s*\.\s*(replace|fsync)\b"
    r"|\bfrom\s+(json|tempfile|os)\s+import\b.*"
    r"\b(dump|dumps|load|loads|mkstemp|replace|fsync)\b"
    r"|\.write_text\s*\(")


def test_no_private_file_io_outside_the_wire_module():
    """Shipping code encodes, parses and writes files through
    ``repro.wire``; a private copy is where formats drift."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "wire.py":
            continue
        for lineno, line in enumerate(
                path.read_text().splitlines(), start=1):
            code = line.split("#", 1)[0]
            if BANNED.search(code):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}")
    assert not offenders, (
        "private JSON/atomic-write code outside repro.wire: "
        f"{offenders}")
