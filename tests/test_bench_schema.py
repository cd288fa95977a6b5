"""The canonical BENCH schema: round-trip, versioning, trajectory."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from repro.wire import FormatError

# --- strategies ---------------------------------------------------------------

_ident = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_",
                 min_size=1, max_size=12)
_name = st.builds(lambda a, b: f"{a}.{b}", _ident, _ident)
_finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False)

_result = st.builds(
    BenchResult,
    name=_name,
    samples_s=st.lists(_finite, min_size=1, max_size=8).map(tuple),
    warmup_discarded=st.integers(min_value=0, max_value=5),
    metrics=st.dictionaries(_ident, _finite, max_size=4),
    tags=st.lists(_ident, max_size=3).map(tuple),
    figure=st.one_of(st.none(), _ident),
)

_environment = st.builds(
    Environment,
    python=_ident, platform=_ident,
    cpu_count=st.integers(min_value=1, max_value=256),
    numpy=_ident,
    git_sha=st.one_of(st.none(), st.text(alphabet="0123456789abcdef",
                                         min_size=40, max_size=40)),
)


@st.composite
def _documents(draw):
    doc = BenchDocument(environment=draw(_environment))
    for result in draw(st.lists(_result, max_size=5,
                                unique_by=lambda r: r.name)):
        doc.add(result)
    return doc


# --- round trip ---------------------------------------------------------------


@given(_documents())
def test_dump_load_round_trip(doc):
    assert load_document(dump_document(doc)) == doc


@given(_documents())
def test_dump_is_canonical(doc):
    """Same document, same bytes — dumps are diffable baselines."""
    assert dump_document(doc) == dump_document(
        load_document(dump_document(doc)))


def test_write_read_file_round_trip(tmp_path):
    doc = BenchDocument(environment=Environment.capture())
    doc.add(BenchResult(name="a.b", samples_s=(0.25, 0.5),
                        metrics={"k": 2.0}, tags=("t",), figure="§4.1"))
    path = tmp_path / "BENCH.json"
    write_document(path, doc)
    loaded = read_document(path)
    assert loaded == doc
    assert loaded.results["a.b"].min_s == 0.25
    assert loaded.results["a.b"].mean_s == pytest.approx(0.375)
    assert loaded.results["a.b"].repeats == 2


def test_derived_aggregates_ride_along_but_are_recomputed(tmp_path):
    doc = BenchDocument(environment=Environment.capture())
    doc.add(BenchResult(name="a.b", samples_s=(1.0, 3.0)))
    data = json.loads(dump_document(doc))
    assert data["results"]["a.b"]["min_s"] == 1.0
    assert data["results"]["a.b"]["mean_s"] == 2.0
    # Tampering with the stored aggregate changes nothing: the loader
    # derives from samples.
    data["results"]["a.b"]["min_s"] = 99.0
    assert load_document(json.dumps(data)).results["a.b"].min_s == 1.0


# --- refusal paths (the shared battery is tests/test_wire.py) -----------------


def _valid_dict():
    doc = BenchDocument(environment=Environment.capture())
    doc.add(BenchResult(name="a.b", samples_s=(0.5,)))
    return doc.to_dict()


def test_version_mismatch_is_refused():
    data = _valid_dict()
    data["version"] = BENCH_SCHEMA_VERSION + 1
    with pytest.raises(FormatError,
                       match="this program reads only version 1"):
        BenchDocument.from_dict(data)


def test_foreign_format_is_refused():
    data = _valid_dict()
    data["format"] = "somebody-elses-bench"
    with pytest.raises(FormatError, match="not a repro-bench"):
        BenchDocument.from_dict(data)


def test_legacy_ad_hoc_bench_json_is_refused():
    """The pre-unification shapes (no format/version header) must not
    load as if they were canonical documents."""
    legacy = {"plc": {"scalar_s": 18.0, "batch_s": 1.5, "speedup": 12.0}}
    with pytest.raises(FormatError):
        BenchDocument.from_dict(legacy)


def test_nan_samples_refuse_to_dump():
    doc = BenchDocument(environment=Environment.capture())
    doc.add(BenchResult(name="a.b", samples_s=(float("nan"),)))
    with pytest.raises(ValueError):
        dump_document(doc)


def test_empty_samples_are_invalid():
    with pytest.raises(ValueError, match="at least one sample"):
        BenchResult(name="a.b", samples_s=())


# --- baseline resolution ------------------------------------------------------


def test_find_document_resolves_directories(tmp_path):
    assert find_document(tmp_path) == tmp_path / "BENCH.json"
    f = tmp_path / "custom.json"
    f.write_text("{}")
    assert find_document(f) == f


# --- trajectory ---------------------------------------------------------------


def test_trajectory_append_and_read(tmp_path):
    path = tmp_path / "trajectory.jsonl"
    doc = BenchDocument(environment=Environment.capture())
    doc.add(BenchResult(name="a.b", samples_s=(0.5, 0.25)))
    append_trajectory(path, doc)
    append_trajectory(path, doc)
    records = read_trajectory(path)
    assert len(records) == 2
    assert records[0]["min_s"] == {"a.b": 0.25}
    assert records[0]["format"] == BENCH_FORMAT
    assert records[0]["environment"]["python"] == doc.environment.python


def test_trajectory_tolerates_torn_tail_and_noise(tmp_path):
    path = tmp_path / "trajectory.jsonl"
    doc = BenchDocument(environment=Environment.capture())
    doc.add(BenchResult(name="a.b", samples_s=(1.0,)))
    append_trajectory(path, doc)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"format": "other"}\n')      # foreign record: skipped
        fh.write(trajectory_line(doc)[:20])    # torn tail: skipped
    assert len(read_trajectory(path)) == 1


def test_trajectory_refuses_a_corrupt_line_mid_history(tmp_path):
    """Only the last line may be torn: a malformed line with records
    after it is damage, not a killed append, and must not vanish."""
    path = tmp_path / "trajectory.jsonl"
    doc = BenchDocument(environment=Environment.capture())
    doc.add(BenchResult(name="a.b", samples_s=(1.0,)))
    append_trajectory(path, doc)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"format": "repro-bench", "min_s": \n')
    append_trajectory(path, doc)
    with pytest.raises(FormatError, match=re.escape(f"{path}:2")):
        read_trajectory(path)


def test_trajectory_missing_file_is_empty(tmp_path):
    assert read_trajectory(tmp_path / "nope.jsonl") == []
