"""Shared fixtures: one testbed per session, canonical measurement times,
the golden-trace comparison harness (``--update-golden`` regenerates
the frozen reference outputs under ``tests/golden/``) and the planted
default-horizon bug the verify tests must catch."""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.netsim.runner import ScenarioRunner
from repro.sim.random import RandomStreams
from repro.testbed import build_testbed
from repro.testbed.experiments import night_start, working_hours_start

GOLDEN_DIR = Path(__file__).parent / "golden"

# Hypothesis settings profiles. Property tests rely on these instead of
# per-test ``@settings`` boilerplate: ``dev`` (the default) keeps local
# runs fast; ``ci`` is deterministic (``derandomize``) and never flakes
# on shared-runner timing (``deadline=None``). Select with
# ``HYPOTHESIS_PROFILE=ci pytest ...``. Tests whose *examples* are
# expensive (e.g. whole campaign runs) still pin ``max_examples`` down
# locally — a cost decision, not environment tuning.
settings.register_profile(
    "dev", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile(
    "ci", max_examples=50, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

#: Tolerances for golden comparisons: tight enough to catch any numeric
#: drift in the metric pipeline, loose enough to forgive libm/BLAS
#: last-bit differences across platforms.
GOLDEN_RTOL = 1e-9
GOLDEN_ATOL = 1e-6


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate the golden reference files under tests/golden/ "
             "instead of comparing against them")


def _assert_close(actual, expected, path: str) -> None:
    """Recursive numeric comparison with the golden tolerances."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected mapping"
        assert sorted(actual) == sorted(expected), (
            f"{path}: keys differ: {sorted(actual)} vs {sorted(expected)}")
        for key in expected:
            _assert_close(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, (list, tuple)), f"{path}: expected list"
        assert len(actual) == len(expected), (
            f"{path}: length {len(actual)} != {len(expected)}")
        for k, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{path}[{k}]")
    elif isinstance(expected, bool) or expected is None:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"
    elif isinstance(expected, (int, float)):
        assert np.isclose(float(actual), float(expected),
                          rtol=GOLDEN_RTOL, atol=GOLDEN_ATOL), (
            f"{path}: {actual!r} != {expected!r} "
            f"(rtol={GOLDEN_RTOL}, atol={GOLDEN_ATOL})")
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


def _rows_to_csv(rows) -> str:
    if not rows:
        # An empty golden is legitimate (e.g. a filter that matches
        # nothing); without a first row there are no fieldnames, so the
        # file is just empty text and DictReader round-trips it to [].
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=sorted(rows[0]))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v
                         for k, v in sorted(row.items())})
    return buf.getvalue()


@pytest.fixture()
def golden(request):
    """Compare ``data`` against a frozen reference, or regenerate it.

    ``golden("name.json", data)`` — nested dict/list/number structure,
    compared with tight tolerances. ``golden("name.csv", rows)`` — a list
    of flat dicts, rendered as CSV. Run ``pytest --update-golden`` after
    an *intentional* numeric change to refresh the references.
    """
    update = request.config.getoption("--update-golden")

    def check(name: str, data) -> None:
        path = GOLDEN_DIR / name
        if name.endswith(".csv"):
            rows = [dict(sorted(r.items())) for r in data]
            if update:
                GOLDEN_DIR.mkdir(exist_ok=True)
                path.write_text(_rows_to_csv(rows), encoding="utf-8")
                return
            assert path.exists(), (
                f"golden file {name} missing — run "
                f"`pytest --update-golden` to create it")
            reader = csv.DictReader(io.StringIO(
                path.read_text(encoding="utf-8")))
            expected = [
                {k: json.loads(v) if _numeric(v) else v
                 for k, v in row.items()} for row in reader]
            actual = [{k: v for k, v in row.items()} for row in rows]
            _assert_close(actual, expected, name)
        else:
            if update:
                GOLDEN_DIR.mkdir(exist_ok=True)
                path.write_text(
                    json.dumps(data, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
                return
            assert path.exists(), (
                f"golden file {name} missing — run "
                f"`pytest --update-golden` to create it")
            expected = json.loads(path.read_text(encoding="utf-8"))
            _assert_close(data, expected, name)

    return check


def _numeric(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


@pytest.fixture(scope="session")
def testbed():
    """The 19-station HPAV testbed (expensive parts are lazy)."""
    return build_testbed(seed=7)


@pytest.fixture(scope="session")
def t_work():
    """Wednesday 2 pm — 'during working hours' (§4.1)."""
    return working_hours_start()


@pytest.fixture(scope="session")
def t_night():
    """Wednesday 11:30 pm — quiet hours (§6.2 protocol)."""
    return night_start()


@pytest.fixture()
def streams():
    return RandomStreams(seed=1234)


# --- the planted default-horizon bug ------------------------------------------


class LegacyHorizonRunner(ScenarioRunner):
    """A runner with the historical default deadline ``t0 + (end_time +
    60)``, which double-offsets a late scenario start: the bug the
    default-horizon oracle and the time-shift relation exist to catch."""

    def default_deadline(self, scenario):
        t0 = min(f.start_s for f in scenario.flows)
        return t0 + (scenario.end_time() + 60.0)


@pytest.fixture()
def legacy_horizon(monkeypatch):
    """Plant the bug in every ``ScenarioRunner`` for one test — for code
    that builds its own runners (the fuzzer, an in-process replay)."""
    monkeypatch.setattr(ScenarioRunner, "default_deadline",
                        LegacyHorizonRunner.default_deadline)
