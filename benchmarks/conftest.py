"""Benchmark fixtures: one shared simulated study per session.

The simulation (paper calendar, scale 0.1, ~500 k raw accesses) and
its preprocessing run once; each benchmark then measures its
experiment driver against a *fresh* analysis view so cached properties
do not hide the measured work.
"""

from __future__ import annotations

import json
import os
import platform

import pytest

from repro.reporting.study import StudyAnalysis
from repro.simulation import run_study

#: Volume relative to the paper's (1.0 ~ 3.9 M raw accesses).
BENCH_SCALE = 0.1
BENCH_SEED = 2025


@pytest.fixture(scope="session")
def study_dataset():
    return run_study(scale=BENCH_SCALE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def base_analysis(study_dataset):
    """Preprocessed once; used as the template for fresh views."""
    return StudyAnalysis(study_dataset)


@pytest.fixture()
def fresh_analysis(base_analysis):
    """An analysis view sharing preprocessed records but with cold
    caches, so each benchmark round recomputes its own analysis."""

    preprocessed = (base_analysis.records, base_analysis.preprocess_report)

    def make() -> StudyAnalysis:
        view = StudyAnalysis.from_source(preprocessed[0], base_analysis.scenario)
        view.pipeline.seed("preprocess", preprocessed)
        return view

    return make


# -- per-commit timing artifact ------------------------------------------
#
# When BENCH_JSON names a path, the session's benchmark timings are
# written there as JSON: the hand-rolled speedup measurements recorded
# via the ``bench_timings`` fixture plus every pytest-benchmark
# fixture's stats.  CI uploads the file as a ``BENCH_<sha>`` workflow
# artifact so the perf trajectory is tracked per commit instead of
# being lost in job logs.

#: Entries recorded by the hand-rolled speedup benchmarks this session.
BENCH_RESULTS: list[dict] = []


def record_timing(name: str, **fields) -> None:
    """Append one timing entry to the session's JSON report."""
    entry = {"name": name, "kind": "speedup"}
    entry.update(fields)
    BENCH_RESULTS.append(entry)


@pytest.fixture(scope="session")
def bench_timings():
    """The recorder callable, as a fixture so bench modules need no
    conftest import."""
    return record_timing


def _fixture_benchmark_entries(session) -> list[dict]:
    """Stats from pytest-benchmark's fixture-based benchmarks.

    Reaches into the plugin's session object (no public API for this);
    every attribute access is guarded so a plugin upgrade degrades to
    an empty list rather than breaking the advisory CI step.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return []
    entries: list[dict] = []
    for bench in getattr(bench_session, "benchmarks", []):
        stats = getattr(bench, "stats", None)
        inner = getattr(stats, "stats", stats)
        entry: dict = {
            "name": getattr(bench, "fullname", None)
            or getattr(bench, "name", "?"),
            "kind": "pytest-benchmark",
        }
        for metric in ("min", "max", "mean", "stddev", "median", "rounds"):
            value = getattr(inner, metric, None)
            if value is None:
                value = getattr(stats, metric, None)
            if isinstance(value, (int, float)):
                entry[metric] = value
        entries.append(entry)
    return entries


def pytest_sessionfinish(session, exitstatus):
    path = os.environ.get("BENCH_JSON")
    if not path:
        return
    payload = {
        "schema": 1,
        "sha": os.environ.get("GITHUB_SHA", ""),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "entries": BENCH_RESULTS + _fixture_benchmark_entries(session),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
