"""Commands load only what they run.

numpy drives the simulator's RNG and nothing else, so the CLI module,
the decision service, and every command that reads a log or a warm
cache must work with numpy unimportable — and print the same bytes as
a normal run.  Beyond numpy, each command has an import budget: the
packages it must not load, checked on ``sys.modules`` (never on a
clock).  Each check runs in a fresh interpreter, since the test
process itself has long since imported everything.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.logs.io import write_jsonl
from repro.simulation import SimulationEngine, quick_scenario

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules that only simulating (a study or a scenario cell) needs.
SIMULATOR_MODULES = (
    "numpy",
    "repro.bots.agent",
    "repro.simulation.engine",
    "repro.scenarios.simulate",
    "repro.web.generator",
)

#: Makes ``import numpy`` raise ModuleNotFoundError.
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "
RUN_CLI = "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))"
#: At exit, prints the loaded module names as a JSON list, last on stderr.
REPORT_MODULES = (
    "import atexit, json, sys; atexit.register(lambda: "
    "print(json.dumps(sorted(sys.modules)), file=sys.stderr)); "
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    return env


def _python(code: str, *args: str, cwd: Path | None = None):
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=_env(),
        capture_output=True,
        text=True,
    )


def _cli(*args: str, cwd: Path, block_numpy: bool):
    result = _python((BLOCK_NUMPY if block_numpy else "") + RUN_CLI, *args, cwd=cwd)
    assert result.returncode == 0, result.stderr
    return result


def _reported_modules(stderr: str) -> list[str]:
    return json.loads(stderr.splitlines()[-1])


def _loaded_by_cli(*args: str, cwd: Path) -> list[str]:
    """The modules a CLI run has loaded by the time it exits."""
    result = _python(REPORT_MODULES + RUN_CLI, *args, cwd=cwd)
    assert result.returncode == 0, result.stderr
    return _reported_modules(result.stderr)


def _over_budget(loaded: list[str], banned: tuple[str, ...]) -> list[str]:
    """The loaded modules that are, or sit inside, a banned name."""
    return [
        name
        for name in loaded
        if any(name == ban or name.startswith(ban + ".") for ban in banned)
    ]


@pytest.fixture(scope="module")
def tiny_log(tmp_path_factory):
    dataset = SimulationEngine(
        scenario=quick_scenario(scale=0.05, seed=13), with_noise=False
    ).run()
    log = tmp_path_factory.mktemp("floor") / "study.jsonl"
    write_jsonl(dataset.records, log)
    return log


def test_cli_import_leaves_the_simulator_unloaded():
    result = _python(
        "import sys, repro.cli; "
        f"print([m for m in {SIMULATOR_MODULES!r} if m in sys.modules])"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_service_imports_without_numpy():
    result = _python(BLOCK_NUMPY + "import repro.service")
    assert result.returncode == 0, result.stderr


def test_analyze_cold_and_warm_without_numpy(tiny_log, tmp_path):
    log = str(tiny_log)
    expected = _cli("analyze", log, cwd=tmp_path, block_numpy=False).stdout
    cold = _cli("analyze", log, "--cache-dir", "c", cwd=tmp_path, block_numpy=True)
    warm = _cli("analyze", log, "--cache-dir", "c", cwd=tmp_path, block_numpy=True)
    assert cold.stdout == expected
    assert warm.stdout == expected
    assert " 0 miss(es)" in warm.stderr


QUICK_GRID = ("scenarios", "run", "--grid", "quick", "--cache-dir", "c")


@pytest.fixture(scope="module")
def quick_grid_cache(tmp_path_factory):
    """(working dir whose ``c`` cache holds every quick-grid cell, the
    cold run's stdout)."""
    work = tmp_path_factory.mktemp("grid")
    return work, _cli(*QUICK_GRID, cwd=work, block_numpy=False).stdout


def test_warm_scenarios_run_without_numpy(quick_grid_cache):
    work, expected = quick_grid_cache
    warm = _cli(*QUICK_GRID, cwd=work, block_numpy=True)
    assert warm.stdout == expected
    assert "0 computed" in warm.stderr


# -- import budgets ------------------------------------------------------


def test_cli_import_budget():
    result = _python(REPORT_MODULES + "import repro.cli")
    assert result.returncode == 0, result.stderr
    banned = (
        "repro.pipeline",
        "repro.analysis",
        "repro.reporting",
        "repro.robots",
        "repro.logs.columnar",
        "repro.logs.preprocess",
        "multiprocessing",
        "concurrent.futures",
    )
    assert _over_budget(_reported_modules(result.stderr), banned) == []


def test_grid_expansion_import_budget():
    result = _python(
        REPORT_MODULES
        + "from repro.scenarios import parse_grid; parse_grid('quick').cells()"
    )
    assert result.returncode == 0, result.stderr
    banned = ("repro.logs", "repro.analysis", "repro.pipeline.runner")
    assert _over_budget(_reported_modules(result.stderr), banned) == []


def test_warm_scenarios_run_import_budget(quick_grid_cache):
    work, _expected = quick_grid_cache
    loaded = _loaded_by_cli(*QUICK_GRID, cwd=work)
    banned = (
        "repro.analysis",
        "repro.reporting.study",
        "repro.logs.preprocess",
        "multiprocessing",
        "numpy",
    )
    assert _over_budget(loaded, banned) == []
    assert "repro.scenarios.matrix" in loaded  # the run did run


def test_versions_import_budget(tmp_path):
    loaded = _loaded_by_cli("versions", cwd=tmp_path)
    assert _over_budget(loaded, ("repro.pipeline", "repro.analysis")) == []
    assert "repro.robots.corpus" in loaded


def test_serve_import_budget():
    """``serve`` answers over the paper corpus, then stops on SIGTERM,
    without having loaded the pipeline or the analysis."""
    server = subprocess.Popen(
        [sys.executable, "-c", REPORT_MODULES + RUN_CLI, "serve", "--port", "0"],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = server.stdout.readline()
        assert banner.startswith("serving on http://127.0.0.1:"), banner
        server.send_signal(signal.SIGTERM)
        _out, err = server.communicate(timeout=10)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert server.returncode == 0, err
    loaded = _reported_modules(err)
    assert _over_budget(loaded, ("repro.pipeline", "repro.analysis")) == []
    assert "repro.service.http" in loaded
