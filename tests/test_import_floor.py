"""Commands load only what they run.

numpy drives the simulator's RNG and nothing else, so the CLI module,
the decision service, and every command that reads a log or a warm
cache must work with numpy unimportable — and print the same bytes as
a normal run.  Each check runs in a fresh interpreter, since the test
process itself has long since imported everything.
"""

from __future__ import annotations

import os
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


def _python(code: str, *args: str, cwd: Path | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def _cli(*args: str, cwd: Path, block_numpy: bool):
    result = _python((BLOCK_NUMPY if block_numpy else "") + RUN_CLI, *args, cwd=cwd)
    assert result.returncode == 0, result.stderr
    return result


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


def test_warm_scenarios_run_without_numpy(tmp_path):
    args = ("scenarios", "run", "--grid", "quick", "--cache-dir", "c")
    expected = _cli(*args, cwd=tmp_path, block_numpy=False)
    warm = _cli(*args, cwd=tmp_path, block_numpy=True)
    assert warm.stdout == expected.stdout
    assert "0 computed" in warm.stderr
