"""Shared plumbing: locating the program, running its CLI, reporting.

Every child process runs the CLI from the checkout's ``src/`` with the
interpreter running the benchmark.  Its standard output goes to a file
(outputs are compared byte for byte), and it is reaped with
``os.wait4`` so its peak resident set size is known.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Iterations of the calibration loop, and the loop's time on the 2-core
#: reference box at full speed.  See :class:`Gauge`.
CALIBRATION_LOOP = 1_000_000
CALIBRATION_REFERENCE_S = 0.06


class MissingProgram(RuntimeError):
    """The checkout holds no program to measure."""


def require_program() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")


def child_env(traced: bool = False) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC)] + ([str(ROOT)] if traced else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # One string-hash seed for every child: set and dict layouts, and with
    # them the timings, repeat from run to run.  Outputs do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def repeat_name(base: str, index: int) -> str:
    """``warm``, ``warm.2``, ``warm.3``...: names of repeated runs."""
    return base if index == 0 else f"{base}.{index + 1}"


def base_name(name: str) -> str:
    return name.split(".", 1)[0]


def calibration_s() -> float:
    """Median time of three runs of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(CALIBRATION_LOOP):
            total += value * value
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class Gauge:
    """Times steps, and reads the host's speed before each one.

    On a shared host the same command's wall time moves by up to half
    within minutes, and a fixed loop's time moves with it.  A reading is
    the loop's speed relative to the reference box.  A run's figures are
    medians of raw seconds multiplied by the median of all its readings
    (:meth:`reference`), which cancels a run landing in a slow or fast
    spell of the host.  Single readings are too noisy to correct a
    command of several seconds; a step of about a second is corrected by
    the readings on either side of it.  Raw seconds are printed too.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []

    def read(self) -> float:
        self.readings.append(CALIBRATION_REFERENCE_S / calibration_s())
        return self.readings[-1]

    def timed(self, work):
        """``(result, raw seconds)`` of ``work()``, after a reading."""
        self.read()
        started = time.perf_counter()
        result = work()
        return result, time.perf_counter() - started

    def reference(self, seconds: float) -> float:
        """``seconds`` in reference seconds, by the run's median speed."""
        return seconds * statistics.median(self.readings)


@dataclass
class Finished:
    """One finished child: raw wall time, exit code, stdout, peak RSS."""

    wall_s: float
    code: int
    stdout: bytes
    peak_rss_mb: float

    @property
    def ok(self) -> bool:
        return self.code == 0


def cli_argv(args: list[str], trace_out: Path | None = None) -> list[str]:
    """The command line running ``repro-study args`` (traced or not)."""
    if trace_out is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, "-m", "perfbench.traced_cli", str(trace_out), "--", *args]


def start(argv: list[str], log: Path, traced: bool = False) -> subprocess.Popen:
    """Start a child with stdout in ``log`` and stderr in ``log.err``."""
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        return subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(traced), cwd=ROOT)


def reap(process: subprocess.Popen, timeout: float | None = None) -> tuple[int, float]:
    """Wait for ``process``; returns (exit code, peak RSS in MB).

    Past ``timeout`` seconds the child is killed, and still reaped.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    flags = 0 if deadline is None else os.WNOHANG
    while True:
        pid, status, usage = os.wait4(process.pid, flags)
        if pid:
            break
        if time.monotonic() > deadline:
            process.kill()
            flags = 0
        else:
            time.sleep(0.01)
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, usage.ru_maxrss / 1024


def run_cli(
    gauge: Gauge, args: list[str], log: Path, trace_out: Path | None = None
) -> Finished:
    """Run one CLI command to completion and time it."""
    argv = cli_argv(args, trace_out)
    (code, rss), wall = gauge.timed(
        lambda: reap(start(argv, log, traced=trace_out is not None))
    )
    return Finished(wall, code, log.read_bytes(), rss)


def python_seconds(statement: str) -> float:
    """Seconds ``statement`` takes in a fresh interpreter, timed inside it."""
    program = (
        f"import time\nstarted = time.perf_counter()\n{statement}\n"
        "print(time.perf_counter() - started)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def median(values: list[float]) -> float:
    return statistics.median(values)


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = min(len(sorted_values) - 1, int(len(sorted_values) * share))
    return sorted_values[rank]


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


@dataclass
class Report:
    """What one workload run measured and checked."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    details: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: From a traced run: {"phases": {name: (span totals, wall_s)},
    #: "counters": {phase: tracer counters}, "given": {metric: value}}.
    traced: dict | None = None
    problems: list[str] = field(default_factory=list)
    tables: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def metric(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (float(value), unit)
        self.samples[name] = samples

    def detail(self, name: str, value: float, unit: str) -> None:
        """A named figure printed in the summary but not in the result line."""
        self.details[name] = (float(value), unit)

    def emit(self) -> None:
        """Print the summary, the run record, and the result line last."""
        for table in self.tables:
            print(table)
        print(f"== {self.workload} (seed {self.seed})")
        for name, (value, unit) in {**self.details, **self.metrics}.items():
            print(f"  {name:44s} {value:14.6g} {unit}")
        rate = self.failed / self.attempted if self.attempted else 0.0
        print(f"  {'error_rate':44s} {rate:14.6g} ratio ({self.failed}/{self.attempted})")
        for problem in self.problems[:20]:
            print(f"  FAILED: {problem}")
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "samples": self.samples,
        }
        print("run: " + json.dumps(record, sort_keys=True))
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }
        print(json.dumps(result), flush=True)
