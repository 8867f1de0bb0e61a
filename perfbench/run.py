"""Run one benchmark workload and print its result line last.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study|verdicts|fleet|all \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload untraced and then again with the layer
wrappers installed, and reports the per-layer metrics plus the tracing
overhead.  ``all`` runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, perlayer  # noqa: E402

WORKLOADS = ("study", "verdicts", "fleet")


def run_one(name: str, seed: int, seconds: int, trace: bool) -> harness.Report:
    module = importlib.import_module(f"perfbench.{name}")
    report = module.run(seed, seconds, trace)
    if trace:
        perlayer.finish(report)
    return report


def combine(reports: list[harness.Report]) -> harness.Report:
    """One result over several workloads; metric names get the workload
    as a prefix."""
    combined = harness.Report("all", reports[0].seed)
    for report in reports:
        combined.attempted += report.attempted
        combined.failed += report.failed
        combined.problems += report.problems
        for name, (value, unit) in report.metrics.items():
            combined.metric(f"{report.workload}.{name}", value, unit, report.samples[name])
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.require_program()
    except harness.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    if len(reports) > 1:
        reports.append(combine(reports))
    for report in reports:
        report.emit()
    shutil.rmtree(harness.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
