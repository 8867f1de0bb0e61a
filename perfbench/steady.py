"""Repeat a workload over several seeds and report how steady it is.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload study --runs 10 [--first-seed 1]
        [--seconds 40] [--markdown FILE]

Each run is a separate ``perfbench/run.py`` process with its own seed.
For every end-to-end metric the script prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), and the spread:
the interquartile range as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = done.stdout.strip().splitlines()
    for line in lines:
        if line.lstrip().startswith("FAILED:"):
            print(f"seed {seed}: {line.strip()}", flush=True)
    return json.loads(lines[-1])


def summarize(results: list[dict]) -> list[tuple[str, str, float, float, float, float]]:
    """(metric, unit, median, q1, q3, spread) per metric."""
    rows = []
    for name, first in results[0]["metrics"].items():
        values = [result["metrics"][name]["value"] for result in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        middle = statistics.median(values)
        rows.append((name, first["unit"], middle, q1, q3, (q3 - q1) / middle))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--markdown", type=Path, default=None)
    args = parser.parse_args(argv)
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = one_run(args.workload, seed, args.seconds)
        print(f"seed {seed}: " + json.dumps(result["metrics"]), flush=True)
        results.append(result)
    failed = sum(result["failed"] for result in results)
    attempted = sum(result["attempted"] for result in results)
    lines = [
        f"### {args.workload}: {args.runs} runs, seeds {args.first_seed}.."
        f"{args.first_seed + args.runs - 1}, --seconds {args.seconds}",
        "",
        f"failed {failed} of {attempted} operations",
        "",
        "| metric | unit | median | q1 | q3 | spread |",
        "| --- | --- | ---: | ---: | ---: | ---: |",
    ]
    for name, unit, middle, q1, q3, share in summarize(results):
        lines.append(f"| {name} | {unit} | {middle:.6g} | {q1:.6g} | {q3:.6g} | {share:.3f} |")
    text = "\n".join(lines) + "\n"
    print(text)
    if args.markdown is not None:
        with open(args.markdown, "a", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
