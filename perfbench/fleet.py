"""The ``fleet`` workload: the adversarial scenario grid.

A 288-cell grid (the 8 ``full_grid`` bots x 3 strategies x 3 deterrence
presets x 2 robots files x 2 traffic mixes, 2 days, 400 accesses) runs
through ``repro-study scenarios run`` three times:

- cold at ``--jobs 2`` with the process executor and an empty cache;
- warm on the same cache, twice (a warm run is short);
- cold through ``--executor queue --workers 2`` with a fresh spool and
  cache.

Later rounds repeat the cold and warm runs on a fresh cache, so those
figures are medians of several runs.

The cells are compute-bound shards, the opposite of ``study``'s
data-bound ones.  This is the only workload that runs ``scenarios``,
``bots`` under deterrence, and the distributed queue.

Set-up expands the seeded grid into its cell ids in a fresh interpreter,
three times; every run's stdout must list exactly those cells, in order,
and the three runs must print identical bytes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from perfbench import harness
from perfbench.tracing import aggregate

GRID = (
    "bots=GPTBot,ClaudeBot,Bytespider,YisouSpider,PerplexityBot,"
    "UA-Rotator,RobotsViolator,LowSlowFleet;"
    "strategy=honest,spoof_asn,fetch_violate;"
    "deterrence=none,robots,full;robots=base,v3;traffic=steady,burst;"
    "days=2;accesses_target=400"
)
SETUP_REPEATS = 3
#: Warm runs per round: a warm run is short, so it needs more samples.
WARM_REPEATS = 2
#: Seconds of ``--seconds`` one round stands for.
ROUND_SECONDS = 20

_CELL_IDS = (
    "import sys\n"
    "from repro.scenarios import parse_grid\n"
    "grid = parse_grid(sys.argv[1], seed=int(sys.argv[2]))\n"
    "print('\\n'.join(spec.cell_id() for spec in grid.cells()))\n"
)


def cell_ids(gauge: harness.Gauge, seed: int) -> tuple[float, list[str]]:
    """(raw seconds, the grid's cell ids) from a fresh interpreter."""
    done, wall = gauge.timed(
        lambda: subprocess.run(
            [sys.executable, "-c", _CELL_IDS, GRID, str(seed)],
            env=harness.child_env(),
            cwd=harness.ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    )
    return wall, done.stdout.split()


def listed_cells(stdout: bytes) -> list[str]:
    """The cell ids a ``scenarios run`` printed, in order."""
    return [line.split(":", 1)[0] for line in stdout.decode().splitlines() if line]


def check_outputs(
    report: harness.Report, runs: dict[str, harness.Finished], expected: list[str]
) -> None:
    """Exit codes, the expected cells in order, stdout identical to cold's."""
    for name, done in runs.items():
        report.check(done.ok, f"scenarios {name} exited with {done.code}")
        report.check(listed_cells(done.stdout) == expected, f"{name} printed other cells")
        if name != "cold":
            report.check(done.stdout == runs["cold"].stdout, f"{name} stdout differs from cold")


def grid_round(
    gauge: harness.Gauge,
    work: Path,
    seed: int,
    full: bool = True,
    warm_repeats: int = 1,
    traces: Path | None = None,
) -> dict[str, harness.Finished]:
    """Cold and warm runs of the grid; a full round adds the queue run."""
    cache = harness.fresh_dir(work / "cache")
    grid = ["scenarios", "run", "--grid", GRID, "--seed", str(seed), "--jobs", "2"]
    cached = [*grid, "--executor", "process", "--cache-dir", str(cache)]
    plan = {"cold": cached}
    plan.update({harness.repeat_name("warm", i): cached for i in range(warm_repeats)})
    if full:
        queue_cache = harness.fresh_dir(work / "queue-cache")
        spool = harness.fresh_dir(work / "spool")
        plan["queue"] = [*grid, "--executor", "queue", "--workers", "2",
                         "--spool", str(spool), "--cache-dir", str(queue_cache)]
    return {
        name: harness.run_cli(
            gauge, args, work / f"{name}.out", None if traces is None else traces / f"{name}.json"
        )
        for name, args in plan.items()
    }


def run(seed: int, seconds: int, trace: bool) -> harness.Report:
    report = harness.Report("fleet", seed)
    work = harness.fresh_dir(harness.WORK / "fleet")
    gauge = harness.Gauge()
    setups = [cell_ids(gauge, seed) for _ in range(SETUP_REPEATS)]
    expected = setups[0][1]
    for attempt, (_, cells) in enumerate(setups):
        report.check(cells == expected and len(cells) == 288, f"grid expansion {attempt} differs")

    rounds = []
    for index in range(1 if trace else max(1, seconds // ROUND_SECONDS)):
        warm = 1 if trace else WARM_REPEATS
        runs = grid_round(gauge, work, seed, full=index == 0, warm_repeats=warm)
        check_outputs(report, runs, expected)
        rounds.append(runs)

    def samples(name: str) -> list[float]:
        return [
            done.wall_s
            for runs in rounds
            for key, done in runs.items()
            if harness.base_name(key) == name
        ]

    def typical(name: str) -> float:
        return gauge.reference(harness.median(samples(name)))

    peak = max(done.peak_rss_mb for runs in rounds for done in runs.values())
    for name in ("cold", "warm", "queue"):
        report.detail(f"grid_{name}_s", typical(name), "s")
        report.detail(f"grid_{name}_raw_s", harness.median(samples(name)), "s")
    if not trace:
        cells = len(expected)
        setup_s = gauge.reference(harness.median([wall for wall, _ in setups]))
        report.metric("setup_s", setup_s, "s", len(setups))
        parts = ("cold", "warm", "queue")
        report.metric("cold_per_s", cells / typical("cold"), "1/s", len(samples("cold")))
        report.metric("warm_per_s", cells / typical("warm"), "1/s", len(samples("warm")))
        report.metric(
            "work_s", sum(typical(name) for name in parts), "s",
            sum(len(samples(name)) for name in parts),
        )
        report.metric("peak_rss_mb", peak, "MB", sum(len(runs) for runs in rounds))
        return report

    traces = harness.fresh_dir(work / "traces")
    traced = grid_round(gauge, work, seed, traces=traces)
    check_outputs(report, traced, expected)
    phases, counters = {}, {}
    for name in ("cold", "warm", "queue"):
        spans = json.loads((traces / f"{name}.json").read_text())
        phases[name] = (aggregate(spans["spans"]), traced[name].wall_s)
        counters[name] = spans["counters"]
    cold = phases["cold"][0]
    report.traced = {
        "phases": phases,
        "counters": counters,
        "given": {
            "trace.overhead_s": sum(done.wall_s for done in traced.values())
            - sum(rounds[0][name].wall_s for name in traced),
            # Cells run in worker processes: time them from the parent.
            "scenarios.cell_s": sum(
                cold.get(key, {}).get("self_s", 0.0)
                for key in ("scenarios.cell", "pipeline.shard_map")
            ),
        },
    }
    return report
