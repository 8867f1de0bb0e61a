"""The ``study`` workload: the researcher's path through the CLI.

1. Set-up: ``repro-study simulate`` writes the seeded corpus, three
   times; the three files must be byte-identical.
2. The first 95 % of the corpus lines become the log.  ``analyze
   --cache-dir`` runs on it cold (empty cache), then warm.
3. The last 5 % are appended and ``analyze --cache-dir`` runs again.
4. ``analyze --jobs 2 --executor process`` runs on the full log with no
   cache; its stdout must equal the append run's.

Steps 2-4 make the first round.  Later rounds repeat step 2 on a fresh
cache, so the cold and warm figures are medians of several runs.

Most of the work is in simulation, logs, pipeline, analysis and
reporting; the last step is where data-heavy shards cross process
boundaries.  Robots and the decision service do almost nothing here.
"""

from __future__ import annotations

import json
from pathlib import Path

from perfbench import harness
from perfbench.tracing import aggregate

SCALE = "0.01"
PREFIX_SHARE = 0.95
SETUP_REPEATS = 3
#: Warm runs per round: a warm run is short, so it needs more samples.
WARM_REPEATS = 2
#: Seconds of ``--seconds`` one round stands for.
ROUND_SECONDS = 20


def split_corpus(corpus: bytes, share: float = PREFIX_SHARE) -> tuple[bytes, bytes]:
    """The first ``share`` of the lines, and the rest."""
    lines = corpus.splitlines(keepends=True)
    cut = int(len(lines) * share)
    return b"".join(lines[:cut]), b"".join(lines[cut:])


def check_outputs(report: harness.Report, runs: dict[str, harness.Finished]) -> None:
    """Exit codes, then every warm == cold and append == sharded, byte
    for byte."""
    for name, done in runs.items():
        report.check(done.ok, f"analyze {name} exited with {done.code}")
        if name.startswith("warm"):
            report.check(
                done.stdout == runs["cold"].stdout and done.stdout != b"",
                f"{name} stdout differs from cold stdout",
            )
    if "append" in runs:
        report.check(
            runs["append"].stdout == runs["sharded"].stdout and runs["append"].stdout != b"",
            "append stdout differs from the sharded full-log stdout",
        )


def simulate(
    gauge: harness.Gauge, work: Path, seed: int, name: str, trace_out: Path | None = None
) -> harness.Finished:
    corpus = work / f"{name}.jsonl"
    args = ["simulate", "--scale", SCALE, "--seed", str(seed), "--output", str(corpus)]
    return harness.run_cli(gauge, args, work / f"{name}.log", trace_out)


def analyze_round(
    gauge: harness.Gauge,
    work: Path,
    seed: int,
    corpus: bytes,
    full: bool = True,
    warm_repeats: int = 1,
    traces: Path | None = None,
) -> dict[str, harness.Finished]:
    """Cold and warm ``analyze`` over the prefix; a full round goes on
    to the append and sharded runs."""
    prefix, suffix = split_corpus(corpus)
    log = work / "study.jsonl"
    log.write_bytes(prefix)
    cache = harness.fresh_dir(work / "cache")
    cached = [str(log), "--seed", str(seed), "--cache-dir", str(cache)]
    plan = {"cold": cached}
    plan.update({harness.repeat_name("warm", i): cached for i in range(warm_repeats)})
    if full:
        plan["append"] = cached
        plan["sharded"] = [str(log), "--seed", str(seed), "--jobs", "2", "--executor", "process"]
    runs = {}
    for name, args in plan.items():
        if name == "append":
            with open(log, "ab") as handle:
                handle.write(suffix)
        trace_out = None if traces is None else traces / f"{name}.json"
        runs[name] = harness.run_cli(gauge, ["analyze", *args], work / f"{name}.out", trace_out)
    return runs


def _records(corpus: bytes) -> int:
    return corpus.count(b"\n")


def run(seed: int, seconds: int, trace: bool) -> harness.Report:
    report = harness.Report("study", seed)
    work = harness.fresh_dir(harness.WORK / "study")
    repeats = 1 if trace else SETUP_REPEATS
    gauge = harness.Gauge()
    setups = [simulate(gauge, work, seed, f"corpus{attempt}") for attempt in range(repeats)]
    corpora = [(work / f"corpus{attempt}.jsonl").read_bytes() for attempt in range(repeats)]
    for attempt, done in enumerate(setups):
        report.check(done.ok, f"simulate {attempt} exited with {done.code}")
        report.check(corpora[attempt] == corpora[0], f"simulate {attempt} corpus differs")
    corpus = corpora[0]
    prefix_records = _records(split_corpus(corpus)[0])

    rounds = []
    for index in range(1 if trace else max(1, seconds // ROUND_SECONDS)):
        warm = 1 if trace else WARM_REPEATS
        runs = analyze_round(gauge, work, seed, corpus, full=index == 0, warm_repeats=warm)
        check_outputs(report, runs)
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

    setup_s = gauge.reference(harness.median([done.wall_s for done in setups]))
    peak = max(done.peak_rss_mb for runs in rounds for done in runs.values())
    report.detail("records", _records(corpus), "count")
    report.detail("simulate_s", setup_s, "s")
    for name in ("cold", "warm", "append", "sharded"):
        report.detail(f"analyze_{name}_s", typical(name), "s")
        report.detail(f"analyze_{name}_raw_s", harness.median(samples(name)), "s")
    report.detail("analyze_peak_rss_mb", peak, "MB")

    if not trace:
        parts = ("cold", "warm", "append", "sharded")
        report.metric("setup_s", setup_s, "s", len(setups))
        report.metric("cold_per_s", prefix_records / typical("cold"), "1/s", len(samples("cold")))
        report.metric("warm_per_s", prefix_records / typical("warm"), "1/s", len(samples("warm")))
        report.metric(
            "work_s", sum(typical(name) for name in parts), "s",
            sum(len(samples(name)) for name in parts),
        )
        report.metric("peak_rss_mb", peak, "MB", sum(len(runs) for runs in rounds))
        return report

    traces = harness.fresh_dir(work / "traces")
    traced_setup = simulate(gauge, work, seed, "corpus-traced", traces / "simulate.json")
    report.check(traced_setup.ok, f"traced simulate exited with {traced_setup.code}")
    traced = analyze_round(gauge, work, seed, corpus, traces=traces)
    check_outputs(report, traced)
    traced["simulate"] = traced_setup
    untraced = dict(rounds[0], simulate=setups[0])
    phases, counters = {}, {}
    for name in ("simulate", "cold", "warm", "append", "sharded"):
        spans = json.loads((traces / f"{name}.json").read_text())
        phases[name] = (aggregate(spans["spans"]), traced[name].wall_s)
        counters[name] = spans["counters"]
    report.traced = {
        "phases": phases,
        "counters": counters,
        "given": {
            "trace.overhead_s": sum(done.wall_s for done in traced.values())
            - sum(done.wall_s for done in untraced.values())
        },
    }
    return report
