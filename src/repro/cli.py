"""Command-line interface: ``repro-study``.

Subcommands:

``simulate``
    Run the study simulation and write the raw log (JSONL, CSV, or —
    with the ``[parquet]`` extra — Parquet).
``analyze``
    Run the full analysis over a previously simulated (or real) log
    and print selected tables/figures.
``convert``
    Stream-convert a log between formats (jsonl/csv/clf/parquet) with
    bounded memory; the converted corpus fingerprints identically, so
    it hits the same cached artifacts.
``report``
    Simulate + analyze in one step and print every artifact.
``robots``
    Inspect a robots.txt file: validate it and answer can-fetch
    queries.
``diff``
    Semantic diff between two robots.txt files: which agent x path
    verdicts changed.
``scorecard``
    Simulate a study and print one bot's per-directive compliance
    scorecard.
``versions``
    Print the paper's four experimental robots.txt files.
``cache``
    Inspect (``info``, ``--verbose`` for a per-stage breakdown), empty
    (``clear``), or LRU-evict down to a byte budget (``prune
    --max-bytes N``) an incremental-analysis artifact cache created
    with ``--cache-dir``.
``serve``
    Run the async robots decision service (``can_fetch`` /
    ``can_fetch_many`` / ``probe_matrix`` / ``enforce`` / ``stats``
    over HTTP) against the paper corpus, explicit ``--robots
    ORIGIN=FILE`` bindings, or a ``--robots-dir`` of ``<origin>.txt``
    files.
``worker``
    Serve a spool: claim the scenario-cell tasks enqueued by
    ``scenarios run --executor queue --spool DIR``, run them under a
    heartbeat-renewed lease, and publish results atomically.  Start
    any number, on any host that can reach the spool directory.
``lint``
    Run the repository's AST invariant checker
    (:mod:`repro.devtools.lint`).
``scenarios``
    Run the adversarial scenario matrix (deterrence x bot fleet) as
    cached cells: ``run`` prints per-cell results, ``report`` renders
    the deterrence scorecard and detector ROC tables.

Incremental analysis: ``analyze``/``report`` accept ``--cache-dir`` to
persist stage artifacts between runs.  Cached artifacts are keyed by a
content fingerprint of the input log (hashed in chunks, so appended
records only invalidate trailing chunks), each stage's code token, and
the transitive fingerprints of its dependencies; re-running over an
unchanged log loads every artifact from disk, and appending records
reruns only the affected shard plus downstream stages.  ``--no-cache``
skips cache reads but still publishes fresh artifacts (a refresh).

Each handler imports the modules it runs, so ``import repro.cli``
loads only argparse and :mod:`repro.choices` (the format, executor and
experiment-id choices).  Only ``simulate``, ``report``, ``scorecard``
and a ``scenarios`` run that computes a cell import the simulator (and
numpy); every other command, warm or cold, runs without them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .choices import EXECUTOR_CHOICES, EXPERIMENT_IDS, LOG_FORMATS
from .exceptions import (
    ConfigError,
    LogSchemaError,
    MissingDependencyError,
    PipelineError,
)

if TYPE_CHECKING:
    from .reporting.study import StudyAnalysis


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description=(
            "Reproduction toolkit for 'Scrapers Selectively Respect "
            "robots.txt Directives' (IMC 2025)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="run the traffic simulation")
    simulate.add_argument("--scale", type=_positive_float, default=0.05)
    simulate.add_argument("--seed", type=int, default=2025)
    simulate.add_argument("--output", type=Path, required=True)
    simulate.add_argument(
        "--format", choices=("jsonl", "csv", "parquet"), default="jsonl"
    )
    simulate.add_argument("--no-noise", action="store_true")
    simulate.add_argument("--no-spoofing", action="store_true")

    analyze = commands.add_parser("analyze", help="analyze a simulated log")
    analyze.add_argument("log", type=Path, help="log file from 'simulate' (or real)")
    analyze.add_argument("--seed", type=int, default=2025)
    analyze.add_argument(
        "--format",
        choices=LOG_FORMATS,
        default="jsonl",
        help=(
            "log format: pipeline-native jsonl/csv, Apache combined "
            "(clf), or columnar parquet (requires the [parquet] extra)"
        ),
    )
    analyze.add_argument(
        "--site",
        default="",
        help="sitename stamped on CLF records (CLF has no Host column)",
    )
    analyze.add_argument(
        "--asn", type=int, default=0, help="ASN stamped on CLF records"
    )
    analyze.add_argument(
        "--jobs",
        type=_int_range(1),
        default=1,
        help="shard preprocessing across N worker processes",
    )
    analyze.add_argument(
        "--executor",
        choices=("process", "inline"),
        default="process",
        help="shard backend for --jobs > 1",
    )
    _add_experiments_option(analyze)
    _add_cache_options(analyze)

    report = commands.add_parser("report", help="simulate + analyze + print")
    report.add_argument("--scale", type=_positive_float, default=0.05)
    report.add_argument("--seed", type=int, default=2025)
    _add_experiments_option(report)
    _add_cache_options(report)

    convert = commands.add_parser(
        "convert", help="stream-convert a log between storage formats"
    )
    convert.add_argument("source", type=Path)
    convert.add_argument("target", type=Path)
    convert.add_argument(
        "--from",
        dest="source_format",
        choices=LOG_FORMATS,
        default="jsonl",
        help="source log format",
    )
    convert.add_argument(
        "--to",
        dest="target_format",
        choices=LOG_FORMATS,
        default="parquet",
        help="target log format",
    )
    convert.add_argument(
        "--site",
        default="",
        help="sitename stamped on CLF records (CLF has no Host column)",
    )
    convert.add_argument(
        "--asn", type=int, default=0, help="ASN stamped on CLF records"
    )

    robots = commands.add_parser("robots", help="inspect a robots.txt file")
    robots.add_argument("file", type=Path)
    robots.add_argument("--agent", default="*", help="user-agent token to test")
    robots.add_argument(
        "--path", action="append", default=[], help="path(s) to test access for"
    )

    diff = commands.add_parser(
        "diff", help="semantic diff between two robots.txt files"
    )
    diff.add_argument("old", type=Path)
    diff.add_argument("new", type=Path)

    scorecard = commands.add_parser(
        "scorecard", help="per-bot compliance scorecard from a simulated study"
    )
    scorecard.add_argument("bot", help="canonical bot name (e.g. GPTBot)")
    scorecard.add_argument("--scale", type=_positive_float, default=0.05)
    scorecard.add_argument("--seed", type=int, default=2025)

    cache = commands.add_parser(
        "cache", help="inspect or clear an incremental-analysis cache"
    )
    cache.add_argument(
        "action",
        choices=("info", "clear", "prune"),
        help=(
            "info: entry count and footprint; clear: delete all "
            "artifacts; prune: LRU-evict down to --max-bytes"
        ),
    )
    cache.add_argument(
        "--cache-dir",
        type=Path,
        required=True,
        help="artifact store directory (as passed to analyze/report)",
    )
    cache.add_argument(
        "--max-bytes",
        type=_int_range(0),
        default=None,
        help="prune: evict least-recently-used artifacts until the "
        "store is at most this many bytes",
    )
    cache.add_argument(
        "--verbose",
        action="store_true",
        help="info: break the footprint down per pipeline stage",
    )

    serve = commands.add_parser(
        "serve", help="run the async robots decision service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=_int_range(0, 65535),
        default=8041,
        help="TCP port (0 picks a free port and prints it)",
    )
    serve.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="robots.txt cache TTL (default: 24h, the Google guideline)",
    )
    serve.add_argument(
        "--robots",
        action="append",
        default=[],
        metavar="ORIGIN=FILE",
        help="serve FILE as ORIGIN's robots.txt (repeatable)",
    )
    serve.add_argument(
        "--robots-dir",
        type=Path,
        default=None,
        help="directory of <origin>.txt robots files, re-read on TTL refresh",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="RPS",
        help="enable the enforce endpoint's rate limiter at RPS tokens/s",
    )

    worker = commands.add_parser(
        "worker",
        help="serve a queue-executor spool as a worker process",
    )
    worker.add_argument(
        "--spool",
        type=Path,
        required=True,
        help="spool directory (as passed to scenarios run --executor queue)",
    )
    worker.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="lease TTL; a worker dead for longer forfeits its shard "
        "(default: 30s)",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sleep between empty-queue checks (default: 0.05s)",
    )
    worker.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long without claiming a task "
        "(default: serve until interrupted)",
    )

    commands.add_parser("versions", help="print the paper's four robots.txt files")

    lint = commands.add_parser(
        "lint",
        help="run the repo's AST invariant checker (repro.devtools.lint)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--select", metavar="CODES", help="comma-separated rule codes to run"
    )
    lint.add_argument(
        "--root",
        type=Path,
        default=None,
        help="project root findings are reported relative to (default: cwd)",
    )
    lint.add_argument(
        "--baseline", type=Path, default=None, help="baseline file path"
    )
    lint.add_argument(
        "--no-baseline", action="store_true", help="ignore any baseline file"
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="snapshot current findings as the new baseline",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", dest="lint_format"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print every rule and exit"
    )

    scenarios = commands.add_parser(
        "scenarios",
        help="run the adversarial scenario matrix (deterrence x bot fleet)",
    )
    scenarios.add_argument(
        "action",
        choices=("run", "report"),
        help=(
            "run: execute the grid and print per-cell results; "
            "report: execute and render the deterrence scorecard + "
            "detector ROC tables"
        ),
    )
    scenarios.add_argument(
        "--grid",
        default="quick",
        help=(
            "a preset (quick, full) or an axis list like "
            "'bots=GPTBot,Bytespider;strategy=honest,spoof_asn;"
            "deterrence=none,full;robots=base,v3;traffic=steady'"
        ),
    )
    scenarios.add_argument("--days", type=int, default=None)
    scenarios.add_argument("--seed", type=int, default=None)
    scenarios.add_argument("--jobs", type=_int_range(1), default=1)
    scenarios.add_argument(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default="process",
        help="backend that runs the cells (queue requires --spool)",
    )
    scenarios.add_argument(
        "--spool",
        type=Path,
        default=None,
        help="spool directory for the queue executor",
    )
    scenarios.add_argument(
        "--workers",
        type=_int_range(0),
        default=None,
        help="local queue workers to spawn (default: --jobs)",
    )
    scenarios.add_argument(
        "--set",
        action="append",
        default=[],
        dest="knobs",
        metavar="CONFIG.FIELD=VALUE",
        help=(
            "override one deterrence knob, e.g. full.ratelimit_capacity=12; "
            "only cells using that config recompute"
        ),
    )
    scenarios.add_argument(
        "--output",
        type=Path,
        default=None,
        help="directory to write scorecard.md / roc.md into",
    )
    _add_cache_options(scenarios)
    return parser


def _int_range(minimum: int, maximum: int | None = None):
    """An argparse ``type`` for integers in ``[minimum, maximum]``, so a
    bad count or port is a usage error (exit 2) before any work starts."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _positive_float(text: str) -> float:
    """An argparse ``type`` for a float > 0 (``--scale``)."""
    value = float(text)
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


_positive_float.__name__ = "float"  # so argparse says "invalid float value"


def _add_experiments_option(subparser: argparse.ArgumentParser) -> None:
    """``--experiments``, validated before any log is read."""
    subparser.add_argument(
        "--experiments",
        nargs="*",
        type=str.upper,
        choices=EXPERIMENT_IDS,
        default=None,
        metavar="ID",
        help=f"artifact ids to print (default: all of {', '.join(EXPERIMENT_IDS)})",
    )


def _add_cache_options(subparser: argparse.ArgumentParser) -> None:
    """The incremental-analysis flags shared by analyze/report."""
    subparser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=(
            "persist stage artifacts here; unchanged inputs are served "
            "from disk, appended logs rerun only affected shards and "
            "their downstream stages"
        ),
    )
    subparser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip cache reads but still publish fresh artifacts",
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .logs.io import write_log
    from .simulation.engine import run_study

    dataset = run_study(
        scale=args.scale,
        seed=args.seed,
        with_noise=not args.no_noise,
        with_spoofing=not args.no_spoofing,
    )
    count = write_log(dataset.records, args.output, args.format)
    print(
        f"wrote {count:,} records from {dataset.n_bot_agents} bots "
        f"(+{dataset.n_spoof_agents} spoofed) to {args.output}"
    )
    return 0


def _print_experiments(analysis: StudyAnalysis, wanted: list[str] | None) -> int:
    from .reporting.experiments import run_all, run_experiment

    if wanted:
        for experiment_id in wanted:
            print(run_experiment(experiment_id, analysis).rendered)
            print()
    else:
        for result in run_all(analysis).values():
            print(result.rendered)
            print()
    return 0


def _print_cache_stats(analysis: StudyAnalysis, args: argparse.Namespace) -> None:
    if args.cache_dir is not None:
        print(f"cache: {analysis.cache_stats.summary()}", file=sys.stderr)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .pipeline.context import RecordSource
    from .reporting.study import StudyAnalysis
    from .simulation.scenario import default_scenario

    analysis = StudyAnalysis.from_source(
        RecordSource.from_file(args.log, args.format, args.site, args.asn),
        scenario=default_scenario(seed=args.seed),
        jobs=args.jobs,
        executor=args.executor,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
    )
    print(
        f"loaded {analysis.preprocess_report.input_records:,} records "
        f"from {args.log}",
        file=sys.stderr,
    )
    code = _print_experiments(analysis, args.experiments)
    _print_cache_stats(analysis, args)
    return code


def _cmd_report(args: argparse.Namespace) -> int:
    from .reporting.study import StudyAnalysis
    from .simulation.engine import run_study

    dataset = run_study(scale=args.scale, seed=args.seed)
    print(
        f"simulated {len(dataset.records):,} records at scale {args.scale}",
        file=sys.stderr,
    )
    analysis = StudyAnalysis(
        dataset,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
    )
    code = _print_experiments(analysis, args.experiments)
    _print_cache_stats(analysis, args)
    return code


def _cmd_convert(args: argparse.Namespace) -> int:
    from .logs.io import convert_log

    count = convert_log(
        args.source,
        args.target,
        source_format=args.source_format,
        target_format=args.target_format,
        sitename=args.site,
        asn=args.asn,
    )
    print(
        f"converted {count:,} records: {args.source} ({args.source_format}) "
        f"-> {args.target} ({args.target_format})"
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .pipeline.store import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} artifact(s) from {args.cache_dir}")
        return 0
    if args.action == "prune":
        if args.max_bytes is None:
            print("cache prune requires --max-bytes", file=sys.stderr)
            return 2
        result = store.prune(args.max_bytes)
        print(
            f"pruned {result.removed} artifact(s), freed "
            f"{result.freed_bytes:,} bytes; {result.kept_entries} "
            f"entries / {result.kept_bytes:,} bytes remain"
        )
        return 0
    details = store.info(verbose=args.verbose)
    print(f"cache: {details.path}")
    print(f"entries: {details.entries}")
    print(f"bytes: {details.total_bytes:,}")
    if details.stages:
        print("stages:")
        by_size = sorted(
            details.stages.items(), key=lambda item: (-item[1][1], item[0])
        )
        for stage, (entries, stage_bytes) in by_size:
            print(f"  {stage}: {entries} entries, {stage_bytes:,} bytes")
    return 0


def _cmd_robots(args: argparse.Namespace) -> int:
    from .robots.policy import RobotsPolicy
    from .robots.validator import validate

    text = args.file.read_text(encoding="utf-8", errors="replace")
    findings = validate(text)
    if findings:
        print(f"{len(findings)} finding(s):")
        for finding in findings:
            location = f" line {finding.line_number}" if finding.line_number else ""
            print(f"  [{finding.severity.value}]{location} {finding.code}: "
                  f"{finding.message}")
    else:
        print("no validator findings")
    policy = RobotsPolicy.from_text(text)
    delay = policy.crawl_delay(args.agent)
    if delay is not None:
        print(f"crawl delay for {args.agent!r}: {delay:g}s")
    for path in args.path:
        decision = policy.decide(args.agent, path)
        verdict = "ALLOW" if decision.allowed else "DENY"
        print(f"{verdict:5s} {path} ({decision.reason})")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .robots.diff import diff_robots, render_diff

    old_text = args.old.read_text(encoding="utf-8", errors="replace")
    new_text = args.new.read_text(encoding="utf-8", errors="replace")
    print(render_diff(diff_robots(old_text, new_text)))
    return 0


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from .reporting.scorecard import render_scorecard
    from .reporting.study import StudyAnalysis
    from .simulation.engine import run_study

    dataset = run_study(scale=args.scale, seed=args.seed)
    analysis = StudyAnalysis(dataset)
    try:
        print(render_scorecard(analysis, args.bot))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 1
    return 0


def _serve_resolver(args: argparse.Namespace):
    """Build the origin -> robots.txt resolver the serve flags describe."""
    from .service import corpus_resolver, directory_resolver, static_resolver

    if args.robots:
        texts: dict[str, str] = {}
        for binding in args.robots:
            origin, separator, file_name = binding.partition("=")
            if not separator or not origin or not file_name:
                raise ConfigError(
                    f"--robots expects ORIGIN=FILE, got {binding!r}"
                )
            texts[origin] = Path(file_name).read_text(
                encoding="utf-8", errors="replace"
            )
        return static_resolver(texts)
    if args.robots_dir is not None:
        return directory_resolver(args.robots_dir)
    return corpus_resolver()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve until SIGINT or SIGTERM, then close the listener and exit 0.

    SIGTERM gets its own handler because a child started from a
    background shell inherits SIGINT ignored.
    """
    import asyncio
    import signal

    from .deterrence.ratelimit import RateLimiter
    from .robots.cache import DEFAULT_TTL_SECONDS
    from .service import DecisionService, serve

    limiter = None
    if args.rate_limit is not None:
        limiter = RateLimiter(
            capacity=max(1.0, args.rate_limit),
            refill_per_second=args.rate_limit,
        )
    service = DecisionService(
        _serve_resolver(args),
        ttl_seconds=args.ttl if args.ttl is not None else DEFAULT_TTL_SECONDS,
        limiter=limiter,
    )

    async def serve_until_terminated() -> None:
        # Cancelling the task runs serve()'s cleanup, which closes the
        # listener, and asyncio.run() then raises CancelledError.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        await serve(service, host=args.host, port=args.port)

    try:
        asyncio.run(serve_until_terminated())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("shutting down", file=sys.stderr)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Serve a spool until interrupted (or idle past --max-idle)."""
    from .distributed import FilesystemSpool, run_worker
    from .distributed.lease import DEFAULT_LEASE_TTL
    from .distributed.worker import DEFAULT_POLL, default_worker_id

    worker_id = default_worker_id()
    print(
        f"worker {worker_id} serving spool {args.spool}", file=sys.stderr
    )
    try:
        processed = run_worker(
            FilesystemSpool(args.spool),
            worker_id=worker_id,
            ttl=args.ttl if args.ttl is not None else DEFAULT_LEASE_TTL,
            poll=args.poll if args.poll is not None else DEFAULT_POLL,
            max_idle=args.max_idle,
        )
    except KeyboardInterrupt:
        print("worker interrupted", file=sys.stderr)
        return 0
    print(f"worker {worker_id} processed {processed} task(s)", file=sys.stderr)
    return 0


def _cmd_versions(_args: argparse.Namespace) -> int:
    from .robots.corpus import all_versions, render_version

    for version in all_versions():
        title = f"# {version.value}: {version.directive_name}"
        print(title)
        print(render_version(version))
        print()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Delegate to :mod:`repro.devtools.lint` (lazy import keeps the
    hot CLI paths free of the devtools package)."""
    from .devtools.lint import main as lint_main

    argv = list(args.paths)
    if args.select:
        argv += ["--select", args.select]
    if args.root is not None:
        argv += ["--root", str(args.root)]
    if args.baseline is not None:
        argv += ["--baseline", str(args.baseline)]
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.write_baseline:
        argv.append("--write-baseline")
    if args.list_rules:
        argv.append("--list-rules")
    argv += ["--format", args.lint_format]
    return lint_main(argv)


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .scenarios import parse_grid, run_matrix
    from .scenarios.report import render_deterrence_scorecard, render_roc_table

    if args.executor == "queue" and args.spool is None:
        raise ConfigError("--executor queue requires --spool DIR")
    grid = parse_grid(args.grid, days=args.days, seed=args.seed)
    for knob in args.knobs:
        grid = grid.with_knob(knob)
    result = run_matrix(
        grid,
        jobs=args.jobs,
        executor=args.executor,
        spool=str(args.spool) if args.spool is not None else None,
        workers=args.workers,
        cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
        no_cache=args.no_cache,
    )
    print(
        f"cells: {result.computed} computed, {result.cached} cached",
        file=sys.stderr,
    )
    print(f"cache: {result.stats.summary()}", file=sys.stderr)

    scorecard_text = render_deterrence_scorecard(result.scorecard)
    roc_text = "# Detector ROC tables\n\n" + "\n".join(
        render_roc_table(table) for table in result.roc
    )
    if args.output is not None:
        args.output.mkdir(parents=True, exist_ok=True)
        (args.output / "scorecard.md").write_text(scorecard_text)
        (args.output / "roc.md").write_text(roc_text)
        print(f"wrote {args.output}/scorecard.md and roc.md", file=sys.stderr)

    if args.action == "run":
        for cell in result.cells:
            metrics = cell.metrics
            print(
                f"{cell.cell_id}: {metrics.requests} req, "
                f"{metrics.bot_deterred_fraction:.1%} bot deterred, "
                f"{metrics.violation_leak_fraction:.1%} violation leak"
            )
    else:
        print(scorecard_text)
        print(roc_text)
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "convert": _cmd_convert,
    "report": _cmd_report,
    "robots": _cmd_robots,
    "diff": _cmd_diff,
    "scorecard": _cmd_scorecard,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "versions": _cmd_versions,
    "lint": _cmd_lint,
    "scenarios": _cmd_scenarios,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (MissingDependencyError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LogSchemaError, PipelineError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
