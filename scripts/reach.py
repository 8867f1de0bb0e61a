#!/usr/bin/env python3
"""Which public functions of ``src/`` do the commands and examples reach?

Run from anywhere, with no options::

    python scripts/reach.py

In one process, on a tiny simulated corpus, the probe runs every
``repro-study`` command through ``repro.cli.main``: ``simulate``,
``analyze`` (cold, warm, ``--no-cache``, sharded, CSV, CLF, and Parquet
when pyarrow is installed), ``convert``, ``report``, ``robots``,
``diff``, ``scorecard``, ``cache``, ``versions``, ``lint`` over
``src``, ``scenarios`` under the inline, process and queue executors,
``worker`` on a one-task spool, and ``serve`` answering a few requests
from a background thread.  Then it runs every ``examples/*.py``.

A global trace function records each code object that starts.  Work
done in child processes (the ``process`` executor's pool) is not seen.

The probe prints each public function of ``src/`` (no leading
underscore in any part of its qualified name, not a dunder, not a
``...`` stub) that never ran and is missing from
``scripts/reach_allowlist.txt``, then one summary line.  It exits 1
when it printed any function, or when a command failed.

The allowlist holds one ``module:qualname  # reason`` per line;
``tests/test_reach_allowlist.py`` checks that every entry still names
a function and gives a reason.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import runpy
import signal
import socket
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ALLOWLIST = ROOT / "scripts" / "reach_allowlist.txt"

SCALE = "0.005"
#: One scenario cell: the queue executor's spool gets exactly one task.
ONE_CELL = (
    "bots=GPTBot;strategy=honest;deterrence=full;robots=v3;"
    "traffic=steady;days=1;accesses_target=100"
)
ROBOTS = "User-agent: *\nCrawl-delay: 2\nDisallow: /private\n"
ROBOTS_NEW = "User-agent: GPTBot\nDisallow: /\n\nUser-agent: *\nAllow: /\n"

#: The commands and examples run so far, for the summary line.
RAN: list[str] = []


# -- what src/ defines ------------------------------------------------


def _is_stub(node: ast.AST) -> bool:
    """A body of only a docstring and ``...`` (a Protocol method)."""
    return all(
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        for stmt in node.body
    )


def defined_functions(src: Path = SRC):
    """``(module, qualname, path, first_lines, n_lines, public)`` for
    every function or method of ``src/`` that is not nested in a
    function.  ``first_lines`` are the lines a code object may report
    as its first: the ``def`` and each decorator."""
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        pending = [(node, "") for node in tree.body]
        while pending:
            node, prefix = pending.pop()
            if isinstance(node, ast.ClassDef):
                pending += [(child, f"{prefix}{node.name}.") for child in node.body]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + node.name
                lines = {node.lineno, *(d.lineno for d in node.decorator_list)}
                public = not (
                    any(part.startswith("_") for part in qualname.split("."))
                    or _is_stub(node)
                )
                n_lines = node.end_lineno - min(lines) + 1
                yield module, qualname, path, lines, n_lines, public


def read_allowlist(path: Path = ALLOWLIST) -> list[tuple[int, str, str]]:
    """``(line number, module:qualname, reason)`` per entry; lines that
    start with ``#`` are comments."""
    entries = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        name, _, reason = line.partition("#")
        if name.strip():
            entries.append((number, name.strip(), reason.strip()))
    return entries


# -- what the commands run --------------------------------------------


def cli(*argv, expect: int = 0) -> None:
    from repro.cli import main

    code = main([str(arg) for arg in argv])
    if code != expect:
        command = " ".join(map(str, argv))
        raise SystemExit(f"reach: `repro-study {command}` exited {code}")
    RAN.append(str(argv[0]))


class _Thread(threading.Thread):
    """A thread whose exception ``join`` re-raises in the caller."""

    error: BaseException | None = None

    def run(self) -> None:
        try:
            super().run()
        except BaseException as exc:
            self.error = exc

    def join(self, timeout: float | None = None) -> None:
        super().join(timeout)
        if self.error is not None:
            raise self.error


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _ask(port: int, target: str, body: dict | None = None) -> None:
    data = None if body is None else json.dumps(body).encode("utf-8")
    url = f"http://127.0.0.1:{port}{target}"
    try:
        urllib.request.urlopen(url, data=data, timeout=10).read()
    except urllib.error.HTTPError:
        pass  # an error answer is still an answer


def serve(*options, requests: list[tuple[str, dict | None]]) -> None:
    """``serve`` in this thread; a background thread sends ``requests``
    once the port answers, then SIGTERMs this process to stop it."""
    port = _free_port()

    def client() -> None:
        try:
            for _ in range(200):
                with contextlib.suppress(OSError):
                    socket.create_connection(("127.0.0.1", port), timeout=1).close()
                    break
                time.sleep(0.05)
            for target, body in requests:
                _ask(port, target, body)
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    thread = _Thread(target=client)
    thread.start()
    cli("serve", "--port", port, *options)
    thread.join()


def queue_roundtrip(tmp: Path) -> None:
    """``scenarios run --executor queue --workers 0`` enqueues one cell
    from a background thread; ``worker`` serves it here."""
    spool = tmp / "spool"
    coordinator = _Thread(
        target=cli,
        args=("scenarios", "run", "--grid", ONE_CELL, "--executor", "queue",
              "--spool", spool, "--workers", 0, "--no-cache"),
    )
    coordinator.start()
    while not any((spool / "tasks" / "pending").glob("*")):
        if not coordinator.is_alive():
            raise SystemExit("reach: the queue run enqueued nothing")
        time.sleep(0.01)
    cli("worker", "--spool", spool, "--poll", 0.01, "--max-idle", 0)
    coordinator.join()


def run_commands(tmp: Path) -> None:
    log, csv, clf = tmp / "log.jsonl", tmp / "log.csv", tmp / "log.clf"
    cache = tmp / "cache"
    cli("simulate", "--scale", SCALE, "--output", log)
    cli("simulate", "--scale", SCALE, "--no-noise", "--no-spoofing",
        "--format", "csv", "--output", tmp / "clean.csv")
    cli("analyze", log, "--cache-dir", cache)
    cli("analyze", log, "--cache-dir", cache)
    cli("analyze", log, "--cache-dir", cache, "--no-cache", "--experiments", "T5")
    cli("analyze", log, "--jobs", 2, "--executor", "inline", "--experiments", "T2",
        "--cache-dir", tmp / "shard-cache")
    cli("analyze", log, "--jobs", 2, "--executor", "process", "--experiments", "T2")
    cli("convert", log, csv, "--to", "csv")
    cli("convert", log, clf, "--to", "clf")
    cli("analyze", csv, "--format", "csv", "--cache-dir", cache, "--experiments", "T5")
    cli("analyze", clf, "--format", "clf", "--experiments", "T2")
    if importlib.util.find_spec("pyarrow") is not None:
        parquet = tmp / "log.parquet"
        cli("convert", log, parquet, "--to", "parquet")
        cli("analyze", parquet, "--format", "parquet", "--cache-dir", cache)
        cli("convert", parquet, tmp / "back.jsonl", "--from", "parquet")
    cli("cache", "info", "--cache-dir", cache, "--verbose")
    cli("cache", "prune", "--cache-dir", cache, "--max-bytes", 0)
    cli("cache", "clear", "--cache-dir", cache)
    cli("report", "--scale", SCALE, "--cache-dir", cache)
    cli("scorecard", "ChatGPT-User", "--scale", SCALE)
    cli("scorecard", "NoSuchBot", "--scale", SCALE, expect=1)

    old, new = tmp / "old.txt", tmp / "new.txt"
    old.write_text(ROBOTS)
    new.write_text(ROBOTS_NEW)
    cli("robots", old, "--agent", "GPTBot", "--path", "/private/x", "--path", "/a%2Fb")
    cli("diff", old, new)
    cli("versions")

    cli("lint", SRC, "--root", ROOT, "--baseline", ROOT / ".lint-baseline.json")
    cli("lint", "--list-rules")
    # tests/ has findings: grandfather them, then lint against that.
    baseline = tmp / "baseline.json"
    cli("lint", ROOT / "tests", "--root", ROOT, "--baseline", baseline,
        "--write-baseline")
    cli("lint", ROOT / "tests", "--root", ROOT, "--baseline", baseline,
        "--format", "json")

    grid_cache = tmp / "grid-cache"
    cli("scenarios", "run", "--executor", "inline", "--cache-dir", grid_cache)
    cli("scenarios", "report", "--executor", "inline", "--cache-dir", grid_cache,
        "--output", tmp / "report", "--set", "full.ratelimit_capacity=12")
    cli("scenarios", "run", "--grid", ONE_CELL, "--jobs", 2, "--no-cache")
    queue_roundtrip(tmp)

    probe = {"origin": "v3.example", "agents": ["GPTBot"], "paths": ["/a", "/b"]}
    serve("--rate-limit", 5, requests=[
        ("/healthz", None),
        ("/can_fetch?origin=v3.example&agent=GPTBot&path=/news", None),
        ("/can_fetch?origin=v3.example&agent=GPTBot&path=/news", None),
        ("/can_fetch?origin=base.example&agent=GPTBot&path=/x&explain=1", None),
        ("/can_fetch_many", {"origin": "v1.example", "agent": "GPTBot",
                             "paths": ["/a", "/b"]}),
        ("/probe_matrix", probe),
        ("/enforce?origin=v2.example&agent=GPTBot&path=/a&ip=10.0.0.1", None),
        ("/stats", None),
        ("/nowhere", None),
    ])
    robots_dir = tmp / "robots-dir"
    robots_dir.mkdir()
    (robots_dir / "site.example.txt").write_text(ROBOTS)
    serve("--robots-dir", robots_dir, "--ttl", 60, requests=[
        ("/can_fetch?origin=site.example&agent=x&path=/private", None),
        ("/can_fetch?origin=..&agent=x&path=/", None),
    ])
    serve("--robots", f"site.example={old}", requests=[
        ("/can_fetch?origin=site.example&agent=x&path=/private", None),
    ])


def run_examples() -> None:
    argv = sys.argv
    try:
        for example in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(example)]
            if example.name == "full_study.py":
                sys.argv.append(SCALE)
            runpy.run_path(str(example), run_name="__main__")
            RAN.append(example.name)
    finally:
        sys.argv = argv


# -- the report -------------------------------------------------------


def main() -> int:
    sys.path.insert(0, str(SRC))
    started: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        code = frame.f_code
        started.add((code.co_filename, code.co_firstlineno))

    output = io.StringIO()
    quiet = contextlib.ExitStack()
    quiet.enter_context(contextlib.redirect_stdout(output))
    quiet.enter_context(contextlib.redirect_stderr(output))
    try:
        with quiet, tempfile.TemporaryDirectory() as tmp:
            threading.settrace(trace)
            sys.settrace(trace)
            try:
                run_commands(Path(tmp))
                run_examples()
            finally:
                sys.settrace(None)
                threading.settrace(None)
    except BaseException:
        sys.stderr.write(output.getvalue()[-4000:])
        raise

    allowlist = {name for _, name, _ in read_allowlist()}
    functions = lines = unreached_lines = reached = 0
    unreached = []
    for module, qualname, path, first_lines, n_lines, public in defined_functions():
        functions += 1
        lines += n_lines
        if any((str(path), line) in started for line in first_lines):
            reached += 1
            continue
        unreached_lines += n_lines
        name = f"{module}:{qualname}"
        if public and name not in allowlist:
            unreached.append(f"{name}  ({path.relative_to(ROOT)}, {n_lines} lines)")
    for entry in unreached:
        print(entry)
    commands = sorted({name for name in RAN if not name.endswith(".py")})
    examples = [name for name in RAN if name.endswith(".py")]
    print(
        f"ran {len(RAN) - len(examples)} invocations of {len(commands)} commands "
        f"({', '.join(commands)}) and {len(examples)} examples"
    )
    print(
        f"ran {reached} of {functions} src/ functions; {unreached_lines:,} of "
        f"{lines:,} function lines unreached; {len(unreached)} public "
        f"function(s) unreached and not allowlisted"
    )
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
