"""Run one ``repro-study`` command with the layer wrappers installed.

Usage: ``python -m perfbench.traced_cli OUT.json -- <repro-study args>``

The spans stay in memory while the command runs and are written to
``OUT.json`` when it returns (for ``serve``: when SIGINT stops it).
``cli.import`` covers importing the program and installing the
wrappers; ``cli.main``'s self time is the command's work that no
wrapped function accounts for.
"""

from __future__ import annotations

import json
import sys
import time

from perfbench.layers import install
from perfbench.tracing import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, command = argv[0], argv[2:]
    tracer = Tracer()
    started = time.perf_counter_ns()
    importing = tracer.begin("cli.import")
    patcher = install(tracer)
    from repro.cli import main as cli_main

    tracer.end(importing)
    running = tracer.begin("cli.main")
    try:
        return cli_main(command)
    finally:
        tracer.end(running)
        ended = time.perf_counter_ns()
        patcher.uninstall()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(
                {"start_ns": started, "end_ns": ended, **tracer.snapshot()},
                handle,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
