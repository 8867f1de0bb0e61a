"""The choice sets the CLI offers before it loads the code behind them.

argparse needs the accepted log formats, shard executors and
experiment ids when it builds the parser, before any command runs.
They are declared here, with no imports, so that ``import repro.cli``
loads none of the modules that implement them.  Those modules import
their tuple from here: :mod:`repro.logs.io` (``LOG_FORMATS``) and
:mod:`repro.pipeline.context` (``EXECUTOR_CHOICES``).
:data:`repro.reporting.experiments.EXPERIMENTS` maps exactly
:data:`EXPERIMENT_IDS`, in this order, to its drivers
(``tests/test_reporting.py`` checks it).
"""

from __future__ import annotations

#: Formats understood by :func:`repro.logs.io.iter_log_records` and
#: :func:`repro.logs.io.write_log` (and the CLI's ``--format`` /
#: ``convert`` surfaces).
LOG_FORMATS: tuple[str, ...] = ("jsonl", "csv", "clf", "parquet")

#: Valid shard executor backends.  ``queue`` dispatches shard work to
#: a filesystem-spool task queue (:mod:`repro.distributed`) consumed by
#: worker processes on this or other hosts; it requires ``spool``.
EXECUTOR_CHOICES: tuple[str, ...] = ("process", "inline", "queue")

#: The paper's tables and figures, in print order: the ids
#: ``analyze``/``report --experiments`` accept.
EXPERIMENT_IDS: tuple[str, ...] = (
    "T2",
    "T3",
    "T4",
    "T5",
    "T6",
    "T7",
    "T8",
    "T9",
    "T10",
    "F2",
    "F3",
    "F4",
    "F9",
    "F10",
    "F11",
)
