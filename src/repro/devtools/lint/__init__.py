"""repro-lint: AST invariant checks generic linters cannot express.

The repo's headline guarantees are *behavioral*: cached == cold runs
produce byte-identical artifacts, sharded == sequential runs agree at
any ``--jobs``, and batch-fed sources match row-fed ones.  Property
tests enforce those dynamically; this package enforces the *static*
preconditions behind them:

``RPR001``/``RPR002``
    Functions reachable from registered pipeline stages must be
    deterministic — no wall-clock reads, no unseeded randomness, no
    environment reads — or :class:`~repro.pipeline.store.ArtifactStore`
    content keys silently stop meaning anything.
``RPR003``/``RPR004``
    Shard-mapped code must be parallel-safe: no module-global mutation
    in worker-reachable functions, no lambda/closure stage callables
    (unpicklable under the process executor).
``RPR005``
    Every literal column name must exist in the
    :data:`repro.logs.schema.COLUMN_SPECS` registry (resolved by
    importing the registry, not by regex).
``RPR006``
    ``pyarrow`` is an optional extra: imports must sit in guarded
    try/except blocks that degrade to ``MissingDependencyError``.
``RPR007``
    Library code raises the :mod:`repro.exceptions` taxonomy, not bare
    builtins.
``RPR008``
    RNGs are constructed with explicit seeds everywhere.
``RPR009``
    No bytecode/cache artifacts tracked by git.
``RPR010``
    Code reachable from the distributed worker/queue roots writes
    durable spool and lease files only through the atomic
    write-temp-then-rename helper — never in place.

Findings can be silenced inline (``# lint: ignore[RPR###]``) or
grandfathered in a committed baseline (``--write-baseline``).  Run via
``python -m repro.devtools.lint`` or ``repro-study lint``.
"""

from .cli import main
from .engine import LintResult, run_lint
from .findings import Finding
from .registry import Rule, all_rules, rule

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "main",
    "rule",
    "run_lint",
]
