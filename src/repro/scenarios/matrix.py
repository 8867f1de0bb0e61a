"""The matrix runner: execute a scenario grid as a cached, sharded
pipeline.

The grid becomes a three-stage graph:

``cell_partition`` (uncached plumbing)
    Expands the grid into one :class:`~repro.pipeline.shard.Shard`
    per cell, each carrying its :class:`ScenarioSpec` as the payload
    and the spec's content fingerprint as the shard's explicit cache
    key.  The stage's *token* is the grid digest, so the merged
    ``cells`` artifact re-keys whenever the grid changes shape.

``cells`` (shard stage)
    Maps :func:`_cell_worker` over the shards on the configured
    executor — ``--jobs N`` processes, inline, or the
    distributed ``queue`` spool from :mod:`repro.distributed`.  The
    runner's per-shard cache keys each cell on *its own spec only*:
    editing one deterrence knob re-fingerprints exactly the cells
    using that config, and every other cell loads from cache.  A
    sub-grid of a previously run grid is fully warm for the same
    reason — cell keys do not know what grid they were part of.

``scorecard`` / ``roc`` (reductions)
    Fold the cell results into the deterrence scorecard and detector
    ROC tables.

Everything is keyed by content (specs, tokens, schema) — never by
``jobs``/``executor``/``spool``, so artifacts written at any
parallelism serve reruns at any other, and the parity suite holds the
outputs byte-identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import ModuleType

from ..pipeline.context import PipelineConfig, PipelineContext
from ..pipeline.runner import Pipeline
from ..pipeline.shard import Shard
from ..pipeline.stage import FunctionStage, ShardStage
from ..pipeline.store import ArtifactStore, CacheStats
from .report import build_roc_tables, build_scorecard
from .results import CellResult, RocTable, ScorecardRow
from .spec import ScenarioGrid, ScenarioSpec

#: Bump when cell semantics change (invalidates every cached cell).
CELLS_TOKEN = "1"


def _partition_stage(
    specs: tuple[ScenarioSpec, ...], context: PipelineContext
) -> list[Shard]:
    """One shard per cell, content-keyed by the spec fingerprint."""
    return [
        Shard(
            index=index,
            records=[spec],  # type: ignore[list-item] -- payload, not rows
            positions=[index],
            fingerprint=spec.fingerprint(),
        )
        for index, spec in enumerate(specs)
    ]


@functools.cache
def _cell_simulator() -> ModuleType:
    """:mod:`.simulate`, imported by the first cell this process computes.

    A warm run loads every cell from cache, so it never pays for the
    simulator (or numpy); the cache keeps the import off the per-cell
    path.  It holds the module, not ``run_cell``, so a later rebinding
    of ``simulate.run_cell`` still takes effect.
    """
    from . import simulate

    return simulate


def _cell_worker(specs: list[ScenarioSpec]) -> list[CellResult]:
    """Shard worker: run the (single) cell a shard carries.

    Module-level so the process pool and the queue executor can
    pickle it by reference.
    """
    simulate = _cell_simulator()
    return [simulate.run_cell(spec) for spec in specs]


def _merge_cells(
    outputs: list[list[CellResult]], context: PipelineContext
) -> tuple[CellResult, ...]:
    """Stitch per-shard results back into grid order."""
    return tuple(result for shard_output in outputs for result in shard_output)


def _scorecard_stage(context: PipelineContext) -> tuple[ScorecardRow, ...]:
    cells: tuple[CellResult, ...] = context.artifact("cells")  # type: ignore[assignment]
    return build_scorecard(cells)


def _roc_stage(context: PipelineContext) -> tuple[RocTable, ...]:
    cells: tuple[CellResult, ...] = context.artifact("cells")  # type: ignore[assignment]
    return build_roc_tables(cells)


def build_matrix_pipeline(
    grid: ScenarioGrid,
    jobs: int = 1,
    executor: str = "process",
    spool: str | None = None,
    workers: int | None = None,
    cache_dir: str | None = None,
    no_cache: bool = False,
) -> Pipeline:
    """Assemble the cached stage graph for one grid."""
    specs = tuple(grid.cells())
    stages = [
        FunctionStage(
            name="cell_partition",
            fn=functools.partial(_partition_stage, specs),
            cache=False,
            token=grid.fingerprint(),
        ),
        ShardStage(
            name="cells",
            worker=_cell_worker,
            merge=_merge_cells,
            deps=("cell_partition",),
            shards_artifact="cell_partition",
            token=CELLS_TOKEN,
        ),
        FunctionStage(
            name="scorecard", fn=_scorecard_stage, deps=("cells",)
        ),
        FunctionStage(name="roc", fn=_roc_stage, deps=("cells",)),
    ]
    store = (
        ArtifactStore(cache_dir, read=not no_cache)
        if cache_dir is not None
        else None
    )
    context = PipelineContext(
        config=PipelineConfig(
            jobs=jobs, executor=executor, spool=spool, workers=workers
        ),
        store=store,
    )
    return Pipeline(stages, context)


@dataclass(frozen=True)
class MatrixRun:
    """Outcome of one matrix execution.

    Attributes:
        cells: per-cell results, in grid order.
        scorecard: per-deterrence-config aggregate rows.
        roc: detector ROC tables.
        stats: artifact-cache accounting for the run.
        computed: cells actually simulated this run.
        cached: cells served from the artifact store.
    """

    cells: tuple[CellResult, ...]
    scorecard: tuple[ScorecardRow, ...]
    roc: tuple[RocTable, ...]
    stats: CacheStats
    computed: int
    cached: int


def run_matrix(
    grid: ScenarioGrid,
    jobs: int = 1,
    executor: str = "process",
    spool: str | None = None,
    workers: int | None = None,
    cache_dir: str | None = None,
    no_cache: bool = False,
) -> MatrixRun:
    """Execute a grid end-to-end and fold in cache accounting.

    ``computed`` counts shard-level misses on the ``cells`` stage; a
    fully warm run (the merged artifact itself hits) computes zero
    cells without ever touching the shard layer.
    """
    pipeline = build_matrix_pipeline(
        grid,
        jobs=jobs,
        executor=executor,
        spool=spool,
        workers=workers,
        cache_dir=cache_dir,
        no_cache=no_cache,
    )
    artifacts = pipeline.run(["cells", "scorecard", "roc"])
    stats = pipeline.context.stats
    total = len(grid)
    if pipeline.context.store is None:
        # No store: the shard-cache layer never ran, every cell was
        # simulated in-process.
        computed = total
    else:
        computed = len(stats.shard_misses.get("cells", []))
    return MatrixRun(
        cells=artifacts["cells"],  # type: ignore[arg-type]
        scorecard=artifacts["scorecard"],  # type: ignore[arg-type]
        roc=artifacts["roc"],  # type: ignore[arg-type]
        stats=stats,
        computed=computed,
        cached=total - computed,
    )
