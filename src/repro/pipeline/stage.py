"""The Stage contract: named units of work with declared dependencies.

A stage is anything with three members:

``name``
    Unique identifier; doubles as the artifact key in the
    :class:`~repro.pipeline.context.PipelineContext`.
``deps``
    Names of stages whose artifacts must exist before ``run`` is
    called.  The runner resolves these on demand before running the
    stage.
``run(context)``
    Compute and return this stage's artifact.  Stages read their
    inputs via ``context.artifact(dep)`` and must not mutate other
    stages' artifacts.

Two concrete implementations cover almost every need:

:class:`FunctionStage`
    Wraps a plain callable — the workhorse for slicing and analysis
    stages that run in the coordinating process.

:class:`ShardStage`
    The map/reduce shape: a picklable ``worker`` runs once per record
    shard on the configured executor (processes by default), then an
    explicit ``merge`` hook reduces the per-shard artifacts into one
    global artifact.  The shard partition itself is an upstream stage
    artifact (``shards_artifact``), so several shard stages can share
    one partition pass.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from .context import PipelineContext
from .shard import Shard, run_sharded


@runtime_checkable
class Stage(Protocol):
    """Structural protocol every pipeline stage satisfies."""

    name: str
    deps: tuple[str, ...]

    def run(self, context: PipelineContext) -> object: ...


@dataclass(frozen=True)
class FunctionStage:
    """A stage defined by a plain function of the context.

    ``token`` is the stage's declared code/version tag for the
    persistent artifact cache: bump it when the stage's semantics
    change so previously cached artifacts stop matching.  ``cache``
    opts a stage out of the store entirely (e.g. the shard partition,
    which is execution plumbing rather than an analysis result).
    ``passthrough`` marks a stage as a pure re-arrangement of the
    record source (again, the shard partition): dependents fold the
    *source* fingerprint into their keys instead of this stage's, so
    sequential and sharded pipelines derive identical cache keys and
    a cache written at ``--jobs 4`` serves a ``--jobs 1`` rerun.
    """

    name: str
    fn: Callable[[PipelineContext], object]
    deps: tuple[str, ...] = ()
    token: str = "1"
    cache: bool = True
    passthrough: bool = False

    def run(self, context: PipelineContext) -> object:
        return self.fn(context)


@dataclass(frozen=True)
class ShardStage:
    """A map/reduce stage over a record partition.

    Attributes:
        name: stage/artifact name.
        worker: picklable callable applied to each shard's record list
            in a worker (module-level function or ``functools.partial``
            of one when the executor is ``process``).
        merge: reduce hook combining the per-shard outputs (ordered by
            shard index) into the stage artifact; receives the context
            so it can read the partition for order restoration.
        deps: stage dependencies; must include ``shards_artifact``.
        shards_artifact: name of the upstream stage producing the
            ``list[Shard]`` partition.
        token: declared code/version tag for the artifact cache; keys
            both the merged artifact and the per-shard worker outputs.
        cache: opt-out flag for the artifact cache.
    """

    name: str
    worker: Callable[[list], object]
    merge: Callable[[Sequence[object], PipelineContext], object]
    deps: tuple[str, ...] = ("shards",)
    shards_artifact: str = "shards"
    token: str = "1"
    cache: bool = True

    def run(self, context: PipelineContext) -> object:
        shards: list[Shard] = context.artifact(self.shards_artifact)  # type: ignore[assignment]
        outputs = self.map_shards(context, shards)
        return self.merge(outputs, context)

    def map_shards(
        self, context: PipelineContext, shards: Sequence[Shard]
    ) -> list[object]:
        """Run the worker over ``shards`` on the configured executor.

        Split out from :meth:`run` so the cache-aware runner can map
        only the shards whose outputs were not found in the store and
        still reuse the same executor policy.

        The ``queue`` executor routes through the distributed spool
        coordinator instead of an in-process pool: tasks are enqueued
        into ``config.spool`` and ``config.workers`` (default: one per
        shard job) local worker processes are spun up for the duration
        of the map — ``workers=0`` relies entirely on externally
        started ``repro-study worker`` processes serving the spool.
        """
        if context.config.executor == "queue":
            from ..distributed.coordinator import run_sharded_queue

            assert context.config.spool is not None  # enforced by config
            workers = context.config.workers
            return run_sharded_queue(
                self.worker,
                [shard.records for shard in shards],
                spool=context.config.spool,
                workers=context.config.jobs if workers is None else workers,
                stage=self.name,
            )
        return run_sharded(
            self.worker,
            [shard.records for shard in shards],
            jobs=context.config.jobs,
            executor=context.config.executor,
        )
