"""The Pipeline runner: topological ordering and memoization.

:class:`Pipeline` owns a set of stages and a
:class:`~repro.pipeline.context.PipelineContext`.  Construction
validates the graph (unique names, known dependencies, no cycles) and
fixes a deterministic topological order.  Execution is demand-driven
and memoized:

- :meth:`get` computes one artifact (and its transitive dependencies)
  and caches it in the context — repeated calls return the identical
  object, which is what lets the ``StudyAnalysis`` facade keep its
  historical ``cached_property`` semantics.
- :meth:`run` computes many artifacts, one :meth:`get` at a time.
  Stages run in the calling thread (they are GIL-bound); the
  parallelism is inside :class:`~repro.pipeline.stage.ShardStage`,
  which fans shard work out onto the configured executor.

Memoization is single-flight: concurrent requests for one artifact
block on a shared future instead of duplicating work, so the same
pipeline instance is safe to share across threads.

When the context carries an :class:`~repro.pipeline.store.ArtifactStore`,
memoization extends across runs: before executing a cacheable stage the
runner derives the stage's key — ``H(schema, stage name, stage token,
params/config environment, transitive dependency fingerprints, and the
source fingerprint for root stages)`` — and serves the stored artifact
on a hit.  :class:`~repro.pipeline.stage.ShardStage` additionally caches
each shard's worker output under the shard's *content* fingerprint, so
an appended log reruns only the shards that actually received records;
untouched shards load from the store and only the merge (plus the
stages downstream of the changed data) recomputes.  Hits, misses and
invalidations are tallied in ``context.stats``.  A file-backed source
is fingerprinted by the file's raw bytes, so a warm run over an
unchanged log hashes it and parses none of it.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from concurrent.futures import Future

from ..exceptions import PipelineError
from .context import PipelineContext
from .shard import Shard
from .stage import ShardStage, Stage
from .store import (
    CACHE_SCHEMA,
    digest_parts,
    fingerprint_batch,
    stable_token,
)


class Pipeline:
    """A validated DAG of stages with memoized, demand-driven execution."""

    def __init__(
        self,
        stages: Iterable[Stage],
        context: PipelineContext | None = None,
    ) -> None:
        self.context = context if context is not None else PipelineContext()
        self._stages: dict[str, Stage] = {}
        for item in stages:
            if item.name in self._stages:
                raise PipelineError(f"duplicate stage name {item.name!r}")
            self._stages[item.name] = item
        self._validate()
        self._lock = threading.Lock()
        self._futures: dict[str, Future] = {}
        self._fingerprints: dict[str, str] = {}
        self._env_fingerprint: str | None = None

    # -- graph bookkeeping -------------------------------------------

    def _validate(self) -> None:
        for item in self._stages.values():
            for dep in item.deps:
                if dep not in self._stages:
                    raise PipelineError(
                        f"stage {item.name!r} depends on unknown stage {dep!r}"
                    )
        self.order = self._topological_order()

    def _topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm; raises on cycles.  Ties resolve in
        declaration order, so the sequence is deterministic."""
        indegree = {name: len(s.deps) for name, s in self._stages.items()}
        dependents: dict[str, list[str]] = {name: [] for name in self._stages}
        for name, item in self._stages.items():
            for dep in item.deps:
                dependents[dep].append(name)
        ready = [name for name in self._stages if indegree[name] == 0]
        ordered: list[str] = []
        while ready:
            name = ready.pop(0)
            ordered.append(name)
            for child in dependents[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(ordered) != len(self._stages):
            cyclic = sorted(set(self._stages) - set(ordered))
            raise PipelineError(f"dependency cycle among stages: {cyclic}")
        return tuple(ordered)

    def stages(self) -> tuple[str, ...]:
        """All stage names in topological order."""
        return self.order

    # -- cache keys ---------------------------------------------------

    def _environment(self) -> str:
        """Fingerprint of everything outside the stage graph that can
        change results: free-form params (the scenario) and the
        result-affecting config knob.  Parallelism knobs (``jobs``,
        ``executor``) are deliberately excluded — the
        sharded == sequential parity guarantee means artifacts are
        interchangeable across them, so a cache written at ``--jobs 4``
        serves a ``--jobs 1`` rerun and vice versa."""
        if self._env_fingerprint is None:
            context = self.context
            self._env_fingerprint = digest_parts(
                CACHE_SCHEMA,
                stable_token(context.params),
                stable_token(context.config.drop_scanners),
            )
        return self._env_fingerprint

    def _source_digest(self) -> str:
        source = self.context.source
        if source is None:
            return ""
        return source.fingerprint()

    def _stage_fingerprint(self, name: str) -> str:
        """Transitive cache key for one stage (memoized).

        Root stages (no deps) fold in the source fingerprint; everyone
        else inherits it through their dependency fingerprints — so an
        appended log invalidates exactly the cone downstream of
        ingestion, and a bumped stage token invalidates exactly the
        cone downstream of that stage.
        """
        cached = self._fingerprints.get(name)
        if cached is not None:
            return cached
        item = self._stages[name]
        parts = [
            "stage",
            name,
            getattr(item, "token", ""),
            self._environment(),
        ]
        if not item.deps:
            parts.append(self._source_digest())
        for dep in item.deps:
            # Passthrough deps (the shard partition) are transparent:
            # dependents key on the source itself, so sequential and
            # sharded variants of the same stage share cache entries.
            if getattr(self._stages[dep], "passthrough", False):
                parts.append(self._source_digest())
            else:
                parts.append(self._stage_fingerprint(dep))
        fingerprint = digest_parts(*parts)
        self._fingerprints[name] = fingerprint
        return fingerprint

    # -- execution ----------------------------------------------------

    def seed(self, name: str, value: object) -> None:
        """Inject a precomputed artifact (e.g. preprocessed records),
        so the stage never runs."""
        if name not in self._stages:
            raise PipelineError(f"unknown stage {name!r}")
        with self._lock:
            future: Future = Future()
            future.set_result(value)
            self._futures[name] = future
            self.context.artifacts[name] = value

    def get(self, name: str) -> object:
        """Compute (or fetch) one artifact, resolving dependencies.

        Thread-safe and single-flight: the first caller computes, any
        concurrent caller blocks on the same future.
        """
        if name not in self._stages:
            raise PipelineError(f"unknown stage {name!r}")
        with self._lock:
            future = self._futures.get(name)
            owner = future is None
            if owner:
                future = Future()
                self._futures[name] = future
        if not owner:
            return future.result()
        try:
            value = self._compute(self._stages[name])
        except BaseException as exc:
            with self._lock:
                # Drop the future so a later call can retry; park the
                # error on it first for any concurrent waiters.
                self._futures.pop(name, None)
            future.set_exception(exc)
            raise
        self.context.artifacts[name] = value
        future.set_result(value)
        return value

    def _resolve_deps(self, item: Stage) -> None:
        for dep in item.deps:
            self.get(dep)

    def _compute(self, item: Stage) -> object:
        """Run one stage, via the artifact store when one is attached.

        The cache lookup happens *before* dependency resolution — keys
        derive from fingerprints, not artifacts, so a warm run never
        partitions, preprocesses, or even loads upstream
        artifacts nobody asked for.  Dependencies are resolved (and
        thereby served from the store themselves, when possible) only
        once this stage actually has to execute.
        """
        context = self.context
        store = context.store
        if store is None or not getattr(item, "cache", True):
            self._resolve_deps(item)
            return item.run(context)
        key = self._stage_fingerprint(item.name)
        status, value = store.load(key)
        if status == "hit":
            context.stats.record_hit(item.name)
            return value
        self._resolve_deps(item)
        last = store.last_key(item.name)
        context.stats.record_miss(
            item.name,
            invalidated=last is not None and last != key,
            corrupt=status == "corrupt",
        )
        if isinstance(item, ShardStage):
            value = self._run_shard_stage_cached(item)
        else:
            value = item.run(context)
        store.store(key, value, stage=item.name)
        store.remember(item.name, key)
        context.stats.published += 1
        return value

    def _run_shard_stage_cached(self, item: ShardStage) -> object:
        """Map/reduce with per-shard caching.

        Each shard's worker output is cached under the shard's content
        fingerprint (plus stage token and environment), independent of
        shard count or position — so after an append only the shards
        whose records changed are re-mapped; everything else loads.
        The merge always runs (it is cheap relative to the map and its
        product is cached at the stage level by :meth:`_compute`).
        """
        context = self.context
        store = context.store
        assert store is not None
        stats = context.stats
        shards: list[Shard] = context.artifact(item.shards_artifact)  # type: ignore[assignment]
        environment = self._environment()
        # Shards carrying an explicit fingerprint (non-record payloads
        # like scenario cells) key on it directly.  Batch-backed shards
        # fingerprint straight off their columns; a warm rerun never
        # builds a single row object for them.
        keys = [
            digest_parts(
                "shard",
                item.name,
                getattr(item, "token", ""),
                environment,
                shard.fingerprint
                if shard.fingerprint is not None
                else fingerprint_batch(shard.batch),
            )
            for shard in shards
        ]
        outputs: list[object] = [None] * len(shards)
        hit_indices: list[int] = []
        miss_indices: list[int] = []
        for index, key in enumerate(keys):
            status, value = store.load(key)
            if status == "hit":
                outputs[index] = value
                hit_indices.append(index)
            else:
                if status == "corrupt":
                    stats.corrupt += 1
                last = store.last_key(f"{item.name}[{index}]")
                if last is not None and last != key:
                    stats.invalidations += 1
                miss_indices.append(index)
        if miss_indices:
            computed = item.map_shards(
                context, [shards[index] for index in miss_indices]
            )
            for index, value in zip(miss_indices, computed):
                outputs[index] = value
                store.store(keys[index], value, stage=f"{item.name}[{index}]")
                store.remember(f"{item.name}[{index}]", keys[index])
                stats.published += 1
        stats.shard_hits[item.name] = hit_indices
        stats.shard_misses[item.name] = miss_indices
        return item.merge(outputs, context)

    def run(self, targets: Sequence[str] | None = None) -> dict[str, object]:
        """Compute ``targets`` (default: every stage) and return them.

        Demand flows through :meth:`get`, so only targets are pulled
        directly and, with a store attached, a cached target never
        computes or loads its upstream closure.
        """
        wanted = tuple(targets) if targets is not None else self.order
        return {name: self.get(name) for name in wanted}
