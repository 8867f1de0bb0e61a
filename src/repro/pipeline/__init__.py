"""repro.pipeline: a sharded, streaming analysis-pipeline API.

The paper's methodology is a chain of log-analysis passes; production
reuse (thousands of sites × snapshots, millions of records) needs that
chain to be composable, shardable and streaming rather than a set of
eagerly-computed properties on one facade object.  This package is
the contract:

**Stage** (:mod:`repro.pipeline.stage`)
    A named unit of work with declared dependencies and a
    ``run(context) -> artifact`` method.  :class:`FunctionStage` wraps
    a plain callable; :class:`ShardStage` is the map/reduce shape — a
    picklable worker per record shard plus an explicit ``merge`` hook.

**Pipeline** (:mod:`repro.pipeline.runner`)
    Validates the stage DAG (unique names, known deps, no cycles),
    topologically orders it, and computes artifacts on demand,
    memoized single-flight in a :class:`PipelineContext`.  Stages run
    in the calling thread; ``config.jobs`` parallelizes shard work
    inside a :class:`ShardStage`.

**Sharding** (:mod:`repro.pipeline.shard`)
    Deterministic crc32 hash partitioning by site, an
    order-restoring merge, and the process/inline executors (plus the
    ``queue`` spool of :mod:`repro.distributed`).  The
    parity guarantee — sharded output == sequential output, enforced
    by property tests — is a design invariant: merges consume
    mergeable statistics (counters, sets) and restore original stream
    order before any order-sensitive reduction runs.

**Record source** (:class:`~repro.pipeline.context.RecordSource`)
    One row source, parsed at most once per run: the first pass that
    needs every row (the fingerprint, sequential preprocessing) keeps
    the rows of an ``iter_log_records(path, format)`` factory, and
    later passes replay them; an in-memory list is replayed as-is.
    A run with no store and ``jobs > 1`` streams the factory once
    through the shard partitioner without holding it.  Column batches
    appear only where the pipeline hashes or gathers by column: the
    source fingerprint and the shard partitioner.

**Study stages** (:mod:`repro.pipeline.stages`)
    The paper's §4 chain as a prebuilt DAG
    (:func:`build_study_pipeline`); the
    :class:`~repro.reporting.study.StudyAnalysis` facade and the
    experiment drivers are thin views over it.

**Incremental caching** (:mod:`repro.pipeline.store`)
    A content-addressed on-disk :class:`ArtifactStore`.  Stage keys
    combine a streaming, chunked source fingerprint, each stage's
    declared code token, and the transitive fingerprints of its
    dependencies; shard-stage worker outputs are additionally cached
    per shard by content, so appending records to a log reruns only
    the affected shard plus the stages downstream of it.  A log file
    source (:meth:`RecordSource.from_file`) memoizes its fingerprint
    in the store under the SHA-256 of the file's raw bytes, so a warm
    run over an unchanged log parses no row.  The cached == cold
    byte-parity guarantee is property-tested alongside the sharded ==
    sequential one.

Quickstart::

    from repro.pipeline import (
        PipelineConfig, RecordSource, build_study_pipeline,
    )

    pipeline = build_study_pipeline(
        source=RecordSource.from_file("study.jsonl"),
        scenario=default_scenario(),
        config=PipelineConfig(jobs=4),
        cache_dir=".repro-cache",            # incremental re-analysis
    )
    table = pipeline.get("category_table")       # Table 5
    report = pipeline.get("preprocess_report")   # counts, no records
    print(pipeline.context.stats.summary())      # hits/misses this run
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "PipelineConfig": ".context",
    "PipelineContext": ".context",
    "RecordSource": ".context",
    "Pipeline": ".runner",
    "Shard": ".shard",
    "partition_batches": ".shard",
    "restore_order": ".shard",
    "run_sharded": ".shard",
    "shard_index": ".shard",
    "FunctionStage": ".stage",
    "ShardStage": ".stage",
    "Stage": ".stage",
    "SiteTraffic": "..analysis.overview",
    "VERSION_DIRECTIVES": ".stages",
    "build_study_pipeline": ".stages",
    "ArtifactStore": ".store",
    "CacheStats": ".store",
    "PruneResult": ".store",
    "SourceFingerprint": ".store",
    "StoreInfo": ".store",
    "fingerprint_batch": ".store",
    "fingerprint_stream": ".store",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ArtifactStore",
    "CacheStats",
    "FunctionStage",
    "Pipeline",
    "PipelineConfig",
    "PipelineContext",
    "PruneResult",
    "RecordSource",
    "Shard",
    "ShardStage",
    "SiteTraffic",
    "SourceFingerprint",
    "Stage",
    "StoreInfo",
    "VERSION_DIRECTIVES",
    "build_study_pipeline",
    "fingerprint_batch",
    "fingerprint_stream",
    "partition_batches",
    "restore_order",
    "run_sharded",
    "shard_index",
]
