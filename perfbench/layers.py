"""Which public functions of which layer the traced run wraps.

Every span key is ``<layer>.<name>``, with the layers named after the
``repro`` packages.  Work that runs in worker processes is timed from the
parent, around the call that dispatches it (``pipeline.shard_map``).
Time a thread spends blocked on work running on other threads of the
same process is keyed ``wait.*``, so that it is not counted as the
blocked layer's own work.
"""

from __future__ import annotations

import os
import pickle

from perfbench.tracing import Patcher, Tracer, resolve

#: The span keys whose self time the per-layer metrics report.
STUDY_STAGES = (
    "preprocess",
    "overview",
    "phase_slices",
    "directive_records",
    "skipped_checks",
    "per_bot",
    "category_table",
    "per_bot_spoofed",
    "passive",
    "recheck",
    "spoof_findings",
    "spoof_partitions",
    "site_traffic",
)

#: Analysis functions the experiment drivers call directly, outside the
#: stage DAG.
OUTSIDE_DAG = (
    "repro.analysis.overview:dataset_overview",
    "repro.analysis.overview:top_bots",
    "repro.analysis.overview:category_session_counts",
    "repro.analysis.overview:daily_sessions_by_category",
    "repro.analysis.overview:bytes_cdf_by_category",
    "repro.reporting.study:StudyAnalysis.phase_summary",
    "repro.reporting.study:StudyAnalysis.phase_spoof_counts",
)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _tree_size(root) -> int:
    return sum(
        _file_size(os.path.join(folder, name))
        for folder, _dirs, names in os.walk(root)
        for name in names
    )


def _pickled_size(value) -> int:
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


# -- after-call hooks: (tracer, result, *call args) -> bytes for the span ------


def _records(tracer, dataset, *_args, **_kwargs):
    tracer.count("simulation.records", len(dataset.records))


def _written(tracer, _count, _records, path):
    return _file_size(path)


def _loaded(tracer, outcome, store, key):
    status = outcome[0]
    tracer.count("pipeline.store_hits" if status == "hit" else "pipeline.store_misses")
    if status == "hit" and store.backend is None:
        return _file_size(store._object_path(key))
    return 0


def _stored(tracer, _none, store, key, _value, stage=""):
    return 0 if store.backend is not None else _file_size(store._object_path(key))


def _crossed(tracer, results, payloads):
    tracer.count("pipeline.shard_payload_bytes", _pickled_size(list(payloads)))
    tracer.count("pipeline.shard_result_bytes", _pickled_size(results))


def _sharded(tracer, results, worker, payloads, jobs=1, executor="process"):
    if jobs > 1 and len(payloads) > 1 and executor == "process":
        _crossed(tracer, results, payloads)


def _queued(tracer, results, worker, payloads, *_args, **_kwargs):
    _crossed(tracer, results, payloads)


def _coordinated(tracer, _results, coordinator, worker, payloads, stage="stage"):
    tracer.count("distributed.tasks", len(payloads))
    root = getattr(coordinator.spool, "root", None)
    if root is not None:
        tracer.count("distributed.spool_bytes", _tree_size(root))


def _shard_cache(tracer, _merged, pipeline, item):
    stats = pipeline.context.stats
    tracer.count("pipeline.shard_hits", len(stats.shard_hits.get(item.name, ())))
    tracer.count("pipeline.shard_misses", len(stats.shard_misses.get(item.name, ())))


def _matrix(tracer, run, *_args, **_kwargs):
    tracer.count("scenarios.cells_computed", run.computed)
    tracer.count("scenarios.cells_cached", run.cached)


def _stage_key(pipeline, name):
    # A stage another thread already owns only blocks on its future.
    return "wait.stage" if name in pipeline._futures else f"pipeline.stage.{name}"


def _run_key(pipeline, *_args, **_kwargs):
    # With jobs > 1 the caller blocks while a thread pool runs the stages.
    return "wait.pool" if pipeline.context.config.jobs > 1 else "pipeline.run"


#: (function path, span key, after-call hook).
WRAPPED = (
    # simulation
    ("repro.simulation.engine:run_study", "simulation.run", _records),
    ("repro.bots.agent:BotAgent.emit_day", "simulation.agent_emit", None),
    ("repro.simulation.noise:NoiseModel.emit_day", "simulation.noise_emit", None),
    ("repro.web.server:WebServer.handle", "simulation.server_handle", None),
    # logs
    ("repro.logs.io:write_jsonl", "logs.write", _written),
    ("repro.logs.io:read_jsonl", "logs.read", None),
    ("repro.logs.preprocess:scanner_stats", "logs.preprocess", None),
    ("repro.logs.preprocess:Preprocessor.enrich_filtered", "logs.preprocess", None),
    ("repro.logs.sessionize:sessionize", "logs.sessionize", None),
    # pipeline
    ("repro.pipeline.context:RecordSource.fingerprint", "pipeline.fingerprint", None),
    ("repro.pipeline.store:ArtifactStore.load", "pipeline.store_load", _loaded),
    ("repro.pipeline.store:ArtifactStore.store", "pipeline.store_write", _stored),
    ("repro.pipeline.runner:Pipeline.get", _stage_key, None),
    ("repro.pipeline.runner:Pipeline.run", _run_key, None),
    ("repro.pipeline.runner:Pipeline._run_shard_stage_cached", "pipeline.shard_cache", _shard_cache),
    ("repro.pipeline.shard:partition_batches", "pipeline.shard_partition", None),
    ("repro.pipeline.shard:run_sharded", "pipeline.shard_map", _sharded),
    ("repro.distributed.coordinator:run_sharded_queue", "pipeline.shard_map", _queued),
    ("repro.logs.preprocess:merge_preprocess_shards", "pipeline.shard_merge", None),
    # robots
    ("repro.robots.policy:RobotsPolicy.from_text", "robots.compile", None),
    ("repro.robots.compiled:CompiledPolicy._compile_groups", "robots.compile_rules", None),
    # service
    ("repro.service.http:ServiceProtocol.data_received", "service.parse", None),
    ("repro.service.http:ServiceProtocol._write", "service.write", None),
    ("repro.service.router:ServiceRouter.respond_fast", "service.route", None),
    ("repro.service.router:ServiceRouter.respond", "service.route", None),
    ("repro.service.core:DecisionService.can_fetch_payload", "service.verdict", None),
    ("repro.robots.policy:RobotsPolicy.can_fetch_many", "service.verdict", None),
    ("repro.service.core:PolicyProvider._resolve", "service.resolve", None),
    # scenarios
    ("repro.scenarios.matrix:run_matrix", "scenarios.matrix", _matrix),
    ("repro.scenarios.simulate:run_cell", "scenarios.cell", None),
    ("repro.scenarios.report:build_scorecard", "scenarios.report", None),
    ("repro.scenarios.report:build_roc_tables", "scenarios.report", None),
    # distributed
    ("repro.distributed.coordinator:QueueCoordinator.run", "distributed.run", _coordinated),
) + tuple((path, "analysis.outside_dag", None) for path in OUTSIDE_DAG)


def install(tracer: Tracer) -> Patcher:
    """Wrap every function in :data:`WRAPPED` plus the experiment drivers.

    Every target module is imported first, so each module that imports a
    target by name already holds the binding the patcher replaces.
    """
    import repro.cli  # noqa: F401
    from repro.reporting.experiments import EXPERIMENTS

    for path, _key, _after in WRAPPED:
        resolve(path)
    patcher = Patcher(tracer)
    for path, key, after in WRAPPED:
        patcher.wrap(path, key, after)
    patcher.wrap_entries(EXPERIMENTS, lambda name: f"reporting.driver.{name}")
    return patcher
