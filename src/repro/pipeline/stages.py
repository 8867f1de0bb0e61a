"""The study's analysis passes, expressed as pipeline stages.

This module turns the paper's §4 methodology chain — preprocess →
phase-slice → per-bot compliance → category aggregation (Table 5) →
spoofing / check-frequency — into a declared DAG of
:class:`~repro.pipeline.stage.Stage` objects, built by
:func:`build_study_pipeline`.  The
:class:`~repro.reporting.study.StudyAnalysis` facade is a thin view
over exactly this pipeline; drivers in
:mod:`repro.reporting.experiments` consume the same artifacts.

Stage graph (artifact names)::

    preprocess ──┬── preprocess_report
                 ├── overview ── overview_tables
                 ├── phase_slices ──┬── directive_records ── skipped_checks
                 │                  ├── per_bot ── category_table
                 │                  ├── per_bot_spoofed
                 │                  └── phase_tables
                 ├── passive ── recheck
                 ├── spoof_findings ── spoof_partitions
                 └── site_traffic

``per_bot``, ``per_bot_spoofed`` and ``phase_tables`` also read
``spoof_findings``.  ``overview_tables`` (Tables 2-3, Figures 2-4) and
``phase_tables`` (Tables 4 and 9) hold the small printed tables, and
``preprocess_report`` the preprocessing counts, so a warm run loads
them instead of the record lists they reduce.

With an artifact store, every stage is cached except the record
slices — ``overview``, ``phase_slices``, ``directive_records``,
``passive`` and ``spoof_partitions`` — which are cheap list filters
over ``preprocess`` that no warm run reads, so a run that needs one
recomputes it from the cached ``preprocess``.  Their fingerprints
still key the stages below them.

With ``config.jobs > 1`` the ``preprocess`` stage becomes a
:class:`~repro.pipeline.stage.ShardStage`: the record stream is hash-
partitioned by site, each shard is enriched in a parallel
worker (:func:`repro.logs.preprocess.preprocess_shard`), and the
merge hook applies the scanner screen to *merged* counters and
restores original stream order
(:func:`repro.logs.preprocess.merge_preprocess_shards`) — so sharded
and sequential runs produce byte-identical artifacts.
"""

from __future__ import annotations

from functools import partial

from ..analysis.aggregate import category_compliance
from ..analysis.checkfreq import recheck_by_category, skipped_check_rows
from ..analysis.compliance import Directive
from ..analysis.overview import (
    SiteTraffic,
    overview_tables,
    phase_tally,
    site_traffic,
)
from ..analysis.perbot import per_bot_results, spoofed_bot_results
from ..analysis.spoofing import find_spoofed_bots, partition_records as spoof_partition
from ..logs.preprocess import (
    Preprocessor,
    merge_preprocess_shards,
    preprocess_shard,
    records_by_bot,
)
from ..logs.schema import LogRecord
from ..robots.corpus import RobotsVersion
from .context import PipelineConfig, PipelineContext, RecordSource
from .runner import Pipeline
from .shard import partition_batches
from .stage import FunctionStage, ShardStage
from .store import ArtifactStore

__all__ = [
    "SiteTraffic",
    "VERSION_DIRECTIVES",
    "build_study_pipeline",
    "phase_entry",
]

#: Experiment phase -> measured directive (the paper's three
#: treatment deployments; the base file is the control).
VERSION_DIRECTIVES: dict[RobotsVersion, Directive] = {
    RobotsVersion.V1_CRAWL_DELAY: Directive.CRAWL_DELAY,
    RobotsVersion.V2_ENDPOINT: Directive.ENDPOINT,
    RobotsVersion.V3_DISALLOW_ALL: Directive.DISALLOW_ALL,
}


def _scenario(context: PipelineContext):
    return context.params["scenario"]


def _records(context: PipelineContext) -> list[LogRecord]:
    records, _report = context.artifact("preprocess")
    return records


# -- ingestion / preprocessing ------------------------------------------


def _preprocess_sequential(
    context: PipelineContext, preprocessor: Preprocessor | None = None
) -> tuple[list[LogRecord], object]:
    """Single-process preprocessing over the source's one parse.

    The scanner screen and enrichment share :meth:`RecordSource.rows`,
    the source's one parse (or a list source's own records), whose
    objects are enriched in place.
    """
    pre = preprocessor if preprocessor is not None else Preprocessor()
    source = context.source
    assert source is not None
    return pre.run(source.rows())


def _partition_stage(context: PipelineContext):
    """Hash-partition the source, columnar-wise.

    Packs the row stream into column batches and gathers them into
    batch-backed shards: a shard's rows are rebuilt only when its
    worker actually has to run, and on a warm (fully cached) run never
    — per-shard cache keys hash the shard's columns directly.
    """
    source = context.source
    assert source is not None
    return partition_batches(source.batches(), context.config.jobs)


def _preprocess_report(context: PipelineContext):
    _records, report = context.artifact("preprocess")
    return report


def _merge_preprocess(outputs, context: PipelineContext):
    shards = context.artifact("shards")
    return merge_preprocess_shards(
        list(outputs),
        [shard.positions for shard in shards],
        drop_scanners=context.config.drop_scanners,
    )


# -- slicing -------------------------------------------------------------


def _overview(context: PipelineContext) -> list[LogRecord]:
    scenario = _scenario(context)
    start, end = scenario.overview_start, scenario.overview_end
    return [
        record
        for record in _records(context)
        if start <= record.timestamp < end
    ]


def _phase_slices(
    context: PipelineContext,
) -> dict[RobotsVersion, list[LogRecord]]:
    """Experiment-site records per deployment phase, in one pass.

    Slices only the phases the scenario actually defines, so partial
    scenarios (e.g. baseline + one treatment) still support the
    phases they have; consumers of a missing phase reproduce the
    legacy per-version :class:`~repro.exceptions.ScenarioError` via
    :func:`phase_entry`.
    """
    scenario = _scenario(context)
    site = scenario.experiment_site
    phases: list[tuple[RobotsVersion, object]] = []
    seen: set[RobotsVersion] = set()
    for phase in scenario.phases:
        if phase.version in seen:
            continue  # phase_for_version returns the first match
        seen.add(phase.version)
        phases.append((phase.version, phase))
    slices: dict[RobotsVersion, list[LogRecord]] = {
        version: [] for version, _ in phases
    }
    for record in _records(context):
        if record.sitename != site:
            continue
        for version, phase in phases:
            if phase.contains(record.timestamp):
                slices[version].append(record)
    return slices


def phase_entry(by_phase: dict, scenario, version: RobotsVersion):
    """One phase's entry of a per-phase artifact, raising the legacy
    ScenarioError when the scenario has no phase for ``version``."""
    try:
        return by_phase[version]
    except KeyError:
        scenario.phase_for_version(version)  # raises ScenarioError
        raise  # pragma: no cover - scenario mutated mid-run


def _directive_records(
    context: PipelineContext,
) -> dict[Directive, list[LogRecord]]:
    slices = context.artifact("phase_slices")
    scenario = _scenario(context)
    return {
        directive: phase_entry(slices, scenario, version)
        for version, directive in VERSION_DIRECTIVES.items()
    }


def _passive(context: PipelineContext) -> list[LogRecord]:
    passive = set(_scenario(context).passive_sites)
    return [
        record for record in _records(context) if record.sitename in passive
    ]


# -- analyses ------------------------------------------------------------


def _spoof_findings(context: PipelineContext):
    return find_spoofed_bots(_records(context))


def _spoof_partitions(context: PipelineContext):
    return spoof_partition(_records(context), context.artifact("spoof_findings"))


def _per_bot(context: PipelineContext):
    slices = context.artifact("phase_slices")
    return per_bot_results(
        phase_entry(slices, _scenario(context), RobotsVersion.BASE),
        context.artifact("directive_records"),
        spoof_findings=context.artifact("spoof_findings"),
    )


def _per_bot_spoofed(context: PipelineContext):
    slices = context.artifact("phase_slices")
    return spoofed_bot_results(
        phase_entry(slices, _scenario(context), RobotsVersion.BASE),
        context.artifact("directive_records"),
        context.artifact("spoof_findings"),
    )


def _phase_tables(context: PipelineContext):
    findings = context.artifact("spoof_findings")
    return {
        version: phase_tally(records, findings)
        for version, records in context.artifact("phase_slices").items()
    }


def _overview_tables(context: PipelineContext):
    return overview_tables(context.artifact("overview"))


def _category_table(context: PipelineContext):
    return category_compliance(context.artifact("per_bot"))


def _skipped_checks(context: PipelineContext):
    directive_by_bot = {
        directive: records_by_bot(records)
        for directive, records in context.artifact("directive_records").items()
    }
    return skipped_check_rows(directive_by_bot)


def _recheck(context: PipelineContext):
    return recheck_by_category(context.artifact("passive"))


def _site_traffic(context: PipelineContext) -> dict[str, SiteTraffic]:
    return site_traffic(_records(context))


# -- pipeline assembly ----------------------------------------------------


def build_study_pipeline(
    source,
    scenario,
    config: PipelineConfig | None = None,
    preprocessor: Preprocessor | None = None,
    cache_dir: object = None,
    no_cache: bool = False,
) -> Pipeline:
    """Assemble the full study-analysis pipeline.

    Args:
        source: anything :meth:`RecordSource.of` accepts — a record
            list, a reader factory, or an existing source.
        scenario: the :class:`~repro.simulation.scenario.StudyScenario`
            describing phases and sites.
        config: execution knobs; ``jobs > 1`` selects the sharded
            preprocess path (default preprocessor only).  The CLI's
            ``analyze`` offers the ``process`` and ``inline``
            executors; ``executor="queue"`` + ``spool`` still routes
            the shard map through :mod:`repro.distributed`, which the
            queue parity and fault tests rely on.
        preprocessor: custom preprocessing pipeline.  Custom instances
            always run in-process (they may hold unpicklable state), so
            they force the sequential preprocess stage — and disable
            the artifact cache, since arbitrary preprocessor state
            cannot key it.
        cache_dir: directory for the persistent
            :class:`~repro.pipeline.store.ArtifactStore`; ``None``
            (default) disables cross-run caching entirely.
        no_cache: with ``cache_dir`` set, bypass cache *reads* while
            still publishing fresh artifacts (a refresh mode).
    """
    config = config or PipelineConfig()
    store = None
    if cache_dir is not None and preprocessor is None:
        store = ArtifactStore(cache_dir, read=not no_cache)
    context = PipelineContext(
        config=config,
        source=RecordSource.of(source),
        params={"scenario": scenario},
        store=store,
    )
    stages: list = []
    if config.jobs > 1 and preprocessor is None:
        stages.append(
            FunctionStage(
                "shards", _partition_stage, cache=False, passthrough=True
            )
        )
        stages.append(
            ShardStage(
                "preprocess",
                worker=partial(
                    preprocess_shard, drop_scanners=config.drop_scanners
                ),
                merge=_merge_preprocess,
                deps=("shards",),
            )
        )
    else:
        stages.append(
            FunctionStage(
                "preprocess",
                partial(_preprocess_sequential, preprocessor=preprocessor),
            )
        )
    stages.extend(
        [
            FunctionStage(
                "preprocess_report", _preprocess_report, deps=("preprocess",)
            ),
            FunctionStage(
                "overview", _overview, deps=("preprocess",), cache=False
            ),
            FunctionStage(
                "phase_slices", _phase_slices, deps=("preprocess",), cache=False
            ),
            FunctionStage(
                "directive_records",
                _directive_records,
                deps=("phase_slices",),
                cache=False,
            ),
            FunctionStage(
                "passive", _passive, deps=("preprocess",), cache=False
            ),
            FunctionStage(
                "spoof_findings", _spoof_findings, deps=("preprocess",)
            ),
            FunctionStage(
                "spoof_partitions",
                _spoof_partitions,
                deps=("preprocess", "spoof_findings"),
                cache=False,
            ),
            FunctionStage(
                "per_bot",
                _per_bot,
                deps=("phase_slices", "directive_records", "spoof_findings"),
                token="2",
            ),
            FunctionStage(
                "per_bot_spoofed",
                _per_bot_spoofed,
                deps=("phase_slices", "directive_records", "spoof_findings"),
                token="2",
            ),
            FunctionStage(
                "overview_tables", _overview_tables, deps=("overview",)
            ),
            FunctionStage(
                "phase_tables",
                _phase_tables,
                deps=("phase_slices", "spoof_findings"),
            ),
            FunctionStage("category_table", _category_table, deps=("per_bot",)),
            FunctionStage(
                "skipped_checks", _skipped_checks, deps=("directive_records",)
            ),
            FunctionStage("recheck", _recheck, deps=("passive",)),
            FunctionStage(
                "site_traffic", _site_traffic, deps=("preprocess",), token="2"
            ),
        ]
    )
    return Pipeline(stages, context=context)
