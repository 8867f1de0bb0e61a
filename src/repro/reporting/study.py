"""StudyAnalysis: a compatibility facade over ``repro.pipeline``.

Historically this class computed every analysis as an eagerly-cached
property over one in-memory record list.  All computation now routes
through :func:`repro.pipeline.stages.build_study_pipeline`: a DAG of
named stages (preprocess → phase slices → per-bot compliance →
category aggregation → spoofing / check frequency) executed by the
memoizing :class:`~repro.pipeline.runner.Pipeline` runner, which can
shard preprocessing by site across worker processes (``jobs``) and
stream records straight from log readers.

Every attribute below is a lookup of one pipeline artifact, and
nothing is computed outside the stage DAG.  Construction is lazy:
building the facade runs no stage, and each artifact is computed (or
loaded from the artifact store) on first access, then returns the
same object on repeated access.  ``jobs=1`` (the default) is
byte-identical to the sharded path.  New code that wants partial
computation, custom stages, or shard-level control should use the
pipeline API directly.

Facade attribute -> pipeline artifact:

==============================================  ==========================
``records``                                     ``preprocess``
``preprocess_report``                           ``preprocess_report``
``overview_records``                            ``overview``
``overview_tables``                             ``overview_tables``
``phase_records(v)``/``baseline_records``       ``phase_slices[v]``
``phase_summary(v)``/``phase_spoof_counts(v)``  ``phase_tables[v]``
``directive_records``                           ``directive_records``
``passive_site_records``                        ``passive``
``spoof_findings``                              ``spoof_findings``
``spoof_partitions``                            ``spoof_partitions``
``per_bot``                                     ``per_bot``
``per_bot_spoofed``                             ``per_bot_spoofed``
``category_table``                              ``category_table``
``skipped_checks``                              ``skipped_checks``
``recheck_proportions``                         ``recheck``
``site_traffic``                                ``site_traffic``
==============================================  ==========================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..analysis.aggregate import CategoryComplianceTable
from ..analysis.compliance import Directive
from ..analysis.overview import OverviewTables, PhaseTally
from ..analysis.perbot import BotDirectiveResult
from ..analysis.spoofing import SpoofFinding, SpoofPartition
from ..logs.preprocess import Preprocessor, PreprocessReport
from ..logs.schema import LogRecord
from ..pipeline import PipelineConfig, build_study_pipeline
from ..pipeline.stages import VERSION_DIRECTIVES, SiteTraffic, phase_entry
from ..robots.corpus import RobotsVersion

if TYPE_CHECKING:
    from ..simulation.engine import StudyDataset

__all__ = ["StudyAnalysis", "VERSION_DIRECTIVES", "analyze"]


class StudyAnalysis:
    """Analysis facade over one :class:`StudyDataset`.

    Args:
        dataset: output of the simulation engine (or a dataset built
            from real logs with the same scenario metadata); ``None``
            when ``source`` and ``scenario`` are given instead.
        preprocessor: pipeline override for custom registries
            (always runs in-process).
        jobs: shard/worker count for preprocessing; ``1`` (default)
            runs fully sequentially.  Sharded (``jobs > 1``) and
            sequential runs produce byte-identical artifacts.
        executor: shard backend (``process``/``inline``/``queue``;
            ``queue`` requires ``spool``).
        spool: spool directory for the ``queue`` executor — shared
            with any ``repro-study worker`` processes serving it.
        workers: local worker processes the ``queue`` executor spawns
            (``None`` mirrors ``jobs``, ``0`` relies on external
            workers).
        remote_store: optional remote artifact-store backend (see
            :func:`repro.pipeline.stages.build_study_pipeline`).
        cache_dir: directory for the persistent artifact store; when
            set, stage artifacts are served from (and published to)
            disk keyed by source/code fingerprints, so re-analyzing an
            unchanged or append-grown corpus only reruns affected
            stages.  ``None`` (default) keeps everything in memory.
        no_cache: bypass cache reads while still publishing — a
            refresh that rebuilds the cache from scratch.
        source / scenario: analyze this record source under this
            scenario instead of ``dataset`` (see :meth:`from_source`).
    """

    def __init__(
        self,
        dataset: StudyDataset | None,
        preprocessor: Preprocessor | None = None,
        jobs: int = 1,
        executor: str = "process",
        spool: str | None = None,
        workers: int | None = None,
        remote_store=None,
        cache_dir: object = None,
        no_cache: bool = False,
        *,
        source=None,
        scenario=None,
    ) -> None:
        self.dataset = dataset
        self.scenario = dataset.scenario if scenario is None else scenario
        self.pipeline = build_study_pipeline(
            source=dataset.source() if source is None else source,
            scenario=self.scenario,
            config=PipelineConfig(
                jobs=jobs,
                executor=executor,
                spool=spool,
                workers=workers,
            ),
            preprocessor=preprocessor,
            cache_dir=cache_dir,
            no_cache=no_cache,
            remote_store=remote_store,
        )

    @classmethod
    def from_source(cls, source, scenario, **options) -> "StudyAnalysis":
        """Build an analysis straight from a record source.

        ``source`` is anything :meth:`RecordSource.of` accepts — most
        usefully :meth:`RecordSource.from_file` or a reader factory
        like ``lambda: read_jsonl(path)``, which the run parses once
        (and a warm cached run not at all).  ``options`` are the
        constructor's keyword arguments.  The ``dataset``
        attribute is ``None`` on instances built this way.
        """
        return cls(None, source=source, scenario=scenario, **options)

    # -- pipeline plumbing -------------------------------------------------

    def _artifact(self, name: str):
        return self.pipeline.get(name)

    @property
    def cache_stats(self):
        """Hit/miss/invalidation tallies for this analysis run.

        All-zero when the analysis was built without a ``cache_dir``.
        """
        return self.pipeline.context.stats

    def run_all(self, experiment_ids: list[str] | None = None) -> dict:
        """Every experiment driver's result, keyed by experiment id.

        Convenience wrapper over
        :func:`repro.reporting.experiments.run_batch`; combined with
        ``cache_dir``, a re-invocation on an unchanged corpus serves
        every backing artifact from the store.
        """
        from .experiments import run_batch

        return run_batch({"study": self}, experiment_ids=experiment_ids)["study"]

    # -- preprocessing -----------------------------------------------------

    @property
    def records(self) -> list[LogRecord]:
        """The enriched, scanner-screened records."""
        return self._artifact("preprocess")[0]

    @property
    def preprocess_report(self) -> PreprocessReport:
        """Preprocessing counts, loaded without the records on a warm run."""
        return self._artifact("preprocess_report")

    # -- slicing -----------------------------------------------------------

    @property
    def overview_records(self) -> list[LogRecord]:
        """Records inside the 40-day overview window (all sites)."""
        return self._artifact("overview")

    def phase_records(self, version: RobotsVersion) -> list[LogRecord]:
        """Experiment-site records during one deployment."""
        return phase_entry(self._artifact("phase_slices"), self.scenario, version)

    @property
    def baseline_records(self) -> list[LogRecord]:
        return self.phase_records(RobotsVersion.BASE)

    @property
    def directive_records(self) -> dict[Directive, list[LogRecord]]:
        return self._artifact("directive_records")

    @property
    def passive_site_records(self) -> list[LogRecord]:
        """Records on the fixed-robots passive-observation sites."""
        return self._artifact("passive")

    # -- analyses ------------------------------------------------------------

    @property
    def overview_tables(self) -> OverviewTables:
        """Tables 2-3 and Figures 2-4 over the overview window."""
        return self._artifact("overview_tables")

    @property
    def spoof_findings(self) -> dict[str, SpoofFinding]:
        """Spoofing heuristic over the full enriched dataset."""
        return self._artifact("spoof_findings")

    @property
    def spoof_partitions(self) -> dict[str, SpoofPartition]:
        return self._artifact("spoof_partitions")

    @property
    def per_bot(self) -> dict[str, dict[Directive, BotDirectiveResult]]:
        """Per-bot baseline-vs-directive results (Fig 9 / Tables 6, 10)."""
        return self._artifact("per_bot")

    @property
    def per_bot_spoofed(
        self,
    ) -> dict[str, dict[Directive, BotDirectiveResult]]:
        """Figure 11's parallel results over spoofed subsets."""
        return self._artifact("per_bot_spoofed")

    @property
    def category_table(self) -> CategoryComplianceTable:
        """Table 5's category x directive compliance."""
        return self._artifact("category_table")

    @property
    def skipped_checks(self):
        """Table 7 rows: bots that skipped >= 1 robots.txt check."""
        return self._artifact("skipped_checks")

    @property
    def recheck_proportions(self):
        """Figure 10: category -> window -> proportion re-checking."""
        return self._artifact("recheck")

    @property
    def site_traffic(self) -> dict[str, SiteTraffic]:
        """Per-site traffic tallies (multi-site batch substrate)."""
        return self._artifact("site_traffic")

    # -- per-phase counts (Tables 4 and 9) ------------------------------------

    def _phase_tally(self, version: RobotsVersion) -> PhaseTally:
        return phase_entry(self._artifact("phase_tables"), self.scenario, version)

    def phase_spoof_counts(self, version: RobotsVersion) -> tuple[int, int]:
        """(legitimate, spoofed) request counts during one deployment."""
        tally = self._phase_tally(version)
        return tally.legitimate, tally.spoofed

    def phase_summary(self, version: RobotsVersion) -> tuple[int, int]:
        """(unique site visits, unique bot visitors) for Table 4."""
        tally = self._phase_tally(version)
        return tally.visits, tally.bots


def analyze(dataset: StudyDataset) -> StudyAnalysis:
    """Convenience constructor mirroring :func:`repro.simulation.run_study`."""
    return StudyAnalysis(dataset)
