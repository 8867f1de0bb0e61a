"""Unit tests for the Stage/Pipeline contract and the shard layer."""

import threading
import zlib

import pytest

from repro.exceptions import PipelineError
from repro.logs.columnar import iter_batches
from repro.logs.schema import LogRecord
from repro.pipeline import (
    FunctionStage,
    Pipeline,
    PipelineConfig,
    RecordSource,
    Shard,
    partition_batches,
    run_sharded,
    shard_index,
)
from repro.pipeline.context import PipelineContext


def make_record(site="a.example", ip="ip-1", when=0.0, path="/"):
    return LogRecord(
        useragent="UA",
        timestamp=when,
        ip_hash=ip,
        asn=15169,
        sitename=site,
        uri_path=path,
        status_code=200,
        bytes_sent=100,
    )


def partition(records, shards):
    """Partition a record list, in odd-sized batches."""
    return partition_batches(iter_batches(records, 7), shards)


def counting_stage(name, calls, deps=(), value=None):
    def fn(context):
        calls.append(name)
        return value if value is not None else name

    return FunctionStage(name=name, fn=fn, deps=deps)


def _total(items):
    """Module-level (picklable) shard worker for the process executor."""
    return sum(items)


class TestPipelineGraph:
    def test_duplicate_names_rejected(self):
        with pytest.raises(PipelineError, match="duplicate"):
            Pipeline([counting_stage("a", []), counting_stage("a", [])])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(PipelineError, match="unknown stage"):
            Pipeline([FunctionStage("a", lambda c: 1, deps=("missing",))])

    def test_cycle_rejected(self):
        stages = [
            FunctionStage("a", lambda c: 1, deps=("b",)),
            FunctionStage("b", lambda c: 1, deps=("a",)),
        ]
        with pytest.raises(PipelineError, match="cycle"):
            Pipeline(stages)

    def test_topological_order_is_deterministic(self):
        stages = [
            FunctionStage("c", lambda c: 1, deps=("a", "b")),
            FunctionStage("a", lambda c: 1),
            FunctionStage("b", lambda c: 1, deps=("a",)),
        ]
        assert Pipeline(stages).stages() == ("a", "b", "c")


class TestPipelineExecution:
    def test_get_resolves_dependencies(self):
        calls = []
        pipeline = Pipeline(
            [
                counting_stage("a", calls),
                counting_stage("b", calls, deps=("a",)),
            ]
        )
        assert pipeline.get("b") == "b"
        assert calls == ["a", "b"]

    def test_artifacts_memoized_and_identical(self):
        calls = []
        pipeline = Pipeline([counting_stage("a", calls, value=["x"])])
        first = pipeline.get("a")
        second = pipeline.get("a")
        assert first is second
        assert calls == ["a"]

    def test_run_targets_skips_unneeded_stages(self):
        calls = []
        pipeline = Pipeline(
            [
                counting_stage("a", calls),
                counting_stage("b", calls, deps=("a",)),
                counting_stage("unrelated", calls),
            ]
        )
        results = pipeline.run(["b"])
        assert set(results) == {"b"}
        assert "unrelated" not in calls

    def test_seed_prevents_stage_execution(self):
        calls = []
        pipeline = Pipeline(
            [
                counting_stage("a", calls),
                counting_stage("b", calls, deps=("a",)),
            ]
        )
        pipeline.seed("a", "injected")
        pipeline.run()
        assert calls == ["b"]
        assert pipeline.context.artifact("a") == "injected"

    def test_run_at_jobs_4_executes_each_stage_once(self):
        calls = []
        stages = [counting_stage(f"s{i}", calls) for i in range(6)]
        stages.append(
            counting_stage("sink", calls, deps=tuple(f"s{i}" for i in range(6)))
        )
        pipeline = Pipeline(
            stages,
            context=PipelineContext(config=PipelineConfig(jobs=4)),
        )
        pipeline.run()
        assert sorted(calls) == sorted([f"s{i}" for i in range(6)] + ["sink"])
        assert calls[-1] == "sink"

    def test_run_twice_is_idempotent(self):
        calls = []
        pipeline = Pipeline(
            [counting_stage("a", calls)],
            context=PipelineContext(config=PipelineConfig(jobs=2)),
        )
        pipeline.run()
        pipeline.run()
        assert calls == ["a"]

    def test_stage_error_propagates_and_retries(self):
        attempts = []

        def flaky(context):
            attempts.append(1)
            if len(attempts) == 1:
                raise ValueError("boom")
            return "ok"

        pipeline = Pipeline([FunctionStage("a", flaky)])
        with pytest.raises(ValueError):
            pipeline.get("a")
        assert pipeline.get("a") == "ok"

    def test_unknown_artifact_raises(self):
        pipeline = Pipeline([counting_stage("a", [])])
        with pytest.raises(PipelineError):
            pipeline.get("nope")


class _WatchedFutures(dict):
    """``Pipeline._futures`` stand-in that signals when a caller finds
    an in-flight future, i.e. has joined it as a waiter."""

    def __init__(self):
        super().__init__()
        self.joined = threading.Event()

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None:
            self.joined.set()
        return value


class TestPipelineSingleFlight:
    """Two threads calling ``get`` on one ``Pipeline`` share one run."""

    def _held_pipeline(self, fn):
        pipeline = Pipeline([FunctionStage("held", fn)])
        pipeline._futures = _WatchedFutures()
        return pipeline

    def _race(self, pipeline, started, release):
        """Call ``get`` from two threads while the stage is held;
        return each thread's result or exception, in start order."""
        outcomes = [None, None]

        def call(slot):
            try:
                outcomes[slot] = pipeline.get("held")
            except Exception as exc:
                outcomes[slot] = exc

        owner = threading.Thread(target=call, args=(0,))
        waiter = threading.Thread(target=call, args=(1,))
        owner.start()
        assert started.wait(10)
        waiter.start()
        assert pipeline._futures.joined.wait(10)
        release.set()
        owner.join(10)
        waiter.join(10)
        assert not owner.is_alive() and not waiter.is_alive()
        return outcomes

    def test_concurrent_get_runs_the_stage_once(self):
        started, release = threading.Event(), threading.Event()
        calls = []

        def held(context):
            calls.append(1)
            started.set()
            assert release.wait(10)
            return object()

        pipeline = self._held_pipeline(held)
        first, second = self._race(pipeline, started, release)
        assert len(calls) == 1
        assert first is second
        assert pipeline.get("held") is first

    def test_failed_stage_raises_to_both_callers_then_retries(self):
        started, release = threading.Event(), threading.Event()
        calls = []

        def held(context):
            calls.append(1)
            if len(calls) == 1:
                started.set()
                assert release.wait(10)
                raise ValueError("boom")
            return "ok"

        pipeline = self._held_pipeline(held)
        first, second = self._race(pipeline, started, release)
        assert isinstance(first, ValueError)
        assert second is first
        assert len(calls) == 1
        assert pipeline.get("held") == "ok"
        assert len(calls) == 2


class TestRecordSource:
    def test_list_source_is_zero_copy(self):
        from repro.pipeline import build_study_pipeline
        from repro.simulation import quick_scenario

        records = [make_record(ip=f"ip-{i}", when=float(i)) for i in range(5)]
        source = RecordSource.of(records)
        assert all(
            streamed is record
            for streamed, record in zip(source.stream(), records, strict=True)
        )
        pipeline = build_study_pipeline(
            source=source, scenario=quick_scenario(scale=0.1, seed=3)
        )
        kept, report = pipeline.get("preprocess")
        assert report.input_records == len(records)
        # Preprocessing enriches the caller's own objects in place.
        assert all(
            mine is theirs for mine, theirs in zip(kept, records, strict=True)
        )

    def test_factory_source_streams_repeatedly(self):
        streams = []

        def factory():
            streams.append(1)
            return iter([make_record(), make_record()])

        source = RecordSource.of(factory)
        assert len(list(source.stream())) == 2
        assert len(list(source.stream())) == 2
        assert len(streams) == 2

    def test_one_shot_iterable_spills_once(self):
        source = RecordSource.of(iter([make_record()]))
        assert len(list(source.stream())) == 1
        assert len(list(source.stream())) == 1  # replay via spill


class TestSharding:
    def test_partition_is_disjoint_and_complete(self):
        records = [
            make_record(site=f"s{i % 5}.example", when=float(i))
            for i in range(50)
        ]
        shards = partition(records, 3)
        assert sum(len(shard) for shard in shards) == 50
        seen = sorted(
            position for shard in shards for position in shard.positions
        )
        assert seen == list(range(50))

    def test_same_site_lands_in_same_shard(self):
        records = [make_record(site="x.example") for _ in range(10)]
        shards = partition(records, 4)
        nonempty = [shard for shard in shards if shard.records]
        assert len(nonempty) == 1

    def test_shard_assignment_is_crc32(self):
        assert shard_index("x.example", 7) == zlib.crc32(b"x.example") % 7

    def test_order_preserved_within_shard(self):
        records = [make_record(site="x.example", when=float(i)) for i in range(9)]
        (shard,) = [
            shard
            for shard in partition(records, 2)
            if shard.records
        ]
        assert [record.timestamp for record in shard.records] == [
            float(i) for i in range(9)
        ]

    def test_payload_shard_needs_a_fingerprint(self):
        with pytest.raises(PipelineError, match="explicit fingerprint"):
            Shard(index=0, records=[make_record()])
        assert Shard(index=0, records=["cell"], fingerprint="f").records == ["cell"]

    @pytest.mark.parametrize("executor", ["thread", "bogus"])
    def test_config_rejects_unknown_executor(self, executor):
        with pytest.raises(PipelineError, match="executor must be one of"):
            PipelineConfig(executor=executor)

    def test_run_sharded_backends_agree(self):
        payloads = [[1, 2], [3], [4, 5, 6]]
        sequential = run_sharded(_total, payloads, jobs=1)
        inline = run_sharded(_total, payloads, jobs=3, executor="inline")
        process = run_sharded(_total, payloads, jobs=3, executor="process")
        assert sequential == inline == process == [3, 3, 15]

    @pytest.mark.parametrize("executor", ["thread", "queue", "bogus"])
    @pytest.mark.parametrize(
        "jobs, payloads", [(1, [[1], [2]]), (4, [[1]]), (2, [[1], [2]])]
    )
    def test_run_sharded_checks_executor_before_running(
        self, executor, jobs, payloads
    ):
        ran = []

        def worker(items):
            ran.append(items)
            return items

        with pytest.raises(PipelineError, match="'process' or 'inline'"):
            run_sharded(worker, payloads, jobs=jobs, executor=executor)
        assert ran == []


class TestPartialScenario:
    """Scenarios lacking some phases must keep the phases they have."""

    def _partial_scenario(self):
        from repro.robots.corpus import RobotsVersion
        from repro.simulation import quick_scenario
        from repro.simulation.scenario import StudyScenario

        full = quick_scenario()
        return StudyScenario(
            phases=tuple(
                phase
                for phase in full.phases
                if phase.version
                in (RobotsVersion.BASE, RobotsVersion.V1_CRAWL_DELAY)
            ),
            overview_start=full.overview_start,
            overview_end=full.overview_end,
            scale=full.scale,
            seed=full.seed,
        )

    def test_defined_phases_still_slice(self):
        from repro.pipeline import PipelineConfig, build_study_pipeline
        from repro.robots.corpus import RobotsVersion

        scenario = self._partial_scenario()
        base_phase = scenario.phase_for_version(RobotsVersion.BASE)
        records = [
            make_record(
                site=scenario.experiment_site, when=base_phase.start + 10.0
            )
        ]
        pipeline = build_study_pipeline(
            records, scenario, PipelineConfig(jobs=1)
        )
        slices = pipeline.get("phase_slices")
        assert len(slices[RobotsVersion.BASE]) == 1
        assert RobotsVersion.V3_DISALLOW_ALL not in slices

    def test_missing_phase_raises_scenario_error(self):
        from repro.exceptions import ScenarioError
        from repro.reporting.study import StudyAnalysis
        from repro.robots.corpus import RobotsVersion
        from repro.simulation.engine import StudyDataset

        scenario = self._partial_scenario()
        analysis = StudyAnalysis(
            StudyDataset(records=[], scenario=scenario)
        )
        assert analysis.baseline_records == []
        with pytest.raises(ScenarioError):
            analysis.phase_records(RobotsVersion.V3_DISALLOW_ALL)
        with pytest.raises(ScenarioError):
            analysis.directive_records
        assert analysis.phase_summary(RobotsVersion.BASE) == (0, 0)
        for lookup in (analysis.phase_summary, analysis.phase_spoof_counts):
            with pytest.raises(ScenarioError):
                lookup(RobotsVersion.V3_DISALLOW_ALL)


class TestDatasetSource:
    def test_dataset_source_is_zero_copy(self, quick_dataset):
        streamed = quick_dataset.source().stream()
        assert all(
            mine is theirs
            for mine, theirs in zip(streamed, quick_dataset.records, strict=True)
        )
