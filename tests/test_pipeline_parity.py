"""Shard/merge parity: sharded pipelines must equal sequential ones.

The pipeline's headline guarantee is that ``jobs=N`` and ``jobs=1``
produce *identical* artifacts — same Table-5 cells, same per-bot
results, same preprocess report counts — for any input.  A property
test exercises the partition/merge machinery over randomized datasets
(inline executor: the same partition/merge path at ``jobs > 1``, cheap
enough for many hypothesis examples), and an
integration test runs real worker processes over the shared quick
dataset comparing rendered tables byte for byte.
"""

import itertools
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bots.profiles import build_profiles
from repro.logs.columnar import RecordBatch, RecordList
from repro.logs.io import iter_log_records, write_log
from repro.logs.preprocess import preprocess_shard
from repro.logs.schema import LogRecord
from repro.pipeline import ArtifactStore, PipelineConfig, build_study_pipeline
from repro.pipeline.shard import Shard, partition_batches
from repro.reporting.experiments import run_experiment
from repro.reporting.study import StudyAnalysis
from repro.simulation import quick_scenario

SCENARIO = quick_scenario(scale=0.1, seed=11)

#: Sites covering the experiment site, passive sites, and one more.
SITES = tuple(
    dict.fromkeys(
        [SCENARIO.experiment_site]
        + list(SCENARIO.passive_sites)[:3]
        + ["cs.university41.edu"]
    )
)

#: Real bot user agents (registry-identifiable) plus anonymous ones.
_PROFILES = build_profiles()
USER_AGENTS = tuple(
    [profile.user_agent for profile in _PROFILES[:8]]
    + ["Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101 Firefox/115.0"]
)

PATHS = (
    "/",
    "/robots.txt",
    "/page-data/chunk-1",
    "/people/faculty",
    "/wp-admin/setup.php",  # scanner-looking
    "/.env",  # scanner-looking
)

_START = min(phase.start for phase in SCENARIO.phases)
_END = SCENARIO.overview_end


def _record(draw_tuple) -> LogRecord:
    site, ua, ip, asn, path, tick = draw_tuple
    span = _END - _START
    return LogRecord(
        useragent=ua,
        timestamp=_START + (tick % 10_000) / 10_000 * span,
        ip_hash=ip,
        asn=asn,
        sitename=site,
        uri_path=path,
        status_code=200,
        bytes_sent=512,
    )


record_strategy = st.tuples(
    st.sampled_from(SITES),
    st.sampled_from(USER_AGENTS),
    st.sampled_from([f"ip-{i}" for i in range(6)]),
    st.sampled_from([15169, 8075, 4837, 132203]),
    st.sampled_from(PATHS),
    st.integers(min_value=0, max_value=9_999),
).map(_record)


@settings(max_examples=25, deadline=None)
@given(st.lists(record_strategy, min_size=0, max_size=150))
def test_sharded_equals_sequential_on_random_datasets(records):
    sequential = build_study_pipeline(
        source=list(records),
        scenario=SCENARIO,
        config=PipelineConfig(jobs=1),
    )
    sharded = build_study_pipeline(
        source=list(records),
        scenario=SCENARIO,
        config=PipelineConfig(jobs=3, executor="inline"),
    )
    seq_records, seq_report = sequential.get("preprocess")
    shard_records, shard_report = sharded.get("preprocess")
    assert shard_report == seq_report
    assert [r.to_dict() for r in shard_records] == [
        r.to_dict() for r in seq_records
    ]
    assert sharded.get("per_bot") == sequential.get("per_bot")
    assert (
        sharded.get("category_table").cells
        == sequential.get("category_table").cells
    )
    assert sharded.get("skipped_checks") == sequential.get("skipped_checks")
    assert sharded.get("recheck") == sequential.get("recheck")
    assert sharded.get("site_traffic") == sequential.get("site_traffic")


@settings(max_examples=10, deadline=None)
@given(
    st.lists(record_strategy, min_size=0, max_size=120),
    st.integers(min_value=2, max_value=6),
)
def test_parity_holds_for_any_shard_count_and_key(records, jobs):
    sequential = build_study_pipeline(
        source=list(records), scenario=SCENARIO, config=PipelineConfig(jobs=1)
    )
    sharded = build_study_pipeline(
        source=list(records),
        scenario=SCENARIO,
        config=PipelineConfig(jobs=jobs, executor="inline"),
    )
    assert sharded.get("preprocess")[1] == sequential.get("preprocess")[1]
    assert sharded.get("per_bot") == sequential.get("per_bot")
    assert (
        sharded.get("category_table").cells
        == sequential.get("category_table").cells
    )


class TestProcessExecutorParity:
    """Real worker processes over the shared quick dataset."""

    def test_rendered_tables_byte_identical(self, quick_dataset, quick_analysis):
        sharded = StudyAnalysis(quick_dataset, jobs=2, executor="process")
        assert sharded.preprocess_report == quick_analysis.preprocess_report
        assert len(sharded.records) == len(quick_analysis.records)
        for experiment_id in ("T2", "T4", "T5", "T6", "T7", "T9"):
            assert (
                run_experiment(experiment_id, sharded).rendered
                == run_experiment(experiment_id, quick_analysis).rendered
            ), experiment_id


class TestColumnarShardTransport:
    """Shard payloads and preprocess results are :class:`RecordList`s,
    so a ``process`` map pickles them as dictionary-encoded columns."""

    @staticmethod
    def _rows(count):
        combos = itertools.product(PATHS, USER_AGENTS, SITES)
        return [
            _record((site, ua, f"ip-{tick % 7}", 15169, path, tick))
            for tick, (path, ua, site) in zip(
                range(count), itertools.cycle(combos)
            )
        ]

    def test_preprocess_shard_returns_a_compact_record_list(
        self, quick_dataset, tmp_path
    ):
        # Rows read back from a log, as the CLI's analyze sees them:
        # every row holds its own string objects.
        path = tmp_path / "log.jsonl"
        write_log(quick_dataset.records[:3000], path)
        rows = list(iter_log_records(path))
        part = preprocess_shard(rows)
        assert isinstance(part.records, RecordList)
        assert part.records == rows
        columnar = len(pickle.dumps(part.records, pickle.HIGHEST_PROTOCOL))
        plain = len(pickle.dumps(list(part.records), pickle.HIGHEST_PROTOCOL))
        assert columnar * 2 <= plain

    def test_batch_backed_shard_builds_a_fresh_record_list(self):
        shards = partition_batches([RecordBatch.from_records(self._rows(60))], 2)
        assert all(len(shard) for shard in shards)
        for shard in shards:
            records = shard.records
            assert isinstance(records, RecordList)
            assert records == shard.batch.to_records()
            assert shard.records is not records

    def test_payload_shard_returns_its_own_list(self):
        payload = ["cell-a", "cell-b"]
        shard = Shard(index=0, records=payload, fingerprint="f")
        assert shard.records is payload

    def test_plain_list_shard_entry_still_merges(self, tmp_path):
        """A per-shard ``preprocess[i]`` entry whose records are a plain
        list (the earlier on-disk form) loads and merges unchanged."""
        rows = self._rows(200)

        def pipeline():
            return build_study_pipeline(
                source=[pickle.loads(pickle.dumps(row)) for row in rows],
                scenario=SCENARIO,
                config=PipelineConfig(jobs=2, executor="inline"),
                cache_dir=tmp_path,
            )

        expected_records, expected_report = pipeline().get("preprocess")
        store = ArtifactStore(tmp_path)
        for index in range(2):
            stage = f"preprocess[{index}]"
            key = store.last_key(stage)
            status, part = store.load(key)
            assert status == "hit" and isinstance(part.records, RecordList)
            part.records = list(part.records)
            store.store(key, part, stage=stage)
            assert type(store.load(key)[1].records) is list
        store._object_path(store.last_key("preprocess")).unlink()

        reader = pipeline()
        records, report = reader.get("preprocess")
        assert reader.context.stats.shard_hits["preprocess"] == [0, 1]
        assert reader.context.stats.shard_misses["preprocess"] == []
        assert report == expected_report
        assert [r.to_dict() for r in records] == [
            r.to_dict() for r in expected_records
        ]
