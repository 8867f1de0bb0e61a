"""Columnar == row parity where the pipeline works column-wise.

The pipeline packs rows into column batches in exactly two places: the
shard partitioner and the source fingerprint.  The partitioner must
assign every row exactly where a per-row crc32 would, and the
fingerprint must depend only on record content, never on the
serialization format (a JSONL corpus and its CSV/Parquet conversion
hit the same cache entries).  Sharded == sequential artifact parity
lives in ``tests/test_pipeline_parity.py``.

Also home to the strict order-restoring merge's regression tests: a
merge that silently drops or duplicates records must raise
:class:`~repro.exceptions.PipelineError`, never best-effort its way to
a smaller study.
"""

import pickle
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bots.profiles import build_profiles
from repro.exceptions import PipelineError
from repro.logs.columnar import iter_batches
from repro.logs.io import convert_log, iter_log_records, write_jsonl
from repro.logs.parquet import HAVE_PYARROW
from repro.logs.schema import LogRecord
from repro.pipeline import (
    RecordSource,
    build_study_pipeline,
    partition_batches,
    restore_order,
)

from repro.simulation import quick_scenario
from repro.uaparse.categories import BotCategory

SCENARIO = quick_scenario(scale=0.1, seed=11)

SITES = tuple(
    dict.fromkeys(
        [SCENARIO.experiment_site]
        + list(SCENARIO.passive_sites)[:3]
        + ["cs.university41.edu"]
    )
)

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

COMPARED_ARTIFACTS = (
    "preprocess",
    "per_bot",
    "per_bot_spoofed",
    "category_table",
    "skipped_checks",
    "recheck",
    "site_traffic",
)


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


def _copy(records):
    """Fresh record objects, so in-place enrichment cannot leak state
    between the pipelines under comparison."""
    return [pickle.loads(pickle.dumps(record)) for record in records]


def _artifact_bytes(pipeline, name):
    """Canonical serialized bytes of one artifact (same discipline as
    ``tests/test_pipeline_store.py``: value-based, sets sorted)."""
    value = pipeline.get(name)
    if name == "preprocess":
        records, report = value
        return repr(
            (
                [record.to_dict() for record in records],
                sorted(report.scanner_ips),
                report.input_records,
                report.scanner_records,
                report.identified_bots,
                report.unique_asns,
                report.whois_misses,
            )
        ).encode("utf-8")
    return repr(value).encode("utf-8")


# -- columnar partitioner == per-row crc32 ----------------------------------


@settings(max_examples=10, deadline=None)
@given(
    st.lists(record_strategy, min_size=0, max_size=100),
    st.integers(min_value=2, max_value=6),
)
def test_batch_partitioner_matches_row_partitioner(records, shards):
    # Row oracle: crc32 of each record's site, in stream order.
    expected = [[] for _ in range(shards)]
    for position, record in enumerate(records):
        key = record.sitename.encode("utf-8")
        expected[zlib.crc32(key) % shards].append(position)
    by_batches = partition_batches(iter_batches(iter(_copy(records)), 7), shards)
    assert [shard.positions for shard in by_batches] == expected
    for shard in by_batches:
        assert [r.to_dict() for r in shard.records] == [
            records[position].to_dict() for position in shard.positions
        ]


# -- format-independent fingerprints --------------------------------------


class TestFormatIndependentFingerprints:
    def _records(self, count=40):
        return [
            _record(
                (
                    SITES[i % len(SITES)],
                    USER_AGENTS[i % len(USER_AGENTS)],
                    f"ip-{i % 5}",
                    8075,
                    PATHS[i % len(PATHS)],
                    i * 13,
                )
            )
            for i in range(count)
        ]

    def test_jsonl_and_csv_sources_share_a_fingerprint(self, tmp_path):
        records = self._records()
        jsonl = tmp_path / "log.jsonl"
        csv_path = tmp_path / "log.csv"
        write_jsonl(records, jsonl)
        convert_log(jsonl, csv_path, "jsonl", "csv")
        from_jsonl = RecordSource.of(
            lambda: iter_log_records(jsonl, "jsonl")
        ).fingerprint()
        from_csv = RecordSource.of(
            lambda: iter_log_records(csv_path, "csv")
        ).fingerprint()
        assert from_csv == from_jsonl

    def test_csv_corpus_hits_jsonl_cache_artifacts(self, tmp_path):
        records = self._records()
        jsonl = tmp_path / "log.jsonl"
        csv_path = tmp_path / "log.csv"
        write_jsonl(records, jsonl)
        convert_log(jsonl, csv_path, "jsonl", "csv")
        with tempfile.TemporaryDirectory() as cache_dir:
            cold = build_study_pipeline(
                source=lambda: iter_log_records(jsonl, "jsonl"),
                scenario=SCENARIO,
                cache_dir=cache_dir,
            )
            cold.run()
            assert cold.context.stats.misses > 0

            warm = build_study_pipeline(
                source=lambda: iter_log_records(csv_path, "csv"),
                scenario=SCENARIO,
                cache_dir=cache_dir,
            )
            warm.run()
            assert warm.context.stats.misses == 0
            assert warm.context.stats.hits > 0
            for name in COMPARED_ARTIFACTS:
                assert _artifact_bytes(warm, name) == _artifact_bytes(
                    cold, name
                ), name

    @pytest.mark.skipif(not HAVE_PYARROW, reason="pyarrow not installed")
    def test_parquet_corpus_hits_jsonl_cache_artifacts(self, tmp_path):
        records = self._records()
        jsonl = tmp_path / "log.jsonl"
        parquet = tmp_path / "log.parquet"
        write_jsonl(records, jsonl)
        convert_log(jsonl, parquet, "jsonl", "parquet")
        assert RecordSource.of(
            lambda: iter_log_records(parquet, "parquet")
        ).fingerprint() == RecordSource.of(
            lambda: iter_log_records(jsonl, "jsonl")
        ).fingerprint()
        with tempfile.TemporaryDirectory() as cache_dir:
            cold = build_study_pipeline(
                source=lambda: iter_log_records(jsonl, "jsonl"),
                scenario=SCENARIO,
                cache_dir=cache_dir,
            )
            cold.run()
            warm = build_study_pipeline(
                source=lambda: iter_log_records(parquet, "parquet"),
                scenario=SCENARIO,
                cache_dir=cache_dir,
            )
            warm.run()
            assert warm.context.stats.misses == 0


# -- golden source fingerprint ---------------------------------------------
#
# The digest every cache key starts from, pinned to a literal: a change
# that moves it for every format at once (and so passes the
# format-independence tests above) still fails here.  Moving it on
# purpose means bumping CACHE_SCHEMA and this constant together.

GOLDEN_RECORDS = (
    LogRecord(
        "GPTBot/1.2", 1_739_500_000.0, "a1b2c3d4", 8075,
        "directory.university.edu", "/robots.txt", 200, 120,
    ),
    LogRecord(
        "GPTBot/1.2", 1_739_500_012.5, "a1b2c3d4", 8075,
        "directory.university.edu", "/people/person-001", 200, 12345,
        referer="https://example.com/",
    ),
    LogRecord(
        "Mozilla/5.0 (X11; Linux x86_64)", 1_739_503_600.25, "ffff0000",
        7922, "library.university.edu", "/catalog?q=robots", 404, 0,
    ),
    LogRecord(
        "ClaudeBot/1.0", 1_739_590_000.0, "0badc0de", 16509,
        "cs.university.edu", "/page-data/chunk-1", 200, 512,
        bot_name="ClaudeBot", bot_category=BotCategory.AI_DATA_SCRAPER,
        asn_name="AMAZON-02",
    ),
    LogRecord(
        "curl/8.4.0", 1_739_600_000.75, "deadbeef", 14061,
        "cs.university.edu", "/.env", 403, 17,
    ),
)

GOLDEN_DIGEST = "6f74903b9ece135071c7c92f615f1cfe301b2e6b31a25a57f4ba8b6c949645b4"


@pytest.mark.parametrize(
    "fmt",
    [
        "list",
        "jsonl",
        "csv",
        pytest.param(
            "parquet",
            marks=pytest.mark.skipif(
                not HAVE_PYARROW, reason="pyarrow not installed"
            ),
        ),
    ],
)
def test_golden_source_fingerprint(tmp_path, fmt):
    records = [pickle.loads(pickle.dumps(r)) for r in GOLDEN_RECORDS]
    if fmt == "list":
        source = RecordSource.of(records)
    else:
        jsonl = tmp_path / "golden.jsonl"
        write_jsonl(records, jsonl)
        path = tmp_path / f"golden.{fmt}"
        if fmt != "jsonl":
            convert_log(jsonl, path, "jsonl", fmt)
        source = RecordSource.of(lambda: iter_log_records(path, fmt))
    fingerprint = source.fingerprint()
    assert fingerprint.records == len(GOLDEN_RECORDS)
    assert fingerprint.digest == GOLDEN_DIGEST


# -- strict order restoration (regression: silent record drops) -----------


def _four_records():
    return [
        _record((SITES[i % 2], USER_AGENTS[0], f"ip-{i}", 8075, "/", i))
        for i in range(4)
    ]


class TestRestoreOrderStrictness:
    def test_happy_path_restores_stream_order(self):
        records = _four_records()
        outputs = [[records[1], records[3]], [records[0], records[2]]]
        positions = [[1, 3], [0, 2]]
        assert restore_order(outputs, positions, 4) == records

    def test_dropped_record_raises_instead_of_silently_shrinking(self):
        records = _four_records()
        # Shard 0 "lost" the record at stream position 3: the merge
        # used to return a 3-record study without complaint.
        outputs = [[records[1]], [records[0], records[2]]]
        positions = [[1], [0, 2]]
        with pytest.raises(PipelineError, match="covered 3 of 4"):
            restore_order(outputs, positions, 4)

    def test_duplicate_position_raises(self):
        records = _four_records()
        outputs = [[records[1], records[1]], [records[0], records[2]]]
        positions = [[1, 1], [0, 2]]
        with pytest.raises(PipelineError, match="duplicate stream position 1"):
            restore_order(outputs, positions, 4)

    def test_out_of_range_position_raises(self):
        records = _four_records()
        with pytest.raises(PipelineError, match="position 9 outside"):
            restore_order([[records[0]]], [[9]], 4)

    def test_output_position_length_mismatch_raises(self):
        records = _four_records()
        with pytest.raises(PipelineError, match="exactly one record per input"):
            restore_order([[records[0], records[1]]], [[0]], 4)
