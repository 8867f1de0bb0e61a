"""Columnar == row parity where the pipeline works column-wise.

The pipeline packs rows into column batches where it partitions shards
and where it hashes rows.  The partitioner must assign every row
exactly where a per-row crc32 would; the source keys are pinned to
golden digests; and a JSONL corpus and its CSV/Parquet conversion
must analyze to the same artifacts.  Sharded == sequential artifact
parity lives in ``tests/test_pipeline_parity.py``.

Also home to the strict order-restoring merge's regression tests: a
merge that silently drops or duplicates records must raise
:class:`~repro.exceptions.PipelineError`, never best-effort its way to
a smaller study.
"""

import pickle
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bots.profiles import build_profiles
from repro.exceptions import PipelineError
from repro.logs.columnar import iter_batches
from repro.logs.io import convert_log, write_jsonl
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


# -- the same artifacts from every format ---------------------------------


@pytest.mark.parametrize(
    "fmt",
    [
        "csv",
        pytest.param(
            "parquet",
            marks=pytest.mark.skipif(
                not HAVE_PYARROW, reason="pyarrow not installed"
            ),
        ),
    ],
)
def test_converted_corpus_analyzes_like_jsonl(tmp_path, fmt):
    records = [
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
        for i in range(40)
    ]
    jsonl = tmp_path / "log.jsonl"
    converted = tmp_path / f"log.{fmt}"
    write_jsonl(records, jsonl)
    convert_log(jsonl, converted, "jsonl", fmt)
    original = build_study_pipeline(
        source=RecordSource.from_file(jsonl), scenario=SCENARIO
    )
    other = build_study_pipeline(
        source=RecordSource.from_file(converted, fmt), scenario=SCENARIO
    )
    for name in COMPARED_ARTIFACTS:
        assert _artifact_bytes(other, name) == _artifact_bytes(
            original, name
        ), name


# -- golden source keys ------------------------------------------------------
#
# The digests every cache key starts from, pinned to literals: a JSONL
# file keys on its bytes, an in-memory list on one hash of its rows'
# raw columns.  Moving either on purpose means bumping CACHE_SCHEMA and
# these constants together.

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

GOLDEN_KEYS = {
    "list": "d51d81151f4d5cc5e872c801c99abd2e15f38bea9bd3c85a61e1ce83f31b9d83",
    "jsonl": "cb63b2c0b0c792d62bb01af7648587e1e815aa8377363de658c5db03be1a348d",
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_KEYS))
def test_golden_source_fingerprint(tmp_path, fmt):
    records = [pickle.loads(pickle.dumps(r)) for r in GOLDEN_RECORDS]
    if fmt == "list":
        source = RecordSource.of(records)
    else:
        path = tmp_path / "golden.jsonl"
        write_jsonl(records, path)
        source = RecordSource.from_file(path)
    assert source.fingerprint() == GOLDEN_KEYS[fmt]
    assert len(source.rows()) == len(GOLDEN_RECORDS)


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
