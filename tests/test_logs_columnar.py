"""Unit tests for the columnar record backend.

Covers the struct-of-arrays :class:`RecordBatch` core, the batch
streaming helper (``iter_batches``), the dictionary-encoded pickle form
of :class:`RecordList` (the cached ``preprocess`` records), IO round-trips
through the format dispatchers (``write_log`` / ``iter_log_records``)
for every storage format, and the schema's ``"" -> None``
normalization asymmetry that every read path must apply identically
(it is what makes every format read back as the same rows).

Parquet tests run only when pyarrow is installed (the ``[parquet]``
extra / the CI pyarrow leg); the missing-dependency error path runs
only when it is not, so the suite is green in both worlds.
"""

import json
import pickle
from dataclasses import fields
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import LogSchemaError, MissingDependencyError
from repro.logs.columnar import RecordBatch, RecordList, iter_batches
from repro.logs.io import (
    convert_log,
    iter_log_records,
    read_jsonl,
    write_jsonl,
    write_log,
)
from repro.logs.parquet import HAVE_PYARROW, read_parquet, write_parquet
from repro.logs.schema import COLUMN_SPECS, CSV_COLUMNS, LogRecord
from repro.uaparse.categories import BotCategory

needs_pyarrow = pytest.mark.skipif(
    not HAVE_PYARROW, reason="pyarrow not installed ([parquet] extra)"
)
needs_no_pyarrow = pytest.mark.skipif(
    HAVE_PYARROW, reason="pyarrow installed; error path unreachable"
)


def sample_records(count: int = 7) -> list[LogRecord]:
    records = []
    for index in range(count):
        enriched = index % 2 == 0
        records.append(
            LogRecord(
                useragent=f"Agent-{index % 3}/1.0",
                timestamp=1_739_500_000.0 + index * 1.5,
                ip_hash=f"ip-{index % 4:04x}",
                asn=8075 + index % 2,
                sitename=f"site-{index % 2}.university.edu",
                uri_path="/robots.txt" if index % 3 == 0 else f"/page/{index}",
                status_code=200,
                bytes_sent=100 + index,
                referer="https://example.com/" if index % 2 else None,
                bot_name="GPTBot" if enriched else None,
                bot_category=BotCategory.AI_DATA_SCRAPER if enriched else None,
                asn_name="MSFT" if enriched else None,
            )
        )
    return records


class TestRecordBatchCore:
    def test_round_trip_preserves_every_field(self):
        records = sample_records()
        batch = RecordBatch.from_records(records)
        assert len(batch) == len(records)
        assert batch.to_records() == records

    def test_bot_category_column_holds_labels_not_enums(self):
        batch = RecordBatch.from_records(sample_records(2))
        labels = list(batch.column("bot_category"))
        assert labels == [BotCategory.AI_DATA_SCRAPER.value, None]
        # ... and the row view re-materializes the enum.
        first, second = batch.to_records()
        assert first.bot_category is BotCategory.AI_DATA_SCRAPER
        assert second.bot_category is None

    def test_from_columns_missing_column_raises(self):
        columns = {name: [] for name in CSV_COLUMNS if name != "asn"}
        with pytest.raises(LogSchemaError, match="missing column 'asn'"):
            RecordBatch.from_columns(columns)

    def test_from_columns_ragged_lengths_raise(self):
        batch = RecordBatch.from_records(sample_records(4))
        columns = {name: list(batch.column(name)) for name in CSV_COLUMNS}
        columns["uri_path"] = columns["uri_path"][:-1]
        with pytest.raises(LogSchemaError, match="ragged batch"):
            RecordBatch.from_columns(columns)

    def test_unknown_column_raises(self):
        with pytest.raises(LogSchemaError, match="unknown column"):
            RecordBatch().column("nope")

    def test_take(self):
        records = sample_records(6)
        batch = RecordBatch.from_records(records)
        assert batch.take([5, 0, 3]).to_records() == [
            records[5],
            records[0],
            records[3],
        ]

    def test_extend_concatenates(self):
        records = sample_records(5)
        left = RecordBatch.from_records(records[:2])
        left.extend(RecordBatch.from_records(records[2:]))
        assert left.to_records() == records

    def test_equality_is_columnwise(self):
        records = sample_records(3)
        assert RecordBatch.from_records(records) == RecordBatch.from_records(
            records
        )
        assert RecordBatch.from_records(records) != RecordBatch.from_records(
            records[:2]
        )

    def test_empty_batch_is_falsy(self):
        assert not RecordBatch()
        assert RecordBatch.from_records(sample_records(1))


class TestBatchStreaming:
    def test_iter_batches_sizes(self):
        records = sample_records(7)
        batches = list(iter_batches(iter(records), 3))
        assert [len(b) for b in batches] == [3, 3, 1]
        assert list(chain.from_iterable(batches)) == records

    def test_iter_batches_rejects_bad_size(self):
        with pytest.raises(LogSchemaError):
            list(iter_batches([], 0))


# Value pools: repeats exercise the dictionary encoding, free text the
# non-ASCII and all-distinct cases.
_POOL = ["GPTBot/1.0", "/robots.txt", "ü-ö", "机器人", ""]
_TEXT = st.sampled_from(_POOL) | st.text(max_size=8)
_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

record_strategy = st.builds(
    LogRecord,
    useragent=_TEXT,
    timestamp=st.floats(min_value=-1e10, max_value=1e11),
    ip_hash=_TEXT,
    asn=_INT64,
    sitename=_TEXT,
    uri_path=_TEXT,
    status_code=_INT64,
    bytes_sent=_INT64,
    referer=st.none() | _TEXT,
    bot_name=st.none() | _TEXT,
    bot_category=st.none() | st.sampled_from(list(BotCategory)),
    asn_name=st.none() | _TEXT,
)


def assert_round_trips(records: list[LogRecord]) -> None:
    packed = RecordList(records)
    for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
        back = pickle.loads(pickle.dumps(packed, protocol=protocol))
        assert type(back) is RecordList
        assert back == records
        assert [row.to_dict() for row in back] == [
            row.to_dict() for row in records
        ]
        for row, original in zip(back, records):
            for field in fields(LogRecord):
                assert type(getattr(row, field.name)) is type(
                    getattr(original, field.name)
                )


class TestRecordListPickle:
    """A RecordList pickles as columns and unpickles to equal rows."""

    def test_field_order_matches_the_column_registry(self):
        # Unpickling builds rows positionally from COLUMN_SPECS order.
        assert [field.name for field in fields(LogRecord)] == [
            spec.attr for spec in COLUMN_SPECS
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(record_strategy, max_size=12))
    def test_round_trip(self, records):
        assert_round_trips(records)

    def test_empty(self):
        assert_round_trips([])

    def test_none_in_every_nullable_column(self):
        records = sample_records(3)
        for record in records:
            record.referer = record.bot_name = None
            record.bot_category = record.asn_name = None
        assert_round_trips(records)

    def test_every_bot_category(self):
        records = sample_records(len(BotCategory) + 1)
        for record, category in zip(records, [*BotCategory, None]):
            record.bot_category = category
        assert_round_trips(records)

    def test_all_equal_columns(self):
        (record,) = sample_records(1)
        records = [pickle.loads(pickle.dumps(record)) for _ in range(5)]
        assert_round_trips(records)

    def test_all_distinct_columns(self):
        records = [
            LogRecord(
                useragent=f"ua-{index}",
                timestamp=index + 0.25,
                ip_hash=f"ip-{index}",
                asn=index,
                sitename=f"site-{index}.example",
                uri_path=f"/päge/{index}",
                status_code=200 + index,
                bytes_sent=index,
                referer=f"https://ref-{index}.example/",
                bot_name=f"Bot{index}",
                bot_category=list(BotCategory)[index % len(BotCategory)],
                asn_name=f"AS-{index}",
            )
            for index in range(9)
        ]
        assert_round_trips(records)


class TestBatchIO:
    """Row-stream IO through the format dispatchers, and the batch row
    view's fidelity under serialization."""

    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_text_round_trip(self, tmp_path, format):
        records = sample_records()
        path = tmp_path / f"log.{format}"
        written = write_log(iter(records), path, format)
        assert written == len(records)
        loaded = list(iter_log_records(path, format))
        assert loaded == records

    def test_batch_jsonl_matches_row_jsonl(self, tmp_path):
        """Rows rebuilt from batches serialize to identical bytes."""
        records = sample_records()
        row_path = tmp_path / "rows.jsonl"
        batch_path = tmp_path / "batches.jsonl"
        write_jsonl(records, row_path)
        rows = chain.from_iterable(iter_batches(iter(records), 2))
        write_log(rows, batch_path, "jsonl")
        assert batch_path.read_bytes() == row_path.read_bytes()

    def test_clf_round_trip_keeps_core_fields(self, tmp_path):
        records = sample_records(4)
        path = tmp_path / "access.log"
        assert write_log(iter(records), path, "clf") == 4
        loaded = list(iter_log_records(path, "clf", sitename="ignored"))
        assert [r.uri_path for r in loaded] == [r.uri_path for r in records]
        assert [r.bytes_sent for r in loaded] == [r.bytes_sent for r in records]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(LogSchemaError, match="unknown log format"):
            write_log([], tmp_path / "x", format="orc")
        with pytest.raises(LogSchemaError, match="unknown log format"):
            list(iter_log_records(tmp_path / "x", format="orc"))
        assert not (tmp_path / "x").exists()

    def test_convert_jsonl_to_csv_and_back(self, tmp_path):
        records = sample_records()
        jsonl = tmp_path / "log.jsonl"
        csv_path = tmp_path / "log.csv"
        back = tmp_path / "back.jsonl"
        write_jsonl(records, jsonl)
        assert convert_log(jsonl, csv_path, "jsonl", "csv") == len(records)
        assert convert_log(csv_path, back, "csv", "jsonl") == len(records)
        assert list(read_jsonl(back)) == records

    def test_converted_corpus_fingerprints_identically(self, tmp_path):
        records = sample_records()
        jsonl = tmp_path / "log.jsonl"
        csv_path = tmp_path / "log.csv"
        write_jsonl(records, jsonl)
        convert_log(jsonl, csv_path, "jsonl", "csv")
        assert list(iter_log_records(csv_path, "csv")) == records


class TestEmptyStringNormalization:
    """The schema's ``"" -> None`` asymmetry (from_dict normalizes).

    A record *written* with an empty-string referer reads back as
    ``None`` on every path — every row reader, the batches packed from
    its rows, and (when available) Parquet — so the normalized form is
    the canonical one and all formats read back as the same rows.
    """

    def test_from_dict_normalizes_empty_nullable_strings(self):
        row = sample_records(1)[0].to_dict()
        row.update(referer="", bot_name="", asn_name="", bot_category=None)
        loaded = LogRecord.from_dict(row)
        assert loaded.referer is None
        assert loaded.bot_name is None
        assert loaded.asn_name is None

    def test_jsonl_round_trip_canonicalizes(self, tmp_path):
        record = sample_records(1)[0]
        row = record.to_dict()
        row["referer"] = ""
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(row) + "\n")
        (loaded,) = read_jsonl(path)
        assert loaded.referer is None
        (batch,) = iter_batches(read_jsonl(path))
        assert list(batch.column("referer")) == [None]

    def test_csv_none_and_empty_collapse_together(self, tmp_path):
        records = sample_records(2)
        assert records[0].referer is None
        path = tmp_path / "log.csv"
        write_log(records, path, "csv")
        (batch,) = iter_batches(iter_log_records(path, "csv"))
        assert list(batch.column("referer")) == [
            None,
            "https://example.com/",
        ]
        assert list(batch.column("bot_name")) == ["GPTBot", None]


@needs_pyarrow
class TestParquet:
    """Parquet through the dispatchers and through its own row codec."""

    def test_round_trip(self, tmp_path):
        records = sample_records()
        path = tmp_path / "log.parquet"
        written = write_log(iter(records), path, "parquet")
        assert written == len(records)
        assert list(read_parquet(path, batch_records=2)) == records

    def test_row_group_per_batch_preserves_streaming(self, tmp_path):
        import pyarrow.parquet as pq

        records = sample_records(7)
        path = tmp_path / "log.parquet"
        write_parquet(iter(records), path, batch_records=3)
        assert pq.ParquetFile(str(path)).num_row_groups == 3

    def test_empty_string_referer_normalized_on_read(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        records = sample_records(1)
        path = tmp_path / "log.parquet"
        write_parquet(records, path)
        # Rewrite the file with an empty-string referer to simulate a
        # foreign producer that did not normalize.
        table = pq.read_table(str(path))
        index = table.schema.get_field_index("referer")
        table = table.set_column(
            index, table.schema.field(index), pa.array([""], type=pa.string())
        )
        pq.write_table(table, str(path))
        (loaded,) = read_parquet(path)
        assert loaded.referer is None

    def test_convert_jsonl_to_parquet_round_trip(self, tmp_path):
        records = sample_records()
        jsonl = tmp_path / "log.jsonl"
        parquet = tmp_path / "log.parquet"
        back = tmp_path / "back.jsonl"
        write_jsonl(records, jsonl)
        assert convert_log(jsonl, parquet, "jsonl", "parquet") == len(records)
        assert convert_log(parquet, back, "parquet", "jsonl") == len(records)
        assert back.read_bytes() == jsonl.read_bytes()

    def test_parquet_fingerprints_match_jsonl(self, tmp_path):
        records = sample_records()
        jsonl = tmp_path / "log.jsonl"
        parquet = tmp_path / "log.parquet"
        write_jsonl(records, jsonl)
        convert_log(jsonl, parquet, "jsonl", "parquet")
        assert list(read_parquet(parquet, batch_records=2)) == list(
            read_jsonl(jsonl)
        )


@needs_no_pyarrow
class TestParquetUnavailable:
    def test_write_raises_pointed_error(self, tmp_path):
        with pytest.raises(MissingDependencyError, match=r"\[parquet\]"):
            write_log([], tmp_path / "x.parquet", "parquet")

    def test_read_raises_pointed_error(self, tmp_path):
        with pytest.raises(MissingDependencyError, match="pyarrow"):
            list(iter_log_records(tmp_path / "x.parquet", "parquet"))

    def test_convert_raises_pointed_error(self, tmp_path):
        source = tmp_path / "log.jsonl"
        write_jsonl(sample_records(1), source)
        with pytest.raises(MissingDependencyError):
            convert_log(source, tmp_path / "x.parquet")
