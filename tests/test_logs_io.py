"""Unit tests for log IO: JSONL, CSV, and Apache CLF."""

import json

import pytest

from repro.exceptions import LogSchemaError
from repro.logs.io import (
    convert_log,
    parse_clf_line,
    read_clf,
    read_csv,
    read_jsonl,
    render_clf_line,
    write_csv,
    write_jsonl,
)
from repro.logs.schema import LogRecord
from repro.uaparse.categories import BotCategory


def sample_records() -> list[LogRecord]:
    return [
        LogRecord(
            useragent="GPTBot/1.2",
            timestamp=1_739_500_000.0,
            ip_hash="abcd1234abcd1234",
            asn=8075,
            sitename="directory.university.edu",
            uri_path="/people/person-001",
            status_code=200,
            bytes_sent=12345,
            referer=None,
            bot_name="GPTBot",
            bot_category=BotCategory.AI_DATA_SCRAPER,
            asn_name="MICROSOFT-CORP-MSN-AS-BLOCK",
        ),
        LogRecord(
            useragent="Mozilla/5.0",
            timestamp=1_739_500_100.5,
            ip_hash="ffff0000ffff0000",
            asn=7922,
            sitename="library.university.edu",
            uri_path="/robots.txt",
            status_code=200,
            bytes_sent=120,
            referer="https://example.com/",
        ),
    ]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        records = sample_records()
        assert write_jsonl(records, path) == 2
        loaded = list(read_jsonl(path))
        assert loaded == records

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_jsonl(sample_records(), path)
        path.write_text(path.read_text() + "\n\n")
        assert len(list(read_jsonl(path))) == 2

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"useragent": "x"\n')
        with pytest.raises(LogSchemaError, match="bad.jsonl:1"):
            list(read_jsonl(path))

    @pytest.mark.parametrize("line", ["[1,2]", "null", '"text"', "7"])
    def test_non_object_line_raises_with_location(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        write_jsonl(sample_records(), path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(LogSchemaError, match="bad.jsonl:3.*JSON object"):
            list(read_jsonl(path))

    @pytest.mark.parametrize(
        "field, value", [("asn", None), ("timestamp", 5), ("bytes", [])]
    )
    def test_mistyped_field_raises_with_location(self, tmp_path, field, value):
        row = sample_records()[0].to_dict()
        row[field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(LogSchemaError, match="bad.jsonl:1"):
            list(read_jsonl(path))


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.csv"
        records = sample_records()
        assert write_csv(records, path) == 2
        loaded = list(read_csv(path))
        assert loaded[0].useragent == records[0].useragent
        assert loaded[0].bot_category is BotCategory.AI_DATA_SCRAPER
        assert loaded[1].referer == "https://example.com/"

    def test_timestamps_survive(self, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(sample_records(), path)
        loaded = list(read_csv(path))
        assert loaded[1].timestamp == 1_739_500_100.5

    def test_short_row_raises_with_location(self, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(sample_records(), path)
        path.write_text(path.read_text() + "Agent/1.0\n")
        with pytest.raises(LogSchemaError, match="log.csv:4"):
            list(read_csv(path))


class TestClf:
    LINE = (
        '203.0.113.9 - - [12/Feb/2025:10:30:00 +0000] '
        '"GET /people/person-001 HTTP/1.1" 200 12345 '
        '"https://ref.example/" "GPTBot/1.2"'
    )

    def test_parse_line(self):
        record = parse_clf_line(self.LINE, sitename="x.edu", asn=8075)
        assert record.uri_path == "/people/person-001"
        assert record.status_code == 200
        assert record.bytes_sent == 12345
        assert record.useragent == "GPTBot/1.2"
        assert record.referer == "https://ref.example/"
        assert record.sitename == "x.edu"

    def test_dash_bytes(self):
        line = self.LINE.replace(" 200 12345 ", " 304 - ")
        record = parse_clf_line(line)
        assert record.bytes_sent == 0
        assert record.status_code == 304

    def test_ip_hashing_hook(self):
        record = parse_clf_line(self.LINE, hash_ip=lambda ip: "HASHED")
        assert record.ip_hash == "HASHED"

    def test_unparseable_raises(self):
        with pytest.raises(LogSchemaError):
            parse_clf_line("not a log line at all")

    def test_render_parse_round_trip(self):
        original = sample_records()[0]
        line = render_clf_line(original)
        parsed = parse_clf_line(line, sitename=original.sitename, asn=original.asn)
        assert parsed.uri_path == original.uri_path
        assert parsed.status_code == original.status_code
        assert parsed.bytes_sent == original.bytes_sent
        assert parsed.useragent == original.useragent
        assert abs(parsed.timestamp - original.timestamp) < 1.0

    def test_read_clf_skips_bad_lines(self, tmp_path):
        path = tmp_path / "access.log"
        path.write_text(self.LINE + "\ngarbage\n" + self.LINE + "\n")
        records = list(read_clf(path, sitename="x.edu"))
        assert len(records) == 2


class TestConvert:
    """``convert_log`` publishes its target only once the whole source
    has converted."""

    def test_same_path_converts_in_place(self, tmp_path):
        path = tmp_path / "log"
        records = sample_records()
        write_jsonl(records, path)
        assert convert_log(path, path, "jsonl", "csv") == len(records)
        assert list(read_csv(path)) == records
        assert [entry.name for entry in tmp_path.iterdir()] == ["log"]

    def test_missing_source_leaves_no_target(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(FileNotFoundError):
            convert_log(tmp_path / "missing.jsonl", target, "jsonl", "csv")
        assert list(tmp_path.iterdir()) == []

    def test_bad_record_keeps_existing_target(self, tmp_path):
        source = tmp_path / "log.jsonl"
        write_jsonl(sample_records(), source)
        source.write_text(source.read_text() + "not json\n")
        target = tmp_path / "out.csv"
        target.write_text("previous contents\n")
        with pytest.raises(LogSchemaError, match="log.jsonl:3"):
            convert_log(source, target, "jsonl", "csv")
        assert target.read_text() == "previous contents\n"
        assert sorted(entry.name for entry in tmp_path.iterdir()) == [
            "log.jsonl",
            "out.csv",
        ]


class TestSchema:
    def test_tau_tuple(self):
        record = sample_records()[0]
        assert record.tau == (8075, "abcd1234abcd1234", "GPTBot/1.2")

    def test_is_robots_fetch(self):
        records = sample_records()
        assert not records[0].is_robots_fetch
        assert records[1].is_robots_fetch

    def test_robots_fetch_with_query(self):
        record = sample_records()[1]
        object.__setattr__ if False else None
        record.uri_path = "/robots.txt?cache=1"
        assert record.is_robots_fetch

    def test_iso_timestamp_format(self):
        assert sample_records()[0].iso_timestamp.endswith("Z")
        assert "T" in sample_records()[0].iso_timestamp
