"""Log readers and writers: JSONL, CSV, CLF, and (optionally) Parquet.

JSONL is the pipeline's native interchange format; CSV mirrors the
paper's tabular exports; the Apache CLF reader lets the analysis
pipeline ingest real web-server logs, which is what a downstream user
adopting this library would point it at; Parquet (via the ``[parquet]``
extra) is the columnar at-rest format for multi-GB corpora.

All log IO moves row streams of :class:`~repro.logs.schema.LogRecord`.
Each format has a row reader (``read_*``) and a row writer
(``write_*``); :func:`iter_log_records` and :func:`write_log` dispatch
on a format name, and :func:`convert_log` chains the two.  Column
batches are not an IO unit: they exist only where the pipeline hashes
(source fingerprints) or gathers (shard partitioning) by column.
"""

from __future__ import annotations

import csv
import json
import os
import re
from collections.abc import Iterable, Iterator
from datetime import datetime, timezone
from pathlib import Path

from ..choices import LOG_FORMATS
from ..exceptions import LogSchemaError
from .schema import CSV_COLUMNS, LogRecord

#: What :meth:`LogRecord.from_dict` raises on a row with a missing,
#: null or mistyped field (``json.JSONDecodeError`` is a ValueError).
_BAD_ROW = (KeyError, ValueError, TypeError, AttributeError)

# -- JSONL -------------------------------------------------------------


def write_jsonl(records: Iterable[LogRecord], path: str | Path) -> int:
    """Write records as one JSON object per line; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> Iterator[LogRecord]:
    """Stream records from a JSONL file.

    Raises :class:`~repro.exceptions.LogSchemaError` with the offending
    line number when a row is malformed or is not a JSON object.
    """
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise LogSchemaError(
                        f"expected a JSON object, got {type(row).__name__}"
                    )
                yield LogRecord.from_dict(row)
            except (LogSchemaError, *_BAD_ROW) as exc:
                raise LogSchemaError(f"{path}:{number}: bad record: {exc}") from exc


# -- CSV ---------------------------------------------------------------


def write_csv(records: Iterable[LogRecord], path: str | Path) -> int:
    """Write records as CSV with the paper's column names."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for record in records:
            row = record.to_dict()
            writer.writerow({key: row.get(key) for key in CSV_COLUMNS})
            count += 1
    return count


def read_csv(path: str | Path) -> Iterator[LogRecord]:
    """Stream records from a CSV file produced by :func:`write_csv`."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for number, row in enumerate(reader, start=2):
            try:
                yield LogRecord.from_dict(row)
            except _BAD_ROW as exc:
                raise LogSchemaError(f"{path}:{number}: bad record: {exc}") from exc


# -- Apache combined log format ------------------------------------------

_CLF_PATTERN = re.compile(
    r'(?P<ip>\S+) \S+ \S+ \[(?P<time>[^\]]+)\] '
    r'"(?P<method>\S+) (?P<path>\S+)[^"]*" '
    r"(?P<status>\d{3}) (?P<bytes>\d+|-)"
    r'(?: "(?P<referer>[^"]*)" "(?P<agent>[^"]*)")?'
)

_CLF_TIME_FORMAT = "%d/%b/%Y:%H:%M:%S %z"


def parse_clf_line(
    line: str, sitename: str = "", asn: int = 0, hash_ip=None
) -> LogRecord:
    """Parse one Apache combined-log line into a :class:`LogRecord`.

    Args:
        line: the raw log line.
        sitename: site the log belongs to (CLF has no Host column).
        asn: ASN to stamp (real deployments join this from BGP data).
        hash_ip: optional callable applied to the raw IP for
            anonymization; the raw IP is used verbatim when omitted.

    Raises:
        LogSchemaError: when the line does not look like CLF.
    """
    match = _CLF_PATTERN.match(line)
    if match is None:
        raise LogSchemaError(f"not a combined-log line: {line[:80]!r}")
    timestamp = datetime.strptime(match.group("time"), _CLF_TIME_FORMAT)
    raw_bytes = match.group("bytes")
    ip = match.group("ip")
    referer = match.group("referer")
    return LogRecord(
        useragent=match.group("agent") or "",
        timestamp=timestamp.astimezone(timezone.utc).timestamp(),
        ip_hash=hash_ip(ip) if hash_ip else ip,
        asn=asn,
        sitename=sitename,
        uri_path=match.group("path"),
        status_code=int(match.group("status")),
        bytes_sent=0 if raw_bytes == "-" else int(raw_bytes),
        referer=None if referer in (None, "", "-") else referer,
    )


def read_clf(
    path: str | Path, sitename: str = "", asn: int = 0, hash_ip=None
) -> Iterator[LogRecord]:
    """Stream records from an Apache combined-format log file.

    Unparseable lines are skipped (real logs always contain a few),
    matching the forgiving posture of the robots.txt parser.
    """
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield parse_clf_line(line, sitename=sitename, asn=asn, hash_ip=hash_ip)
            except LogSchemaError:
                continue


def write_clf(records: Iterable[LogRecord], path: str | Path) -> int:
    """Write records as Apache combined-log lines; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(render_clf_line(record))
            handle.write("\n")
            count += 1
    return count


# -- format dispatch ------------------------------------------------------
#
# Readers and writers are looked up as module globals at call time, so
# anything that rebinds ``read_jsonl`` / ``write_jsonl`` on this module
# (a profiler, a test double) sees every dispatched call.


def _unknown_format(format: str) -> LogSchemaError:
    return LogSchemaError(
        f"unknown log format {format!r}; choose from {LOG_FORMATS}"
    )


def iter_log_records(
    path: str | Path,
    format: str = "jsonl",
    sitename: str = "",
    asn: int = 0,
    hash_ip=None,
) -> Iterator[LogRecord]:
    """Stream rows from any supported log format.

    ``sitename``, ``asn`` and ``hash_ip`` apply to CLF only (the other
    formats carry those columns themselves).
    """
    if format == "jsonl":
        return read_jsonl(path)
    if format == "csv":
        return read_csv(path)
    if format == "clf":
        return read_clf(path, sitename=sitename, asn=asn, hash_ip=hash_ip)
    if format == "parquet":
        from .parquet import read_parquet

        return read_parquet(path)
    raise _unknown_format(format)


def write_log(
    records: Iterable[LogRecord], path: str | Path, format: str = "jsonl"
) -> int:
    """Write a row stream in any supported format; returns the count."""
    if format == "jsonl":
        return write_jsonl(records, path)
    if format == "csv":
        return write_csv(records, path)
    if format == "clf":
        return write_clf(records, path)
    if format == "parquet":
        from .parquet import write_parquet

        return write_parquet(records, path)
    raise _unknown_format(format)


def convert_log(
    source: str | Path,
    target: str | Path,
    source_format: str = "jsonl",
    target_format: str = "parquet",
    sitename: str = "",
    asn: int = 0,
) -> int:
    """Stream-convert a log between formats; returns the record count.

    Memory stays bounded at one row (one row group for Parquet)
    regardless of corpus size, and because values are normalized
    identically on every read path, the converted corpus carries the
    same content fingerprint as the original (format-independent cache
    keys).

    The output is written to a temporary file beside ``target`` and
    moved into place only once the whole source has converted, so a
    failed conversion leaves any existing ``target`` untouched and
    ``source == target`` converts in place.
    """
    target = Path(target)
    temp_name = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        count = write_log(
            iter_log_records(
                source, format=source_format, sitename=sitename, asn=asn
            ),
            temp_name,
            format=target_format,
        )
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return count


def render_clf_line(record: LogRecord) -> str:
    """Render a record back to Apache combined log format."""
    time_text = datetime.fromtimestamp(record.timestamp, tz=timezone.utc).strftime(
        _CLF_TIME_FORMAT
    )
    referer = record.referer or "-"
    return (
        f'{record.ip_hash} - - [{time_text}] "GET {record.uri_path} HTTP/1.1" '
        f'{record.status_code} {record.bytes_sent} "{referer}" "{record.useragent}"'
    )
