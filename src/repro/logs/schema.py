"""Access-log record schema (the paper's §3.1 field list).

Each :class:`LogRecord` is one page access by one web visitor at one
time, with exactly the fields the paper's dataset carries: user agent,
timestamp, hashed IP, ASN, sitename, URI path, status code, bytes and
referer — plus the enrichment columns the preprocessing pipeline adds
(standardized bot name, category, ASN organization).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

from ..uaparse.categories import BotCategory


def to_iso8601(epoch: float) -> str:
    """Render epoch seconds as the dataset's ISO-8601 timestamp."""
    return (
        datetime.fromtimestamp(epoch, tz=timezone.utc)
        .isoformat()
        .replace("+00:00", "Z")
    )


def from_iso8601(text: str) -> float:
    """Parse an ISO-8601 timestamp back to epoch seconds."""
    return datetime.fromisoformat(text).timestamp()


def is_robots_path(path: str) -> bool:
    """Whether a URI path targets ``/robots.txt`` (query string ignored).

    The predicate behind :attr:`LogRecord.is_robots_fetch`, usable on
    a bare path column as well.
    """
    question = path.find("?")
    if question >= 0:
        path = path[:question]
    return path == "/robots.txt"


@dataclass(slots=True)
class LogRecord:
    """One web access.

    Core fields mirror the paper's dataset; enrichment fields are
    ``None`` until :mod:`repro.logs.preprocess` fills them in.

    Attributes:
        useragent: self-reported User-Agent header value.
        timestamp: access time, epoch seconds (UTC).
        ip_hash: one-way hash of the visitor IP (IRB anonymization).
        asn: autonomous system number of the visitor.
        sitename: base website accessed.
        uri_path: requested resource path.
        status_code: HTTP status the site returned.
        bytes_sent: bytes transmitted by the server.
        referer: redirecting site, when present.
        bot_name: standardized bot name (enrichment).
        bot_category: Dark Visitors category (enrichment).
        asn_name: ASN registry handle (enrichment).
    """

    useragent: str
    timestamp: float
    ip_hash: str
    asn: int
    sitename: str
    uri_path: str
    status_code: int
    bytes_sent: int
    referer: str | None = None
    bot_name: str | None = None
    bot_category: BotCategory | None = None
    asn_name: str | None = None

    @property
    def iso_timestamp(self) -> str:
        return to_iso8601(self.timestamp)

    @property
    def is_robots_fetch(self) -> bool:
        """True when this access targets ``/robots.txt``."""
        return is_robots_path(self.uri_path)

    @property
    def tau(self) -> tuple[int, str, str]:
        """The paper's §4.2 requester tuple: (ASN, IP hash, user agent)."""
        return (self.asn, self.ip_hash, self.useragent)

    def to_dict(self) -> dict:
        """Serializable dict with the paper's column names."""
        return {
            "useragent": self.useragent,
            "timestamp": self.iso_timestamp,
            "ip_hash": self.ip_hash,
            "asn": self.asn,
            "sitename": self.sitename,
            "uri_path": self.uri_path,
            "status_code": self.status_code,
            "bytes": self.bytes_sent,
            "referer": self.referer,
            "bot_name": self.bot_name,
            "bot_category": self.bot_category.value if self.bot_category else None,
            "asn_name": self.asn_name,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "LogRecord":
        """Inverse of :meth:`to_dict` (enrichment fields optional)."""
        category = row.get("bot_category")
        return cls(
            row["useragent"],
            from_iso8601(row["timestamp"]),
            row["ip_hash"],
            int(row["asn"]),
            row["sitename"],
            row["uri_path"],
            int(row["status_code"]),
            int(row["bytes"]),
            row.get("referer") or None,
            row.get("bot_name") or None,
            BotCategory.from_label(category) if category else None,
            row.get("asn_name") or None,
        )


# -- the column registry -------------------------------------------------
#
# One declaration of the schema's columns, shared by every consumer:
# CSV headers, the columnar RecordBatch layout, the Parquet codec, and
# the store's raw-column fingerprints all derive from COLUMN_SPECS, so
# adding a column is a one-line change here.


@dataclass(frozen=True)
class ColumnSpec:
    """One schema column.

    Attributes:
        name: serialized column name (CSV header / JSON key / Parquet
            field), matching :meth:`LogRecord.to_dict`.
        attr: the :class:`LogRecord` attribute holding the value.
        kind: physical type — ``"str"`` (non-null string), ``"f64"``
            (float), ``"i64"`` (integer), ``"str?"`` (nullable string).
        enrichment: filled by preprocessing rather than ingestion;
            excluded from source fingerprints (see
            :mod:`repro.pipeline.store`).
    """

    name: str
    attr: str
    kind: str
    enrichment: bool = False


#: Every schema column, in serialization order (the paper's §3.1 field
#: list plus the preprocessing enrichment columns).
COLUMN_SPECS: tuple[ColumnSpec, ...] = (
    ColumnSpec("useragent", "useragent", "str"),
    ColumnSpec("timestamp", "timestamp", "f64"),
    ColumnSpec("ip_hash", "ip_hash", "str"),
    ColumnSpec("asn", "asn", "i64"),
    ColumnSpec("sitename", "sitename", "str"),
    ColumnSpec("uri_path", "uri_path", "str"),
    ColumnSpec("status_code", "status_code", "i64"),
    ColumnSpec("bytes", "bytes_sent", "i64"),
    ColumnSpec("referer", "referer", "str?"),
    ColumnSpec("bot_name", "bot_name", "str?", enrichment=True),
    ColumnSpec("bot_category", "bot_category", "str?", enrichment=True),
    ColumnSpec("asn_name", "asn_name", "str?", enrichment=True),
)

#: Column order for CSV serialization (derived from the registry).
CSV_COLUMNS: tuple[str, ...] = tuple(spec.name for spec in COLUMN_SPECS)

#: The paper's raw §3.1 columns — everything preprocessing does *not*
#: fill in.  Source fingerprints cover exactly these (enrichment is
#: deterministic given them and keyed by stage code tokens instead).
RAW_COLUMNS: tuple[str, ...] = tuple(
    spec.name for spec in COLUMN_SPECS if not spec.enrichment
)
