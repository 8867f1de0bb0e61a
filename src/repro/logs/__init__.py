"""Access-log pipeline: schema, columnar batches, IO, preprocessing,
sessionization."""

from .._lazy import lazy_exports
from .sessionize import sessionize

# ``sessionize`` is bound eagerly above: it names both a submodule and
# its function, and loading the submodule binds the module here, which
# would shadow a lazy export of the function.

_EXPORTS = {
    "DEFAULT_BATCH_RECORDS": ".columnar",
    "RecordBatch": ".columnar",
    "iter_batches": ".columnar",
    "LOG_FORMATS": ".io",
    "convert_log": ".io",
    "iter_log_records": ".io",
    "parse_clf_line": ".io",
    "read_clf": ".io",
    "read_csv": ".io",
    "read_jsonl": ".io",
    "render_clf_line": ".io",
    "write_clf": ".io",
    "write_csv": ".io",
    "write_jsonl": ".io",
    "write_log": ".io",
    "PreprocessReport": ".preprocess",
    "Preprocessor": ".preprocess",
    "find_scanner_ips": ".preprocess",
    "looks_like_probe": ".preprocess",
    "records_by_bot": ".preprocess",
    "COLUMN_SPECS": ".schema",
    "CSV_COLUMNS": ".schema",
    "RAW_COLUMNS": ".schema",
    "ColumnSpec": ".schema",
    "LogRecord": ".schema",
    "from_iso8601": ".schema",
    "is_robots_path": ".schema",
    "to_iso8601": ".schema",
    "SESSION_TIMEOUT_SECONDS": ".sessionize",
    "Session": ".sessionize",
    "sessionize": ".sessionize",
    "sessions_by_category": ".sessionize",
    "sessions_per_day": ".sessionize",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "COLUMN_SPECS",
    "CSV_COLUMNS",
    "ColumnSpec",
    "DEFAULT_BATCH_RECORDS",
    "LOG_FORMATS",
    "LogRecord",
    "PreprocessReport",
    "Preprocessor",
    "RAW_COLUMNS",
    "RecordBatch",
    "SESSION_TIMEOUT_SECONDS",
    "Session",
    "convert_log",
    "find_scanner_ips",
    "from_iso8601",
    "is_robots_path",
    "iter_batches",
    "iter_log_records",
    "looks_like_probe",
    "parse_clf_line",
    "read_clf",
    "read_csv",
    "read_jsonl",
    "records_by_bot",
    "render_clf_line",
    "sessionize",
    "sessions_by_category",
    "sessions_per_day",
    "to_iso8601",
    "write_clf",
    "write_csv",
    "write_jsonl",
    "write_log",
]
