"""Optional Parquet codec: a row reader and a row writer.

Like every other format in :mod:`repro.logs.io`, Parquet is read and
written as a stream of :class:`~repro.logs.schema.LogRecord` rows.
Internally the codec packs rows into :class:`RecordBatch` column
batches, because Parquet is struct-of-arrays too: each batch becomes
one row group (snappy-compressed by default), and the reader unpacks
one row group at a time, so memory stays bounded at one batch.

``pyarrow`` is deliberately an *extra* (``pip install
repro-robots-study[parquet]``): the rest of the package, including the
columnar core, is stdlib-only, and every entry point that can reach
this module degrades to a clear :class:`MissingDependencyError` when
pyarrow is absent.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path

from ..exceptions import MissingDependencyError
from .columnar import DEFAULT_BATCH_RECORDS, RecordBatch, iter_batches
from .schema import COLUMN_SPECS, LogRecord

try:  # pragma: no cover - exercised only on the pyarrow CI leg
    import pyarrow as _pa
    import pyarrow.parquet as _pq

    HAVE_PYARROW = True
except ModuleNotFoundError:  # pragma: no cover - trivially covered
    _pa = None
    _pq = None
    HAVE_PYARROW = False

#: ColumnSpec kind -> arrow type factory name.
_ARROW_KINDS = {"str": "string", "str?": "string", "f64": "float64", "i64": "int64"}

#: Columns where the row schema's ``"" -> None`` normalization applies
#: (mirrors :meth:`LogRecord.from_dict`, so a Parquet round-trip and a
#: JSONL round-trip of the same corpus agree byte-for-byte).
_NULLABLE_COLUMNS = tuple(
    spec.name for spec in COLUMN_SPECS if spec.kind == "str?"
)


def require_pyarrow() -> None:
    """Raise a pointed error when the Parquet extra is not installed."""
    if not HAVE_PYARROW:
        raise MissingDependencyError(
            "Parquet support requires pyarrow; install the extra with "
            "'pip install repro-robots-study[parquet]'"
        )


def _arrow_schema():
    return _pa.schema(
        [
            _pa.field(
                spec.name,
                getattr(_pa, _ARROW_KINDS[spec.kind])(),
                nullable=spec.kind == "str?",
            )
            for spec in COLUMN_SPECS
        ]
    )


def write_parquet(
    records: Iterable[LogRecord],
    path: str | Path,
    batch_records: int = DEFAULT_BATCH_RECORDS,
    compression: str = "snappy",
) -> int:
    """Write a row stream as one Parquet file; returns the record count.

    Every ``batch_records`` rows are packed into one column batch and
    written as one row group, so a reader can stream the file back
    without loading it whole.
    """
    require_pyarrow()
    schema = _arrow_schema()
    count = 0
    with _pq.ParquetWriter(
        str(path), schema, compression=compression
    ) as writer:
        for batch in iter_batches(records, batch_records):
            table = _pa.table(
                {
                    spec.name: _pa.array(
                        batch.column(spec.name),
                        type=getattr(_pa, _ARROW_KINDS[spec.kind])(),
                    )
                    for spec in COLUMN_SPECS
                },
                schema=schema,
            )
            writer.write_table(table)
            count += len(batch)
    return count


def read_parquet(
    path: str | Path, batch_records: int = DEFAULT_BATCH_RECORDS
) -> Iterator[LogRecord]:
    """Stream rows from a Parquet file, one ``batch_records`` batch live.

    Values are normalized to the row schema's conventions — empty
    strings in nullable columns become ``None``, exactly as
    :meth:`LogRecord.from_dict` would — so a corpus read from Parquet
    is indistinguishable from the same corpus read from JSONL or CSV.
    """
    require_pyarrow()
    parquet_file = _pq.ParquetFile(str(path))
    try:
        for arrow_batch in parquet_file.iter_batches(batch_size=batch_records):
            columns = {
                name: arrow_batch.column(index).to_pylist()
                for index, name in enumerate(arrow_batch.schema.names)
            }
            for name in _NULLABLE_COLUMNS:
                if name in columns:
                    columns[name] = [
                        value or None for value in columns[name]
                    ]
            yield from RecordBatch.from_columns(columns).rows()
    finally:
        parquet_file.close()
