"""Struct-of-arrays record batches: the pipeline's columnar backend.

The paper's analysis is embarrassingly columnar — every reducer reads a
handful of fields (§3.1's column list, §4.2's requester tuples) across
many records — yet row objects cost one Python object plus boxed
numerics per record.  A :class:`RecordBatch` stores one contiguous
container per schema column instead: stdlib ``array`` for numeric
columns (8 raw bytes per value, no boxing) and plain lists for string
columns, with the layout derived from
:data:`repro.logs.schema.COLUMN_SPECS`.

Log IO moves row streams (:mod:`repro.logs.io`); batches appear only
where the pipeline works column-wise.  The row hash of an in-memory
source (:func:`repro.pipeline.store.fingerprint_rows`) and a shard's
content key (:func:`repro.pipeline.store.fingerprint_batch`) hash each
raw column of a batch in one call, and the shard partitioner
(:func:`repro.pipeline.shard.partition_batches`) gathers batches by
key column into batch-backed shards.  The Parquet
codec (:mod:`repro.logs.parquet`) uses them internally as row groups.
The analysis reducers fold row objects.  Rows that cross a process
or cache boundary travel as a :class:`RecordList`: a plain row list in
memory that pickles as dictionary-encoded columns.  That covers the
cached ``preprocess`` records and both directions of the sharded
preprocess map (a batch-backed shard's payload rows and each worker's
enriched result, which is also the per-shard cache entry).
Row objects remain available everywhere as thin views —
:meth:`RecordBatch.rows` / :meth:`RecordBatch.to_records` build
:class:`~repro.logs.schema.LogRecord` objects on demand — and the
columnar == row parity is property-tested byte-for-byte.

This core is stdlib-only; ``pyarrow`` is an optional extra used only by
the Parquet codec.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache
from operator import attrgetter

from ..exceptions import LogSchemaError
from ..uaparse.categories import BotCategory
from .schema import COLUMN_SPECS, LogRecord

#: Default records per batch for streaming readers and sources.  Large
#: enough to amortize per-batch overhead, small enough that one live
#: batch is megabyte-scale even with long user-agent strings.
DEFAULT_BATCH_RECORDS = 4096

#: array typecodes per column kind ("str"/"str?" columns use lists).
_TYPECODES = {"f64": "d", "i64": "q"}

#: Serialized column name -> ColumnSpec, for O(1) lookups.
_SPEC_BY_NAME = {spec.name: spec for spec in COLUMN_SPECS}

#: Position of the ``bot_category`` column, whose batch values are
#: labels and whose row values are :class:`BotCategory` members.
_CATEGORY_COLUMN = [spec.name for spec in COLUMN_SPECS].index("bot_category")


@lru_cache(maxsize=64)
def _category(label: str | None) -> BotCategory | None:
    return BotCategory.from_label(label) if label else None


def _empty_column(kind: str) -> "array | list":
    code = _TYPECODES.get(kind)
    return array(code) if code else []


class RecordBatch:
    """A struct-of-arrays batch of log records.

    One container per schema column, all the same length, keyed by the
    column's *serialized* name (``"bytes"``, not ``bytes_sent``).  The
    ``bot_category`` column holds Dark Visitors labels (strings), not
    enum members — enums are built only on the row view, keeping
    the column a flat, picklable, Parquet-compatible string column.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: dict[str, "array | list"] | None = None) -> None:
        if columns is None:
            columns = {
                spec.name: _empty_column(spec.kind) for spec in COLUMN_SPECS
            }
        self._columns = columns

    # -- construction --------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[LogRecord]) -> "RecordBatch":
        """Pack row objects into a batch (the row -> columnar converter)."""
        batch = cls()
        batch.extend_records(records)
        return batch

    @classmethod
    def from_columns(
        cls, columns: Mapping[str, Sequence[object]]
    ) -> "RecordBatch":
        """Build a batch from per-column value sequences.

        Numeric columns are coerced into ``array`` storage; lengths
        must agree across columns and every schema column must be
        present.

        Raises:
            LogSchemaError: on a missing column or ragged lengths.
        """
        packed: dict[str, "array | list"] = {}
        length: int | None = None
        for spec in COLUMN_SPECS:
            try:
                values = columns[spec.name]
            except KeyError:
                raise LogSchemaError(
                    f"batch is missing column {spec.name!r}"
                ) from None
            code = _TYPECODES.get(spec.kind)
            column = array(code, values) if code else list(values)
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise LogSchemaError(
                    f"ragged batch: column {spec.name!r} has "
                    f"{len(column)} values, expected {length}"
                )
            packed[spec.name] = column
        return cls(packed)

    def append(self, record: LogRecord) -> None:
        """Append one row object's values column-wise."""
        columns = self._columns
        columns["useragent"].append(record.useragent)
        columns["timestamp"].append(record.timestamp)
        columns["ip_hash"].append(record.ip_hash)
        columns["asn"].append(record.asn)
        columns["sitename"].append(record.sitename)
        columns["uri_path"].append(record.uri_path)
        columns["status_code"].append(record.status_code)
        columns["bytes"].append(record.bytes_sent)
        columns["referer"].append(record.referer)
        columns["bot_name"].append(record.bot_name)
        columns["bot_category"].append(
            record.bot_category.value if record.bot_category else None
        )
        columns["asn_name"].append(record.asn_name)

    def extend_records(self, records: Iterable[LogRecord]) -> None:
        for record in records:
            self.append(record)

    def extend(self, other: "RecordBatch") -> None:
        """Concatenate another batch's columns onto this one."""
        for name, column in self._columns.items():
            column.extend(other._columns[name])

    # -- shape ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns["timestamp"])

    def __bool__(self) -> bool:
        return len(self) > 0

    def column(self, name: str) -> "array | list":
        """One column's container by serialized name (zero-copy)."""
        try:
            return self._columns[name]
        except KeyError:
            raise LogSchemaError(f"unknown column {name!r}") from None

    def take(self, positions: Sequence[int]) -> "RecordBatch":
        """Gather the given row positions into a new batch, in order."""
        out: dict[str, "array | list"] = {}
        for spec in COLUMN_SPECS:
            column = self._columns[spec.name]
            gathered = [column[position] for position in positions]
            code = _TYPECODES.get(spec.kind)
            out[spec.name] = array(code, gathered) if code else gathered
        return RecordBatch(out)

    # -- row views -----------------------------------------------------

    def rows(self) -> Iterator[LogRecord]:
        """Lazily build every row (one live object at a time).

        Zips the columns straight into :class:`LogRecord`, whose fields
        are in :data:`COLUMN_SPECS` order; only category labels are
        converted.
        """
        columns = [self._columns[spec.name] for spec in COLUMN_SPECS]
        columns[_CATEGORY_COLUMN] = map(_category, columns[_CATEGORY_COLUMN])
        return map(LogRecord, *columns)

    def __iter__(self) -> Iterator[LogRecord]:
        return self.rows()

    def to_records(self) -> "RecordList":
        """The columnar -> row converter (builds every row at once)."""
        return RecordList(self.rows())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordBatch):
            return NotImplemented
        return all(
            list(self._columns[spec.name]) == list(other._columns[spec.name])
            for spec in COLUMN_SPECS
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordBatch(records={len(self)})"


class RecordList(list):
    """A ``list[LogRecord]`` that pickles as dictionary-encoded columns.

    In memory it is a plain list of row objects; only its pickled form
    differs.  :meth:`__reduce__` packs each :data:`COLUMN_SPECS` column
    once: numeric columns as raw ``array`` bytes, string and category
    columns as a first-appearance value table plus ``array('I')``
    codes, so a value that repeats on every row (a site, a user agent,
    a bot name) is stored once instead of once per record.  Unpickling
    rebuilds equal rows in order, sharing one object per distinct
    value.  The cached ``preprocess`` artifact, a batch-backed shard's
    rows and a preprocess shard's result are all of these.
    """

    __slots__ = ()

    def __reduce__(self):
        columns = []
        for spec in COLUMN_SPECS:
            values = list(map(attrgetter(spec.attr), self))
            code = _TYPECODES.get(spec.kind)
            if code:
                columns.append(array(code, values))
            else:
                table = tuple(dict.fromkeys(values))
                codes = {value: index for index, value in enumerate(table)}
                columns.append((table, array("I", map(codes.__getitem__, values))))
        return _unpack_records, (tuple(columns),)


def _unpack_records(columns: tuple) -> RecordList:
    """Rebuild a :class:`RecordList` from :meth:`RecordList.__reduce__`'s
    columns (``LogRecord`` fields are in ``COLUMN_SPECS`` order)."""
    rebuilt = [
        column if isinstance(column, array) else map(column[0].__getitem__, column[1])
        for column in columns
    ]
    return RecordList(map(LogRecord, *rebuilt))


def iter_batches(
    records: Iterable[LogRecord], batch_records: int = DEFAULT_BATCH_RECORDS
) -> Iterator[RecordBatch]:
    """Chunk a record iterable into batches of ``batch_records`` rows."""
    if batch_records < 1:
        raise LogSchemaError(
            f"batch_records must be >= 1, got {batch_records}"
        )
    batch = RecordBatch()
    for record in records:
        batch.append(record)
        if len(batch) == batch_records:
            yield batch
            batch = RecordBatch()
    if batch:
        yield batch
