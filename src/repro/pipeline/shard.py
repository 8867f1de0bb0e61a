"""Deterministic hash sharding and the parallel shard executor.

Partitioning uses ``zlib.crc32`` over each record's ``sitename``
rather than Python's builtin ``hash`` — ``hash(str)`` is salted per
process (``PYTHONHASHSEED``), which would assign records to different
shards in every worker and break the sharded == sequential parity
guarantee.
crc32 is stable across processes, platforms and Python versions.

Within a shard, records keep their arrival order and remember their
original stream positions, so a merge can stitch shard outputs back
into the exact global order the sequential pipeline sees.  That
order-restoring merge is what makes the parity guarantee *byte*
identical instead of merely equivalent-up-to-reordering.

:func:`run_sharded` executes one worker callable per shard payload on
the configured backend:

``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` (fork context
    where available) — true parallelism for the CPU-bound enrichment
    and policy-evaluation work.  Workers must be picklable
    (module-level functions or :func:`functools.partial` of one).
``inline``
    A plain loop in the calling thread — deterministic, cheap for
    tests and debugging.

(The ``queue`` backend lives in :mod:`repro.distributed.coordinator`.)
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

from ..exceptions import PipelineError
from ..logs.columnar import RecordBatch
from ..logs.schema import LogRecord

_P = TypeVar("_P")
_R = TypeVar("_R")


def shard_index(key: str, shards: int) -> int:
    """Deterministic shard assignment for one key value."""
    return zlib.crc32(key.encode("utf-8")) % shards


class Shard:
    """One hash partition of a record stream.

    A shard from :func:`partition_batches` is backed by a
    :class:`RecordBatch`; :attr:`records` builds a fresh
    :class:`~repro.logs.columnar.RecordList` of its rows on each access
    and keeps none, so the rows live only as long as the map that
    reads them, and a ``process`` map pickles them as
    dictionary-encoded columns.  The per-shard artifact cache hashes
    the batch columns directly.  Any other payload — e.g.
    scenario-matrix cells, whose "records" are declarative specs rather than
    :class:`LogRecord` rows — is passed as ``records`` together with
    an explicit ``fingerprint``: a digest of the payload itself, so
    each shard's cache entry keys on exactly what the worker will see.

    Attributes:
        index: this shard's position in the partition.
        positions: each record's position in the original stream,
            parallel to the records — the merge key that restores
            global order.
        batch: the column batch backing the shard, or ``None`` for a
            payload shard.
        fingerprint: the payload shard's content key (``None`` for a
            batch-backed shard, whose key is its columns' digest).
    """

    __slots__ = ("index", "positions", "batch", "fingerprint", "_records")

    def __init__(
        self,
        index: int,
        records: list[LogRecord] | None = None,
        positions: list[int] | None = None,
        batch: RecordBatch | None = None,
        fingerprint: str | None = None,
    ) -> None:
        if batch is None and fingerprint is None:
            raise PipelineError(
                f"shard {index}: a shard without a batch needs an explicit "
                "fingerprint"
            )
        self.index = index
        self.positions = positions if positions is not None else []
        self.batch = batch
        self.fingerprint = fingerprint
        self._records = [] if records is None and batch is None else records

    @property
    def records(self) -> list[LogRecord]:
        """The shard's rows, in stream order: a payload shard's own
        list, or a new :class:`~repro.logs.columnar.RecordList` built
        from the batch.
        """
        if self._records is None:
            assert self.batch is not None
            return self.batch.to_records()
        return self._records

    def __len__(self) -> int:
        return len(self.batch if self.batch is not None else self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Shard(index={self.index}, records={len(self)})"


def partition_batches(batches: Iterable[RecordBatch], shards: int) -> list[Shard]:
    """Partition a batch stream into ``shards`` shards, columnar-wise.

    Assigns rows to shards by hashing the ``sitename`` *column* with
    :func:`shard_index` and gathers them with :meth:`RecordBatch.take`
    — no row objects are built at any point.  Consumes ``batches``
    exactly once; rows of the same site always land in the same shard,
    and every shard preserves the relative order of its rows.
    """
    if shards < 1:
        raise PipelineError(f"shard count must be >= 1, got {shards}")
    parts = [
        Shard(index=i, batch=RecordBatch(), positions=[])
        for i in range(shards)
    ]
    offset = 0
    for batch in batches:
        keys = batch.column("sitename")
        buckets: dict[int, list[int]] = {}
        for row, key in enumerate(keys):
            buckets.setdefault(shard_index(key, shards), []).append(row)
        for index, rows in buckets.items():
            shard = parts[index]
            shard.batch.extend(batch.take(rows))
            shard.positions.extend(offset + row for row in rows)
        offset += len(batch)
    return parts


def restore_order(
    outputs: Sequence[Sequence[LogRecord]],
    positions: Sequence[Sequence[int]],
    total: int,
) -> list[LogRecord]:
    """Stitch per-shard record lists back into original stream order.

    Every stream position must be covered exactly once: shard workers
    transform records but never add or drop them (filtering happens in
    the reduce step, *after* the merge).  A gap, a duplicate, or an
    out-of-range position means the partition and the outputs have
    drifted apart, and a silent best-effort merge would quietly drop
    records from the study — so any mismatch raises
    :class:`~repro.exceptions.PipelineError` instead.
    """
    merged: list[LogRecord | None] = [None] * total
    filled = 0
    for shard, (records, where) in enumerate(zip(outputs, positions)):
        if len(records) != len(where):
            raise PipelineError(
                f"shard {shard}: {len(records)} output record(s) but "
                f"{len(where)} position(s); shard workers must return "
                "exactly one record per input"
            )
        for position, record in zip(where, records):
            if not 0 <= position < total:
                raise PipelineError(
                    f"shard {shard}: position {position} outside the "
                    f"stream (total {total})"
                )
            if merged[position] is not None:
                raise PipelineError(
                    f"shard {shard}: duplicate stream position {position}"
                )
            merged[position] = record
            filled += 1
    if filled != total:
        raise PipelineError(
            f"merge covered {filled} of {total} stream position(s); "
            "records were dropped between partition and merge"
        )
    return merged  # type: ignore[return-value]


def _process_context():
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_sharded(
    worker: Callable[[_P], _R],
    payloads: Sequence[_P],
    jobs: int = 1,
    executor: str = "process",
) -> list[_R]:
    """Run ``worker`` over each payload, results aligned with inputs.

    ``executor`` must be ``process`` or ``inline`` (the ``queue``
    backend is :func:`repro.distributed.coordinator.run_sharded_queue`)
    and is checked before anything runs.  ``jobs <= 1``, a single
    payload, or ``executor="inline"`` all degrade to a plain loop — no
    pool, no pickling.
    """
    if executor not in ("process", "inline"):
        raise PipelineError(
            f"unknown executor {executor!r}; choose 'process' or 'inline'"
        )
    if jobs <= 1 or len(payloads) <= 1 or executor == "inline":
        return [worker(payload) for payload in payloads]
    # Imported here: a run that needs no pool (warm, inline) loads neither.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(jobs, len(payloads)), mp_context=_process_context()
    ) as pool:
        return list(pool.map(worker, payloads))
