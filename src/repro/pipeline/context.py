"""Pipeline execution context: configuration, record source, artifacts.

Three small objects shared by every stage of a pipeline run:

:class:`PipelineConfig`
    How to execute — worker count (``jobs``; shards always hash
    ``sitename``) and the shard executor backend (``process`` for true
    parallelism, ``inline`` for deterministic in-process runs, ``queue``
    for a filesystem spool served by worker processes, which the CLI
    offers on ``scenarios run`` only).

:class:`RecordSource`
    A row source parsed at most once per run: one zero-argument
    callable returning an iterable of records.  The first pass that
    needs every row (the fingerprint, sequential preprocessing) holds
    them via :meth:`RecordSource.rows`, and later passes replay that
    list; a list source is replayed as-is.  A pass that comes first
    and only streams (the no-store shard partitioner) reads the
    factory without holding it.  A file source
    (:meth:`RecordSource.from_file`) memoizes its fingerprint in the
    artifact store, keyed by the file's raw bytes, so a warm run never
    parses it.

:class:`PipelineContext`
    The artifact store stages read from and the runner writes to, plus
    free-form ``params`` (e.g. the study scenario).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from ..choices import EXECUTOR_CHOICES
from ..exceptions import PipelineError
from ..logs.columnar import DEFAULT_BATCH_RECORDS, RecordBatch, iter_batches
from ..logs.io import iter_log_records
from ..logs.schema import LogRecord
from .store import (
    CACHE_SCHEMA,
    DEFAULT_CHUNK_RECORDS,
    ArtifactStore,
    CacheStats,
    SourceFingerprint,
    digest_parts,
    file_sha256,
    fingerprint_stream,
)

#: Version of the bytes -> rows mapping of the log readers.  It keys the
#: source-fingerprint memo, so bump it whenever a reader change can
#: turn the same file into different rows.
READER_TOKEN = "1"

#: Pseudo-stage that tags source-fingerprint memo entries in the store
#: (what ``cache info --verbose`` lists them under).
SOURCE_MEMO_STAGE = "source-fingerprint"


@dataclass(frozen=True)
class PipelineConfig:
    """Execution knobs for one pipeline run.

    Attributes:
        jobs: shard/worker count; ``1`` means fully sequential (the
            facade default, byte-identical to the legacy code path).
        executor: backend that runs per-shard stage work.
        drop_scanners: propagated to preprocessing (screen out
            vulnerability-scanner IP hashes, the paper's §3.1 step).
        spool: spool directory for the ``queue`` executor — the work
            queue, leases, payloads and results shared with the worker
            fleet (``repro-study worker --spool DIR``, serving
            ``scenarios run --executor queue``).  Like ``jobs``
            and ``executor``, it is execution plumbing: artifact cache
            keys never include it.
        workers: local worker processes the ``queue`` executor spawns
            for the duration of each shard map.  ``None`` (default)
            mirrors ``jobs``; ``0`` spawns none and relies entirely on
            externally started workers serving the spool.
    """

    jobs: int = 1
    executor: str = "process"
    drop_scanners: bool = True
    spool: str | None = None
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise PipelineError(f"jobs must be >= 1, got {self.jobs}")
        if self.executor not in EXECUTOR_CHOICES:
            raise PipelineError(
                f"executor must be one of {EXECUTOR_CHOICES}, got {self.executor!r}"
            )
        if self.executor == "queue" and not self.spool:
            raise PipelineError(
                "executor 'queue' requires a spool directory "
                "(PipelineConfig(spool=...) / --spool)"
            )
        if self.workers is not None and self.workers < 0:
            raise PipelineError(
                f"workers must be >= 0, got {self.workers}"
            )
        if self.spool is not None:
            # Normalized so the frozen config carries a plain string
            # (Path objects repr differently across platforms).
            object.__setattr__(self, "spool", str(self.spool))


class RecordSource:
    """A log-record source stages can read more than once.

    Wraps exactly one zero-argument callable returning an iterable of
    records.  :meth:`rows` calls it once and keeps the list; after
    that, :meth:`stream` and :meth:`batches` replay the list, and
    before it each of them re-invokes the factory.  So one run parses
    a log file once, and all of its passes see the same rows even if
    the file grows meanwhile.  Construct via :meth:`of`, which accepts:

    - another :class:`RecordSource` (returned unchanged);
    - a ``list`` of records (replayed as-is, zero copies: stages see
      the caller's own objects);
    - a zero-argument callable returning an iterable (e.g. ``lambda:
      iter_log_records(path, "csv")``);
    - any other iterable (consumed once into a list immediately, since
      a bare iterator cannot be replayed).

    A log file is best wrapped with :meth:`from_file`, whose fingerprint
    can be memoized in an artifact store.
    """

    __slots__ = ("_factory", "_rows", "_fingerprint", "_path", "_reader_args", "_raw")

    def __init__(self, factory: Callable[[], Iterable[LogRecord]]) -> None:
        self._factory = factory
        self._rows: list[LogRecord] | None = None
        self._fingerprint: SourceFingerprint | None = None
        self._path: Path | None = None
        self._reader_args: tuple[str, ...] = ()
        # Raw SHA-256 of the file bytes a memo hit answered for: a
        # later parse must read those same bytes (see _check_unchanged).
        self._raw: str | None = None

    @classmethod
    def from_file(
        cls,
        path: str | Path,
        format: str = "jsonl",
        sitename: str = "",
        asn: int = 0,
    ) -> "RecordSource":
        """A source over one log file, parsed on its first full pass.

        The arguments are :func:`~repro.logs.io.iter_log_records`'s;
        they also key the fingerprint memo (see :meth:`fingerprint`).
        """
        source = cls(
            lambda: iter_log_records(path, format, sitename=sitename, asn=asn)
        )
        source._path = Path(path)
        source._reader_args = (format, sitename, str(asn))
        return source

    @classmethod
    def of(
        cls,
        source: "RecordSource | list[LogRecord] | Callable[[], Iterable[LogRecord]] | Iterable[LogRecord]",
    ) -> "RecordSource":
        if isinstance(source, RecordSource):
            return source
        if callable(source):
            return cls(source)
        records = source if isinstance(source, list) else list(source)
        return cls(lambda: records)

    def rows(self) -> list[LogRecord]:
        """Every record, read from the factory once and then kept.

        A factory that returns a list hands it over uncopied.
        """
        if self._rows is None:
            rows = self._factory()
            rows = rows if isinstance(rows, list) else list(rows)
            self._check_unchanged()
            self._rows = rows
        return self._rows

    def stream(self) -> Iterator[LogRecord]:
        """One full pass over the records: the kept :meth:`rows` once
        read, else a fresh factory pass that is not kept."""
        if self._rows is not None:
            return iter(self._rows)
        if self._raw is None:
            return iter(self._factory())
        return self._checked_pass()

    def _checked_pass(self) -> Iterator[LogRecord]:
        yield from self._factory()
        self._check_unchanged()

    def _check_unchanged(self) -> None:
        """Refuse rows parsed after a memo hit from different bytes.

        The stage keys of this run derive from the memoized fingerprint
        of the bytes hashed at lookup time; rows read from a file that
        changed since would be published under those keys.
        """
        if self._raw is not None and file_sha256(self._path) != self._raw:
            raise PipelineError(
                f"log file {self._path} changed while it was being "
                "analyzed; nothing was cached from it, rerun the command"
            )

    def batches(
        self, size: int = DEFAULT_BATCH_RECORDS
    ) -> Iterator[RecordBatch]:
        """One full pass as column batches of ``size`` rows (last one
        partial), packed on the fly: at most one batch is live."""
        return iter_batches(self.stream(), size)

    def fingerprint(self, store: ArtifactStore | None = None) -> SourceFingerprint:
        """Chunked content identity of this source (computed once).

        The fingerprint hashes raw column chunks, so it is independent
        of the serialization format: a JSONL, CSV or Parquet reader
        over the same records produces identical digests and hits the
        same cached artifacts.  Cached per instance, and computed over
        :meth:`rows`, so it describes exactly the rows the stages see;
        re-reading a grown log file means constructing a fresh source
        (the CLI does this on every invocation).

        With a ``store``, a :meth:`from_file` source first hashes the
        file's raw bytes and looks the fingerprint up in the store
        under that hash (plus format, CLF site/ASN and
        :data:`READER_TOKEN`), so an unchanged file is never parsed.  A
        miss parses the file into :meth:`rows` and publishes the memo,
        unless the file's bytes changed during the parse.  After a hit,
        the first parse of the file (should a stage need the rows)
        re-hashes it and raises :class:`PipelineError` if the bytes
        changed.  Rows already parsed are fingerprinted directly.
        """
        if self._fingerprint is None:
            if store is None or self._path is None or self._rows is not None:
                self._fingerprint = fingerprint_stream(self.rows())
            else:
                self._fingerprint = self._memoized(self._path, store)
        return self._fingerprint

    def _memoized(self, path: Path, store: ArtifactStore) -> SourceFingerprint:
        raw = file_sha256(path)
        key = digest_parts(
            "source",
            CACHE_SCHEMA,
            READER_TOKEN,
            *self._reader_args,
            str(DEFAULT_CHUNK_RECORDS),
            raw,
        )
        status, memo = store.load(key)
        if status == "hit":
            self._raw = raw
            return memo  # type: ignore[return-value]
        fingerprint = fingerprint_stream(self.rows())
        # A file edited mid-parse must not map these bytes to those rows.
        if file_sha256(path) == raw:
            store.store(key, fingerprint, stage=SOURCE_MEMO_STAGE)
        return fingerprint


@dataclass
class PipelineContext:
    """State shared by the stages of one pipeline run.

    Attributes:
        config: execution knobs (read-only to stages).
        source: the record source feeding ingestion stages (may be
            ``None`` for pipelines that do not consume logs).
        params: free-form inputs (e.g. ``params["scenario"]``).
        artifacts: memoized stage outputs, keyed by stage name.  Written
            by the runner; stages read dependencies via :meth:`artifact`.
        store: optional persistent artifact cache; when set, the runner
            consults it before executing a stage and publishes fresh
            artifacts into it.
        stats: cache hit/miss/invalidation accounting for this run
            (always present; stays all-zero without a store).
    """

    config: PipelineConfig = field(default_factory=PipelineConfig)
    source: RecordSource | None = None
    params: dict[str, object] = field(default_factory=dict)
    artifacts: dict[str, object] = field(default_factory=dict)
    store: ArtifactStore | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def artifact(self, name: str) -> object:
        """A previously computed stage artifact (raises if absent)."""
        try:
            return self.artifacts[name]
        except KeyError:
            raise PipelineError(
                f"artifact {name!r} has not been computed; declare it as a "
                "dependency of the requesting stage"
            ) from None
