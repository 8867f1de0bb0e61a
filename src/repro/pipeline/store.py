"""Content-addressed artifact store for incremental pipeline runs.

The paper's measurement loop is append-heavy: logs grow daily and
robots.txt corpora are re-diffed weekly, yet a naive pipeline recomputes
every stage from scratch on each run.  This module makes re-analysis
incremental by persisting stage artifacts on disk under keys derived
from *what produced them*:

- a **source key** — a log file
  (:meth:`~repro.pipeline.context.RecordSource.from_file`) keys on the
  SHA-256 of its raw bytes, so a warm run hashes the file and parses
  no row, and any byte change misses; rows already in memory key on
  one hash of their raw columns (:func:`fingerprint_rows`);
- a per-shard **content fingerprint** — shard map outputs
  (:class:`~repro.pipeline.stage.ShardStage` workers) are cached keyed
  by the hash of the shard's own records, so appending records to one
  site's shard invalidates only that shard's worker output;
- each stage's declared **code/version token** plus the transitive
  fingerprints of its dependencies, Bazel-style, so editing a stage (or
  anything upstream of it) invalidates exactly the downstream cone.

The on-disk format is deliberately boring: one file per artifact under
``objects/``, written to a temporary name and atomically published with
:func:`os.replace` so readers never observe partial writes (lock-free
reads, safe concurrent publishers — last writer wins with identical
bytes).  Every file carries a SHA-256 checksum of its pickled payload;
corrupted or truncated files are detected on read, discarded, and
transparently recomputed.

Cache-hit accounting for one run lives in :class:`CacheStats` on the
:class:`~repro.pipeline.context.PipelineContext`; the parity-style
guarantee — cached results are byte-identical to cold results, and an
append-only mutation reruns exactly the stages downstream of the
affected shard — is property-tested in ``tests/test_pipeline_store.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..exceptions import ArtifactCorruptionError, PipelineError

if TYPE_CHECKING:
    from ..logs.columnar import RecordBatch
    from ..logs.schema import LogRecord

#: Bump to invalidate every cached artifact (on-disk format changes,
#: cross-cutting semantic fixes).  Stage-local changes should bump the
#: stage's own ``token`` instead.  "3": a log file keys on its raw
#: bytes, in-memory rows on one hash of their raw columns.
CACHE_SCHEMA = "3"

#: Artifact file header; the version suffix guards the binary layout.
#: v2 adds a stage-name line so ``cache info --verbose`` can attribute
#: on-disk bytes per stage; v1 files read as corrupt and self-heal.
_MAGIC = b"repro-artifact/2\n"

#: Field separator inside key derivations (never appears in tokens).
_SEP = "\x1f"

#: Sentinel distinguishing "decoded to None" from "failed to decode".
_CORRUPT = object()


def digest_parts(*parts: str) -> str:
    """SHA-256 over a tuple of string tokens (the key derivation)."""
    return hashlib.sha256(_SEP.join(parts).encode("utf-8")).hexdigest()


def file_sha256(path: str | Path) -> str:
    """SHA-256 of a file's raw bytes, streamed (never held whole)."""
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via a temporary file + :func:`os.replace`.

    The publish discipline every durable file in this codebase follows
    (artifact objects, spool tasks, leases, checkpoint manifests):
    readers never observe a partial file, because the final rename is
    atomic and the temporary name is never visible under the target
    name.  Concurrent writers of identical bytes race benignly —
    last writer wins with the same content.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-", suffix=".part"
    )
    try:
        with os.fdopen(handle, "wb") as tmp:
            tmp.write(blob)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# Row hashes cover exactly the paper's raw §3.1 columns
# (schema.RAW_COLUMNS).  Enrichment columns (``bot_name``,
# ``bot_category``, ``asn_name``) are deliberately excluded:
# preprocessing fills them *in place*, so including them would shift a
# list source's identity between the first (raw) and second (enriched)
# run over the same objects.  The enrichment itself is deterministic
# given the raw columns, and its code version is keyed separately via
# the preprocess stage token.
#
# Hashing is *columnar*: each batch contributes one JSON array per raw
# column (straight off a RecordBatch's containers — one dumps call per
# column instead of one per record).
#
# The log modules are imported where a hash is taken, so code that
# only keys or stores artifacts (the scenario grid) loads none.


def _update_chunk_digest(digest, batch: RecordBatch) -> None:
    from ..logs.schema import RAW_COLUMNS

    for name in RAW_COLUMNS:
        column = batch.column(name)
        if not isinstance(column, list):
            column = column.tolist()
        digest.update(json.dumps(column, separators=(",", ":")).encode("utf-8"))
        digest.update(b"\n")


def fingerprint_batch(batch: RecordBatch) -> str:
    """Content hash of one batch's raw columns (a shard's identity)."""
    digest = hashlib.sha256()
    _update_chunk_digest(digest, batch)
    return digest.hexdigest()


def fingerprint_rows(records: Iterable[LogRecord]) -> str:
    """Content hash of a row stream's raw columns, in one pass.

    Rows are packed into batches of
    :data:`~repro.logs.columnar.DEFAULT_BATCH_RECORDS` (the last one
    partial), each fed into one running digest, so at most one batch
    is live.
    """
    from ..logs.columnar import DEFAULT_BATCH_RECORDS, iter_batches

    digest = hashlib.sha256()
    for batch in iter_batches(records, DEFAULT_BATCH_RECORDS):
        _update_chunk_digest(digest, batch)
    return digest.hexdigest()


def stable_token(value: object) -> str:
    """A deterministic string identity for parameter values.

    Containers recurse; dataclass-style objects contribute their class
    name plus ``repr`` (dataclass reprs are value-based and stable).
    Raises :class:`PipelineError` for objects whose default repr leaks
    a memory address — those cannot key a persistent cache.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        inner = ",".join(stable_token(item) for item in value)
        return f"{type(value).__name__}[{inner}]"
    if isinstance(value, dict):
        inner = ",".join(
            f"{stable_token(key)}:{stable_token(item)}"
            for key, item in value.items()
        )
        return f"dict[{inner}]"
    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(stable_token(item) for item in value))
        return f"set[{inner}]"
    text = repr(value)
    if " at 0x" in text:
        raise PipelineError(
            f"cannot derive a stable cache token from {type(value).__name__} "
            "(its repr includes a memory address); give it a value-based "
            "__repr__ or exclude it from pipeline params"
        )
    return f"{type(value).__qualname__}:{text}"


# -- run statistics ------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting for one pipeline run.

    Attributes:
        hits: stage artifacts served from the store.
        misses: stage artifacts that had to be computed.
        invalidations: misses where the store held an artifact for the
            same stage under a *different* key (stale input or code).
        published: artifacts written to the store this run.
        corrupt: artifact files that failed checksum/unpickle and were
            discarded (each also counts as a miss).
        stage_events: per-stage outcome, ``"hit"`` / ``"miss"`` /
            ``"invalidated"``.
        shard_hits: per shard-stage, shard indices served from cache.
        shard_misses: per shard-stage, shard indices recomputed.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    published: int = 0
    corrupt: int = 0
    stage_events: dict[str, str] = field(default_factory=dict)
    shard_hits: dict[str, list[int]] = field(default_factory=dict)
    shard_misses: dict[str, list[int]] = field(default_factory=dict)

    def record_hit(self, stage: str) -> None:
        self.hits += 1
        self.stage_events[stage] = "hit"

    def record_miss(
        self, stage: str, invalidated: bool = False, corrupt: bool = False
    ) -> None:
        self.misses += 1
        if corrupt:
            self.corrupt += 1
        if invalidated:
            self.invalidations += 1
            self.stage_events[stage] = "invalidated"
        else:
            self.stage_events[stage] = "miss"

    def summary(self) -> str:
        """One-line rendering for CLI/log output."""
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.invalidations} invalidated, {self.published} published"
        )


# -- the store -----------------------------------------------------------


@dataclass(frozen=True)
class StoreInfo:
    """Summary returned by :meth:`ArtifactStore.info`.

    ``stages`` is populated only by ``info(verbose=True)``: stage name
    -> (entry count, bytes), read from the artifact headers.  Shard
    worker outputs appear under their ``stage[index]`` names; files
    from the pre-v2 layout (or with unreadable headers) land under
    ``"(unknown)"``.
    """

    path: str
    entries: int
    total_bytes: int
    stages: dict[str, tuple[int, int]] | None = None


@dataclass(frozen=True)
class PruneResult:
    """Summary returned by :meth:`ArtifactStore.prune`."""

    removed: int
    freed_bytes: int
    kept_entries: int
    kept_bytes: int


class ArtifactStore:
    """Content-addressed, on-disk artifact cache.

    Layout (all under ``root``)::

        objects/<key[:2]>/<key>      checksummed pickled artifacts
        latest/<stage-digest>.key    last published key per stage
                                     (invalidation detection + info)

    Reads are lock-free: an artifact file is only ever created by an
    atomic :func:`os.replace`, so any file that exists is complete;
    the embedded checksum catches external corruption or truncation.
    Writes from concurrent runs target unique temporary names and the
    final rename is last-writer-wins — both writers publish identical
    bytes for identical keys, so the race is benign.

    Args:
        root: cache directory (created on demand).
        read: when ``False`` (the CLI's ``--no-cache``), lookups always
            miss but publishes still happen — a refresh mode that
            rebuilds the cache without trusting its current contents.
    """

    #: Always ``None``; kept because ``perfbench/layers.py`` reads it.
    backend = None

    def __init__(self, root: str | Path, read: bool = True) -> None:
        self.root = Path(root)
        self.read = read
        self._objects = self.root / "objects"
        self._latest = self.root / "latest"
        # Directories are created lazily by the write paths, so
        # read-only operations (``cache info`` on a mistyped path,
        # probing loads) never litter the filesystem.

    # -- artifact IO --------------------------------------------------

    def _object_path(self, key: str) -> Path:
        return self._objects / key[:2] / key

    def load(self, key: str) -> tuple[str, object]:
        """Look up one artifact.

        Returns ``(status, value)`` where status is ``"hit"``,
        ``"miss"`` or ``"corrupt"`` (checksum or unpickle failure — the
        offending file is discarded so the subsequent publish replaces
        it).
        """
        if not self.read:
            return "miss", None
        path = self._object_path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return "miss", None
        value = self._decode(blob)
        if value is _CORRUPT:
            # Torn copy, external truncation, a pre-v2 layout, or an
            # unpicklable payload: drop the file and let the caller
            # recompute + republish.
            try:
                path.unlink()
            except OSError:
                pass
            return "corrupt", None
        try:
            # Refresh recency so ``prune --max-bytes`` evicts genuinely
            # cold artifacts (LRU), not merely old ones.
            os.utime(path)
        except OSError:
            pass
        return "hit", value

    def _decode(self, blob: bytes) -> object:
        """Parse one artifact blob; ``_CORRUPT`` on any failure."""
        try:
            if not blob.startswith(_MAGIC):
                raise ArtifactCorruptionError("bad artifact header")
            body = blob[len(_MAGIC) :]
            _stage, _, body = body.partition(b"\n")
            digest, _, payload = body.partition(b"\n")
            if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
                raise ArtifactCorruptionError("artifact checksum mismatch")
            return pickle.loads(payload)
        except Exception:
            return _CORRUPT

    def store(self, key: str, value: object, stage: str = "") -> None:
        """Publish one artifact atomically (checksummed, tmp + rename).

        ``stage`` tags the file header so ``info(verbose=True)`` can
        break the cache footprint down per stage; it never affects the
        key or the payload.
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        header = _MAGIC + stage.encode("utf-8") + b"\n" + digest + b"\n"
        self._atomic_write(self._object_path(key), header + payload)

    _atomic_write = staticmethod(atomic_write_bytes)

    # -- invalidation bookkeeping -------------------------------------

    def _latest_path(self, stage: str) -> Path:
        return self._latest / (digest_parts("latest", stage)[:32] + ".key")

    def remember(self, stage: str, key: str) -> None:
        """Record ``key`` as the stage's most recently published key."""
        self._atomic_write(
            self._latest_path(stage),
            f"{stage}\n{key}\n".encode("utf-8"),
        )

    def last_key(self, stage: str) -> str | None:
        """The stage's most recently published key, if any."""
        try:
            lines = self._latest_path(stage).read_text("utf-8").splitlines()
        except OSError:
            return None
        return lines[1] if len(lines) >= 2 else None

    # -- maintenance ---------------------------------------------------

    def _object_files(self) -> list[Path]:
        if not self._objects.is_dir():
            return []
        return [
            path
            for path in sorted(self._objects.rglob("*"))
            if path.is_file() and not path.name.startswith(".tmp-")
        ]

    @staticmethod
    def _stage_of(path: Path) -> str:
        """Read the stage name from an artifact header (cheap: one line
        past the magic, no payload read)."""
        try:
            with open(path, "rb") as handle:
                if handle.read(len(_MAGIC)) != _MAGIC:
                    return "(unknown)"
                stage = handle.readline().rstrip(b"\n").decode("utf-8")
        except (OSError, UnicodeDecodeError):
            return "(unknown)"
        return stage or "(unknown)"

    def info(self, verbose: bool = False) -> StoreInfo:
        """Entry count and on-disk footprint.

        With ``verbose=True``, also attribute entries/bytes per stage
        (read from the artifact headers) in :attr:`StoreInfo.stages`.
        """
        files = self._object_files()
        total = 0
        stages: dict[str, tuple[int, int]] | None = {} if verbose else None
        for path in files:
            try:
                size = path.stat().st_size
            except OSError:
                continue
            total += size
            if stages is not None:
                stage = self._stage_of(path)
                count, stage_bytes = stages.get(stage, (0, 0))
                stages[stage] = (count + 1, stage_bytes + size)
        return StoreInfo(
            path=str(self.root),
            entries=len(files),
            total_bytes=total,
            stages=stages,
        )

    def prune(self, max_bytes: int) -> PruneResult:
        """Evict least-recently-used artifacts until the store fits.

        Artifacts are ranked by file mtime — refreshed on every cache
        hit — and the coldest are deleted first until the remaining
        footprint is at most ``max_bytes``.  The ``latest/`` key
        pointers are left alone: a pruned artifact simply misses on the
        next run and is recomputed and republished.
        """
        if max_bytes < 0:
            raise PipelineError(f"max_bytes must be >= 0, got {max_bytes}")
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for path in self._object_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        entries.sort(key=lambda entry: entry[0])  # oldest (coldest) first
        removed = 0
        freed = 0
        for _mtime, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            freed += size
            removed += 1
        return PruneResult(
            removed=removed,
            freed_bytes=freed,
            kept_entries=len(entries) - removed,
            kept_bytes=total,
        )

    def clear(self) -> int:
        """Delete every cached artifact; returns the number removed."""
        removed = 0
        for path in self._object_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if self._latest.is_dir():
            for path in sorted(self._latest.glob("*.key")):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed
