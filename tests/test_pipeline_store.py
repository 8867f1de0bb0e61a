"""Incremental-pipeline guarantees: the artifact store's parity tests.

Mirrors the shard-parity suite: the cache's headline guarantee is that
**cached results are byte-identical to cold results**, and that an
append-only mutation of the corpus **reruns exactly the stages
downstream of the affected shard** — unaffected shards' worker outputs
load from disk, which the hit/miss stats make observable.  Property
tests drive both over randomized datasets; deterministic tests cover
the store's failure modes (corrupted/truncated artifact files, read
bypass, concurrent runs sharing one cache directory).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bots.profiles import build_profiles
from repro.exceptions import PipelineError
from repro.logs import io as log_io
from repro.logs.columnar import RecordBatch, RecordList
from repro.logs.io import iter_log_records, write_log
from repro.logs.schema import LogRecord
from repro.pipeline import (
    ArtifactStore,
    PipelineConfig,
    RecordSource,
    build_study_pipeline,
)
from repro.pipeline.shard import shard_index
from repro.pipeline.store import fingerprint_batch, fingerprint_rows, stable_token
from repro.simulation import quick_scenario

SCENARIO = quick_scenario(scale=0.1, seed=11)

SITES = tuple(
    dict.fromkeys(
        [SCENARIO.experiment_site]
        + list(SCENARIO.passive_sites)[:3]
        + ["cs.university41.edu"]
    )
)

_PROFILES = build_profiles()
USER_AGENTS = tuple(
    [profile.user_agent for profile in _PROFILES[:8]]
    + ["Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101 Firefox/115.0"]
)

PATHS = (
    "/",
    "/robots.txt",
    "/page-data/chunk-1",
    "/people/faculty",
    "/wp-admin/setup.php",  # scanner-looking
    "/.env",  # scanner-looking
)

_START = min(phase.start for phase in SCENARIO.phases)
_END = SCENARIO.overview_end

#: Shard count used throughout; small enough that hypothesis routinely
#: produces both hit and miss shards.
JOBS = 3

#: Stages the study pipeline caches (everything except the partition
#: and the record slices, which recompute from ``preprocess``).
CACHEABLE_STAGES = frozenset(
    {
        "preprocess",
        "preprocess_report",
        "spoof_findings",
        "per_bot",
        "per_bot_spoofed",
        "category_table",
        "skipped_checks",
        "recheck",
        "site_traffic",
        "overview_tables",
        "phase_tables",
    }
)

#: Artifacts compared byte-for-byte between cached and cold runs.
COMPARED_ARTIFACTS = (
    "preprocess",
    "per_bot",
    "per_bot_spoofed",
    "category_table",
    "skipped_checks",
    "recheck",
    "site_traffic",
)


def _record(draw_tuple) -> LogRecord:
    site, ua, ip, asn, path, tick = draw_tuple
    span = _END - _START
    return LogRecord(
        useragent=ua,
        timestamp=_START + (tick % 10_000) / 10_000 * span,
        ip_hash=ip,
        asn=asn,
        sitename=site,
        uri_path=path,
        status_code=200,
        bytes_sent=512,
    )


record_strategy = st.tuples(
    st.sampled_from(SITES),
    st.sampled_from(USER_AGENTS),
    st.sampled_from([f"ip-{i}" for i in range(6)]),
    st.sampled_from([15169, 8075, 4837, 132203]),
    st.sampled_from(PATHS),
    st.integers(min_value=0, max_value=9_999),
).map(_record)


def _copy(records):
    """Fresh record objects, so in-place enrichment cannot leak state
    between the pipelines under comparison."""
    return [pickle.loads(pickle.dumps(record)) for record in records]


def _sharded(records, cache_dir, **kwargs):
    return build_study_pipeline(
        source=_copy(records),
        scenario=SCENARIO,
        config=PipelineConfig(jobs=JOBS, executor="inline"),
        cache_dir=cache_dir,
        **kwargs,
    )


def _artifact_bytes(pipeline, name):
    """Canonical serialized bytes of one artifact.

    Value-based (``to_dict``/``repr``), deliberately not ``pickle`` —
    pickle memoizes shared object identities, so two structurally
    identical artifacts can pickle differently depending on whether
    their strings were interned together.  Sets are sorted so the
    canonical form is iteration-order independent.
    """
    value = pipeline.get(name)
    if name == "preprocess":
        records, report = value
        return repr(
            (
                [record.to_dict() for record in records],
                sorted(report.scanner_ips),
                report.input_records,
                report.scanner_records,
                report.identified_bots,
                report.unique_asns,
                report.whois_misses,
            )
        ).encode("utf-8")
    return repr(value).encode("utf-8")


# -- fingerprints ---------------------------------------------------------


class TestFingerprints:
    def test_fingerprint_ignores_enrichment_columns(self):
        record = _record((SITES[0], USER_AGENTS[0], "ip-1", 15169, "/", 5))

        def keys():
            return (
                RecordSource.of([record]).fingerprint(),
                fingerprint_batch(RecordBatch.from_records([record])),
            )

        before = keys()
        record.bot_name = "GPTBot"
        record.asn_name = "GOOGLE"
        assert keys() == before
        record.uri_path = "/changed"
        changed = keys()
        assert changed[0] != before[0] and changed[1] != before[1]

    def test_stable_token_rejects_address_reprs(self):
        class Opaque:
            pass

        with pytest.raises(PipelineError):
            stable_token({"thing": Opaque()})

    def test_stable_token_handles_containers(self):
        token = stable_token({"a": [1, 2.5], "b": ("x", None), "c": {True}})
        assert token == stable_token({"a": [1, 2.5], "b": ("x", None), "c": {True}})
        assert token != stable_token({"a": [1, 2.5], "b": ("x", None), "c": {False}})


# -- the store itself -----------------------------------------------------


class TestArtifactStore:
    def test_roundtrip_and_info(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load("ab" * 32) == ("miss", None)
        store.store("ab" * 32, {"rows": [1, 2, 3]})
        status, value = store.load("ab" * 32)
        assert status == "hit"
        assert value == {"rows": [1, 2, 3]}
        details = store.info()
        assert details.entries == 1
        assert details.total_bytes > 0
        assert store.clear() == 1
        assert store.info().entries == 0
        assert store.load("ab" * 32) == ("miss", None)

    def test_last_key_tracking(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.last_key("per_bot") is None
        store.remember("per_bot", "k1")
        assert store.last_key("per_bot") == "k1"
        store.remember("per_bot", "k2")
        assert store.last_key("per_bot") == "k2"

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda blob: blob[:-7], id="truncated-payload"),
            # The header stays intact; the checksum no longer matches.
            pytest.param(lambda blob: blob + b"x", id="appended-bytes"),
        ],
    )
    def test_corrupted_artifact_is_discarded(self, tmp_path, damage):
        store = ArtifactStore(tmp_path)
        key = "cd" * 32
        store.store(key, [1, 2, 3])
        path = store._object_path(key)
        path.write_bytes(damage(path.read_bytes()))
        status, value = store.load(key)
        assert status == "corrupt"
        assert value is None
        assert not path.exists()  # dropped, next publish replaces it
        store.store(key, [1, 2, 3])
        assert store.load(key) == ("hit", [1, 2, 3])

    def test_garbage_artifact_is_discarded(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ef" * 32
        store.store(key, "value")
        store._object_path(key).write_bytes(b"not an artifact at all")
        assert store.load(key) == ("corrupt", None)

    def test_read_disabled_always_misses(self, tmp_path):
        writer = ArtifactStore(tmp_path)
        writer.store("aa" * 32, "cached")
        refresher = ArtifactStore(tmp_path, read=False)
        assert refresher.load("aa" * 32) == ("miss", None)
        refresher.store("aa" * 32, "republished")
        # Publishes still land: a normal reader sees the refresh.
        assert writer.load("aa" * 32) == ("hit", "republished")


# -- cached == cold, property-tested -------------------------------------


@settings(max_examples=12, deadline=None)
@given(st.lists(record_strategy, min_size=0, max_size=120))
def test_cached_equals_cold_byte_identical(records):
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = build_study_pipeline(
            source=_copy(records),
            scenario=SCENARIO,
            config=PipelineConfig(jobs=1),
        )
        cold.run()

        writer = _sharded(records, cache_dir)
        writer.run()
        assert writer.context.stats.hits == 0
        assert writer.context.stats.published > 0

        warm = _sharded(records, cache_dir)
        warm.run()
        stats = warm.context.stats
        assert stats.misses == 0, stats.stage_events
        assert stats.hits == len(CACHEABLE_STAGES)
        assert set(stats.stage_events) == CACHEABLE_STAGES
        for name in COMPARED_ARTIFACTS:
            assert _artifact_bytes(warm, name) == _artifact_bytes(cold, name), name


@settings(max_examples=10, deadline=None)
@given(
    st.lists(record_strategy, min_size=1, max_size=100),
    st.lists(record_strategy, min_size=0, max_size=20),
)
def test_append_reruns_only_downstream_of_affected_shards(base, extra):
    """Appending records reruns exactly the affected shards' workers
    plus the stages downstream of them; everything else is a hit."""
    with tempfile.TemporaryDirectory() as cache_dir:
        first = _sharded(base, cache_dir)
        first.run()

        appended = _sharded(base + extra, cache_dir)
        appended.run()
        stats = appended.context.stats

        affected = {
            shard_index(record.sitename, JOBS) for record in extra
        }
        untouched = set(range(JOBS)) - affected
        if not extra:
            # Nothing changed: every stage is a pure hit and no shard
            # worker even runs.
            assert stats.misses == 0, stats.stage_events
            assert stats.hits == len(CACHEABLE_STAGES)
            return
        # The affected shards' workers rerun; unaffected shards load.
        assert set(stats.shard_misses["preprocess"]) == affected
        assert set(stats.shard_hits["preprocess"]) == untouched
        # Every cacheable stage sits downstream of ingestion, so the
        # changed source invalidates all of them — stale entries are
        # detected as invalidations, not plain misses.
        assert set(stats.stage_events) == CACHEABLE_STAGES
        assert all(
            event in ("miss", "invalidated")
            for event in stats.stage_events.values()
        ), stats.stage_events
        assert stats.invalidations > 0

        # And the incremental result matches a cold run bit for bit.
        cold = build_study_pipeline(
            source=_copy(base + extra),
            scenario=SCENARIO,
            config=PipelineConfig(jobs=1),
        )
        cold.run()
        for name in COMPARED_ARTIFACTS:
            assert _artifact_bytes(appended, name) == _artifact_bytes(cold, name)


# -- failure modes --------------------------------------------------------


def _seed_records(count=60):
    return [
        _record(
            (
                SITES[index % len(SITES)],
                USER_AGENTS[index % len(USER_AGENTS)],
                f"ip-{index % 6}",
                15169,
                PATHS[index % len(PATHS)],
                index * 37,
            )
        )
        for index in range(count)
    ]


class TestStoreFailureModes:
    def test_corrupted_artifacts_fall_back_to_recompute(self, tmp_path):
        records = _seed_records()
        reference = _sharded(records, tmp_path)
        reference.run()
        expected = {
            name: _artifact_bytes(reference, name)
            for name in COMPARED_ARTIFACTS
        }
        # Corrupt every cached artifact file in place.
        store = ArtifactStore(tmp_path)
        files = store._object_files()
        assert files
        for path in files:
            path.write_bytes(b"\x00garbage\x00" + path.read_bytes()[:16])

        recovered = _sharded(records, tmp_path)
        recovered.run()
        stats = recovered.context.stats
        assert stats.hits == 0
        assert stats.corrupt > 0
        for name in COMPARED_ARTIFACTS:
            assert _artifact_bytes(recovered, name) == expected[name]

        # The corrupted files were replaced by the recompute: a third
        # run is all hits again.
        healed = _sharded(records, tmp_path)
        healed.run()
        assert healed.context.stats.misses == 0

    def test_no_cache_bypasses_reads_but_still_publishes(self, tmp_path):
        records = _seed_records()
        _sharded(records, tmp_path).run()
        before = ArtifactStore(tmp_path).info()

        refresh = _sharded(records, tmp_path, no_cache=True)
        refresh.run()
        stats = refresh.context.stats
        assert stats.hits == 0
        assert stats.misses == len(CACHEABLE_STAGES)
        assert stats.published > 0

        after = ArtifactStore(tmp_path).info()
        # Same keys republished: no new entries, nothing lost.
        assert after.entries == before.entries
        warm = _sharded(records, tmp_path)
        warm.run()
        assert warm.context.stats.misses == 0

    def test_concurrent_runs_share_one_cache_dir(self, tmp_path):
        records = _seed_records(80)

        def run_one(_):
            pipeline = _sharded(records, tmp_path)
            pipeline.run()
            return {
                name: _artifact_bytes(pipeline, name)
                for name in COMPARED_ARTIFACTS
            }

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run_one, range(4)))
        for other in results[1:]:
            assert other == results[0]

        # Every published file survived the racing writers intact.
        store = ArtifactStore(tmp_path)
        files = store._object_files()
        assert files
        for path in files:
            key = path.name
            status, _value = store.load(key)
            assert status == "hit", key
        # No stray temp files were left behind.
        assert not list(Path(tmp_path).rglob(".tmp-*"))

        warm = _sharded(records, tmp_path)
        warm.run()
        assert warm.context.stats.misses == 0


# -- the file source's key ------------------------------------------------


@pytest.fixture()
def rows_read(monkeypatch):
    """Rows the JSONL and CLF readers yield, counted at the io dispatch."""
    counts = {"rows": 0}

    def counted(reader):
        def spy(*args, **kwargs):
            for row in reader(*args, **kwargs):
                counts["rows"] += 1
                yield row

        return spy

    for name in ("read_jsonl", "read_clf"):
        monkeypatch.setattr(log_io, name, counted(getattr(log_io, name)))
    return counts


def _analyzed(path, cache, counts, fmt="jsonl", sitename="", asn=0, **options):
    """(source key, input record count, rows parsed) of one cached
    ``preprocess_report`` run over a fresh file source."""
    before = counts["rows"]
    source = RecordSource.from_file(path, fmt, sitename, asn)
    pipeline = build_study_pipeline(
        source=source, scenario=SCENARIO, cache_dir=cache, **options
    )
    report = pipeline.get("preprocess_report")
    return source.fingerprint(), report.input_records, counts["rows"] - before


def _stage_files(cache, stage):
    store = ArtifactStore(cache)
    return [
        path for path in store._object_files() if store._stage_of(path) == stage
    ]


class TestSourceFingerprintMemo:
    """A file source keys on its raw bytes; the "memo" is the stage
    artifacts cached under that key."""

    @pytest.fixture()
    def log(self, tmp_path):
        path = tmp_path / "study.jsonl"
        write_log(_seed_records(40), path, "jsonl")
        return path

    def test_unchanged_file_is_served_without_parsing(
        self, log, tmp_path, rows_read
    ):
        cache = tmp_path / "cache"
        first = _analyzed(log, cache, rows_read)
        assert first[1:] == (40, 40)
        before = rows_read["rows"]
        RecordSource.from_file(log).fingerprint()
        assert rows_read["rows"] == before  # the key hashes, never parses
        os.utime(log)  # touch: new mtime, same bytes
        again = _analyzed(log, cache, rows_read)
        assert again == (first[0], 40, 0)

    def test_same_size_edit_with_restored_mtime_misses(
        self, log, tmp_path, rows_read
    ):
        cache = tmp_path / "cache"
        before, _, _ = _analyzed(log, cache, rows_read)
        stat = log.stat()
        text = log.read_text("utf-8")
        edited = text.replace("/people/faculty", "/people/facultY", 1)
        assert edited != text and len(edited) == len(text)
        log.write_text(edited, "utf-8")
        os.utime(log, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert log.stat().st_size == stat.st_size
        assert log.stat().st_mtime_ns == stat.st_mtime_ns
        after, records, parsed = _analyzed(log, cache, rows_read)
        assert parsed == records == 40
        assert after != before

    @pytest.mark.parametrize("change", ["truncate", "append"])
    def test_truncate_and_append_miss(self, log, tmp_path, rows_read, change):
        cache = tmp_path / "cache"
        before, _, _ = _analyzed(log, cache, rows_read)
        lines = log.read_text("utf-8").splitlines(keepends=True)
        if change == "truncate":
            log.write_text("".join(lines[:-5]), "utf-8")
        else:
            with open(log, "a", encoding="utf-8") as handle:
                handle.writelines(lines[:5])
        after, records, parsed = _analyzed(log, cache, rows_read)
        assert parsed == records == (35 if change == "truncate" else 45)
        assert after != before
        # The new bytes got their own artifacts.
        assert _analyzed(log, cache, rows_read)[2] == 0

    def test_clf_site_and_asn_key_the_memo(self, tmp_path, rows_read):
        log = tmp_path / "access.log"
        write_log(_seed_records(40), log, "clf")
        cache = tmp_path / "cache"
        first, _, parsed = _analyzed(log, cache, rows_read, "clf", "a.example", 1)
        assert parsed > 0
        for sitename, asn in (("b.example", 1), ("a.example", 2)):
            other, _, parsed = _analyzed(log, cache, rows_read, "clf", sitename, asn)
            assert parsed > 0
            assert other != first
        again, _, parsed = _analyzed(log, cache, rows_read, "clf", "a.example", 1)
        assert (again, parsed) == (first, 0)

    def test_corrupted_memo_is_recomputed(self, log, tmp_path, rows_read):
        cache = tmp_path / "cache"
        first = _analyzed(log, cache, rows_read)
        for stage in ("preprocess", "preprocess_report"):
            (path,) = _stage_files(cache, stage)
            path.write_bytes(path.read_bytes()[:-5])
        assert _analyzed(log, cache, rows_read) == (first[0], 40, 40)
        assert _analyzed(log, cache, rows_read)[2] == 0  # republished

    def test_no_cache_never_reads_the_memo_but_publishes_it(
        self, log, tmp_path, rows_read
    ):
        cache = tmp_path / "cache"
        for _ in range(2):
            key, _, parsed = _analyzed(log, cache, rows_read, no_cache=True)
            assert parsed == 40
        assert _analyzed(log, cache, rows_read) == (key, 40, 0)

    def test_file_changed_mid_parse_publishes_no_memo(
        self, log, tmp_path, rows_read, monkeypatch
    ):
        tail = log.read_text("utf-8").splitlines(keepends=True)[:3]
        reader = log_io.read_jsonl

        def appending(path):
            for index, row in enumerate(reader(path)):
                if index == 0:
                    with open(path, "a", encoding="utf-8") as handle:
                        handle.writelines(tail)
                yield row

        monkeypatch.setattr(log_io, "read_jsonl", appending)
        cache = tmp_path / "cache"
        with pytest.raises(PipelineError, match="changed while"):
            _analyzed(log, cache, rows_read)
        assert ArtifactStore(cache)._object_files() == []
        monkeypatch.setattr(log_io, "read_jsonl", reader)
        assert _analyzed(log, cache, rows_read)[1:] == (43, 43)

    def test_log_grown_after_the_first_parse_is_analyzed_as_parsed(
        self, log, tmp_path, rows_read
    ):
        """Rows appended once the run's one parse has finished reach no
        stage, and every artifact the run publishes is keyed by the
        bytes that parse read."""
        original = tmp_path / "original.jsonl"
        original.write_bytes(log.read_bytes())
        pipeline = build_study_pipeline(
            source=RecordSource.from_file(log),
            scenario=SCENARIO,
            cache_dir=tmp_path / "c",
        )
        pipeline.get("preprocess")
        with open(log, "a", encoding="utf-8") as handle:
            handle.writelines(log.read_text("utf-8").splitlines(True)[:7])
        pipeline.run()
        assert pipeline.get("preprocess_report").input_records == 40

        before = rows_read["rows"]
        same_bytes = build_study_pipeline(
            source=RecordSource.from_file(original),
            scenario=SCENARIO,
            cache_dir=tmp_path / "c",
        )
        same_bytes.run(["category_table", "preprocess_report"])
        assert same_bytes.context.stats.misses == 0
        assert rows_read["rows"] == before
        cold = build_study_pipeline(
            source=RecordSource.from_file(original), scenario=SCENARIO
        )
        for name in COMPARED_ARTIFACTS:
            assert _artifact_bytes(pipeline, name) == _artifact_bytes(
                cold, name
            ), name

    def test_rows_parsed_before_the_memo_lookup_publish_no_memo(
        self, log, tmp_path, rows_read
    ):
        """Rows parsed before the key was asked for key on their own
        digest, not on bytes the file may have gained since."""
        source = RecordSource.from_file(log)
        rows = source.rows()
        tail = log.read_text("utf-8").splitlines(keepends=True)[:3]
        with open(log, "a", encoding="utf-8") as handle:
            handle.writelines(tail)
        assert source.fingerprint() == fingerprint_rows(rows)
        grown = RecordSource.from_file(log).fingerprint()
        assert source.fingerprint() != grown
        pipeline = build_study_pipeline(
            source=source, scenario=SCENARIO, cache_dir=tmp_path / "c"
        )
        assert pipeline.get("preprocess_report").input_records == 40
        # The file's own key was never published under.
        assert _analyzed(log, tmp_path / "c", rows_read)[1:] == (43, 43)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_log_grown_after_a_memo_hit_publishes_nothing(
        self, log, tmp_path, monkeypatch, jobs
    ):
        """The run keys on the bytes hashed before its parse; a log that
        grows during the parse raises and publishes nothing."""

        def pipeline():
            return build_study_pipeline(
                source=RecordSource.from_file(log),
                scenario=SCENARIO,
                config=PipelineConfig(jobs=jobs, executor="inline"),
                cache_dir=tmp_path / "c",
            )

        pipeline().get("preprocess")
        (pruned,) = _stage_files(tmp_path / "c", "preprocess")
        pruned.unlink()
        tail = log.read_text("utf-8").splitlines(keepends=True)[:7]
        reader = log_io.read_jsonl

        def growing(path):
            yield from reader(path)
            with open(path, "a", encoding="utf-8") as handle:
                handle.writelines(tail)

        monkeypatch.setattr(log_io, "read_jsonl", growing)
        grown = pipeline()
        with pytest.raises(PipelineError, match="changed while"):
            grown.get("preprocess")
        assert _stage_files(tmp_path / "c", "preprocess") == []
        assert grown.context.stats.published == 0
        # The grown file hashes differently, so a rerun misses and
        # analyzes every row it parses.
        monkeypatch.setattr(log_io, "read_jsonl", reader)
        rerun = pipeline()
        records, report = rerun.get("preprocess")
        assert report.input_records == 47

    def test_memo_feeds_the_same_stage_keys(self, log, tmp_path, rows_read):
        """Stage keys follow the file's bytes, not its path: a copy of an
        analyzed log is a warm run that parses no row.  A list of the
        same rows keys on its own digest and misses."""

        def pipeline(source):
            return build_study_pipeline(
                source=source, scenario=SCENARIO, cache_dir=tmp_path / "c"
            )

        cold = pipeline(RecordSource.from_file(log))
        cold.run(["category_table", "preprocess_report"])
        copy = tmp_path / "copy.jsonl"
        copy.write_bytes(log.read_bytes())
        before = rows_read["rows"]
        warm = pipeline(RecordSource.from_file(copy))
        warm.run(["category_table", "preprocess_report"])
        assert rows_read["rows"] == before
        assert warm.context.stats.misses == 0
        assert "preprocess" not in warm.context.stats.stage_events
        listed = pipeline(list(iter_log_records(log)))
        listed.run(["category_table"])
        assert listed.context.stats.hits == 0


class TestPreprocessArtifactFormat:
    """``preprocess`` records pickle as a :class:`RecordList`; a cache
    filled before that stored a plain pickled ``list[LogRecord]``,
    which must still be served as a hit."""

    def _pipeline(self, records, cache_dir):
        return build_study_pipeline(
            source=_copy(records), scenario=SCENARIO, cache_dir=cache_dir
        )

    def test_plain_pickled_list_is_still_a_hit(self, tmp_path):
        records = _seed_records()
        cold = self._pipeline(records, tmp_path)
        expected = _artifact_bytes(cold, "preprocess")
        store = ArtifactStore(tmp_path)
        (path,) = [
            path
            for path in store._object_files()
            if store._stage_of(path) == "preprocess"
        ]
        status, (packed, report) = store.load(path.name)
        assert status == "hit"
        assert type(packed) is RecordList
        assert b"_unpack_records" in path.read_bytes()

        store.store(path.name, (list(packed), report), stage="preprocess")
        assert b"_unpack_records" not in path.read_bytes()
        warm = self._pipeline(records, tmp_path)
        assert _artifact_bytes(warm, "preprocess") == expected
        assert warm.get("preprocess")[0] == packed
        assert warm.context.stats.stage_events["preprocess"] == "hit"
        assert warm.context.stats.corrupt == 0


# -- integration touchpoints ---------------------------------------------


class TestIntegration:
    def test_study_analysis_cache_roundtrip(self, quick_dataset, tmp_path):
        from repro.reporting.study import StudyAnalysis

        first = StudyAnalysis(quick_dataset, cache_dir=tmp_path)
        table_cold = first.category_table
        report_cold = first.preprocess_report
        assert first.cache_stats.published > 0

        second = StudyAnalysis(quick_dataset, cache_dir=tmp_path)
        assert second.cache_stats.stage_events == {}  # construction is lazy
        assert second.category_table.cells == table_cold.cells
        # The record count comes from its own small artifact.
        assert second.preprocess_report == report_cold
        assert "preprocess" not in second.cache_stats.stage_events
        assert len(second.records) == len(first.records)
        assert second.cache_stats.stage_events["preprocess"] == "hit"
        assert second.cache_stats.misses == 0

    def test_run_all_rides_the_cache(self, quick_dataset, tmp_path):
        from repro.reporting.study import StudyAnalysis

        first = StudyAnalysis(quick_dataset, cache_dir=tmp_path)
        results = first.run_all(["T5"])
        second = StudyAnalysis(quick_dataset, cache_dir=tmp_path)
        again = second.run_all(["T5"])
        assert results["T5"].rendered == again["T5"].rendered
        assert second.cache_stats.misses == 0
