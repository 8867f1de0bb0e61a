"""Queue executor == inline executor, byte for byte.

The distributed executor's contract mirrors the columnar one
(``tests/test_columnar_parity.py``): routing shard maps through a
filesystem spool and worker processes must not change a single
artifact byte relative to the inline executor — for every corpus
format the pipeline reads (JSONL, CSV, Parquet) — and because cache
keys ignore execution knobs entirely, a warm cache written by an
inline run satisfies a queue run without materializing a single row
(``workers=0``: nobody is serving the spool, and nobody has to).
"""

import tempfile

import pytest

from repro.bots.profiles import build_profiles
from repro.logs.io import convert_log, iter_log_records, write_jsonl
from repro.logs.parquet import HAVE_PYARROW
from repro.logs.schema import LogRecord
from repro.pipeline import PipelineConfig, RecordSource, build_study_pipeline
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

COMPARED_ARTIFACTS = (
    "preprocess",
    "per_bot",
    "per_bot_spoofed",
    "category_table",
    "skipped_checks",
    "recheck",
    "site_traffic",
)


def _corpus(count=60):
    span = _END - _START
    return [
        LogRecord(
            useragent=USER_AGENTS[i % len(USER_AGENTS)],
            timestamp=_START + (i * 13 % 10_000) / 10_000 * span,
            ip_hash=f"ip-{i % 5}",
            asn=(15169, 8075, 4837, 132203)[i % 4],
            sitename=SITES[i % len(SITES)],
            uri_path=PATHS[i % len(PATHS)],
            status_code=200,
            bytes_sent=512,
        )
        for i in range(count)
    ]


def _artifact_bytes(pipeline, name):
    """Canonical serialized bytes of one artifact (same discipline as
    ``tests/test_columnar_parity.py``: value-based, sets sorted)."""
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


def _inline_pipeline(source, **kwargs):
    return build_study_pipeline(
        source=source,
        scenario=SCENARIO,
        config=PipelineConfig(jobs=4, executor="inline"),
        **kwargs,
    )


def _queue_pipeline(source, spool, workers=2, **kwargs):
    return build_study_pipeline(
        source=source,
        scenario=SCENARIO,
        config=PipelineConfig(
            jobs=4, executor="queue", spool=str(spool), workers=workers
        ),
        **kwargs,
    )


def _assert_parity(queue_pipeline, inline_pipeline):
    for name in COMPARED_ARTIFACTS:
        assert _artifact_bytes(queue_pipeline, name) == _artifact_bytes(
            inline_pipeline, name
        ), name


def _format_source(records, tmp_path, fmt):
    """A :class:`RecordSource` over ``records`` serialized as ``fmt``."""
    jsonl = tmp_path / "log.jsonl"
    write_jsonl(records, jsonl)
    target = tmp_path / f"log.{fmt}"
    if fmt != "jsonl":
        convert_log(jsonl, target, "jsonl", fmt)
    return RecordSource.of(lambda: iter_log_records(target, fmt))


FORMATS = [
    "jsonl",
    "csv",
    pytest.param(
        "parquet",
        marks=pytest.mark.skipif(not HAVE_PYARROW, reason="pyarrow missing"),
    ),
]


class TestQueueInlineParity:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_queue_matches_inline_at_jobs_4(self, tmp_path, fmt):
        records = _corpus()
        inline = _inline_pipeline(_format_source(records, tmp_path, fmt))
        queue = _queue_pipeline(
            _format_source(records, tmp_path, fmt), tmp_path / "spool"
        )
        _assert_parity(queue, inline)

    def test_queue_matches_inline_on_empty_corpus(self, tmp_path):
        records = []
        inline = _inline_pipeline(_format_source(records, tmp_path, "jsonl"))
        queue = _queue_pipeline(
            _format_source(records, tmp_path, "jsonl"), tmp_path / "spool"
        )
        _assert_parity(queue, inline)


class TestWarmCacheNeedsNoWorkers:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_inline_warm_cache_serves_queue_run(self, tmp_path, fmt):
        """A queue run over a cache an inline run already filled does
        zero shard work: ``workers=0`` means nobody serves the spool,
        and every stage is a cache hit so nobody needs to."""
        records = _corpus()
        source = _format_source(records, tmp_path, fmt)
        with tempfile.TemporaryDirectory() as cache_dir:
            cold = _inline_pipeline(source, cache_dir=cache_dir)
            cold.run()
            assert cold.context.stats.misses > 0

            warm = _queue_pipeline(
                _format_source(records, tmp_path, fmt),
                tmp_path / "spool",
                workers=0,
                cache_dir=cache_dir,
            )
            warm.run()
            assert warm.context.stats.misses == 0
            assert warm.context.stats.hits > 0
            _assert_parity(warm, cold)
        # The spool was never touched: no tasks, no workers, no rows.
        assert not (tmp_path / "spool").exists()

    def test_queue_warm_cache_serves_queue_rerun(self, tmp_path):
        """Queue runs also *write* the shared cache: a second queue
        run (even with zero workers) is served entirely from it."""
        records = _corpus()
        with tempfile.TemporaryDirectory() as cache_dir:
            cold = _queue_pipeline(
                _format_source(records, tmp_path, "jsonl"),
                tmp_path / "spool",
                cache_dir=cache_dir,
            )
            cold.run()
            assert cold.context.stats.misses > 0

            warm = _queue_pipeline(
                _format_source(records, tmp_path, "jsonl"),
                tmp_path / "spool2",
                workers=0,
                cache_dir=cache_dir,
            )
            warm.run()
            assert warm.context.stats.misses == 0
            _assert_parity(warm, cold)
        assert not (tmp_path / "spool2").exists()
