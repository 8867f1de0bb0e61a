"""Incremental-analysis flags through the CLI: --cache-dir, --no-cache,
and the cache info/clear/prune subcommand."""

import re

import pytest

from repro import cli
from repro.cli import main
from repro.logs import io as log_io
from repro.logs.io import write_jsonl
from repro.pipeline import ArtifactStore, RecordSource
from repro.pipeline.context import SOURCE_MEMO_STAGE
from repro.reporting.study import StudyAnalysis
from repro.robots.corpus import RobotsVersion
from repro.simulation import SimulationEngine, quick_scenario


def _stats(err: str) -> tuple[int, int]:
    """(hits, misses) parsed from the CLI's cache summary line."""
    match = re.search(r"cache: (\d+) hit\(s\), (\d+) miss\(es\)", err)
    assert match, err
    return int(match.group(1)), int(match.group(2))


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    """A small simulated study written as JSONL."""
    dataset = SimulationEngine(
        scenario=quick_scenario(scale=0.05, seed=13), with_noise=False
    ).run()
    log = tmp_path_factory.mktemp("logs") / "study.jsonl"
    write_jsonl(dataset.records, log)
    return log


class TestAnalyzeCacheFlags:
    def test_second_run_serves_everything_from_cache(
        self, small_log, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        argv = [
            "analyze",
            str(small_log),
            "--cache-dir",
            str(cache),
            "--experiments",
            "T5",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        hits, misses = _stats(cold.err)
        assert hits == 0
        assert misses > 0

        assert main(argv) == 0
        warm = capsys.readouterr()
        hits, misses = _stats(warm.err)
        assert misses == 0
        assert hits > 0
        # Identical rendered output, cold or cached.
        assert warm.out == cold.out

    def test_warm_run_parses_no_row_and_loads_no_preprocess(
        self, small_log, tmp_path, capsys, monkeypatch
    ):
        argv = ["analyze", str(small_log), "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr()

        rows = []
        reader = log_io.read_jsonl

        def counting(path):
            for row in reader(path):
                rows.append(row)
                yield row

        analyses = []
        print_stats = cli._print_cache_stats

        def capture(analysis, args):
            analyses.append(analysis)
            print_stats(analysis, args)

        monkeypatch.setattr(log_io, "read_jsonl", counting)
        monkeypatch.setattr(cli, "_print_cache_stats", capture)
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert rows == []
        (analysis,) = analyses
        assert analysis.cache_stats.misses == 0
        assert "preprocess" not in analysis.cache_stats.stage_events
        assert analysis.cache_stats.stage_events["preprocess_report"] == "hit"

        def loaded(err):
            return [line for line in err.splitlines() if line.startswith("loaded ")]

        assert loaded(warm.err) == loaded(cold.err) != []
        assert warm.out == cold.out

    def test_no_cache_bypasses_reads(self, small_log, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = [
            "analyze",
            str(small_log),
            "--cache-dir",
            str(cache),
            "--experiments",
            "T5",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()

        assert main(argv + ["--no-cache"]) == 0
        refreshed = capsys.readouterr()
        hits, misses = _stats(refreshed.err)
        assert hits == 0
        assert misses > 0
        assert refreshed.out == cold.out

        # The refresh republished, so a normal run is all hits again.
        assert main(argv) == 0
        hits, misses = _stats(capsys.readouterr().err)
        assert misses == 0

    def test_without_cache_dir_no_stats_line(self, small_log, capsys):
        assert (
            main(["analyze", str(small_log), "--experiments", "T5"]) == 0
        )
        assert "cache:" not in capsys.readouterr().err


@pytest.fixture()
def rows_read(monkeypatch):
    """Every row ``read_jsonl`` yields, in order."""
    rows = []
    reader = log_io.read_jsonl

    def counting(path):
        for row in reader(path):
            rows.append(row)
            yield row

    monkeypatch.setattr(log_io, "read_jsonl", counting)
    return rows


class TestParseCounts:
    """One ``analyze`` parses each log row at most once."""

    def test_each_run_parses_each_row_once(
        self, small_log, tmp_path, capsys, rows_read
    ):
        lines = small_log.read_bytes().splitlines(keepends=True)
        cut = len(lines) * 9 // 10
        log = tmp_path / "study.jsonl"
        log.write_bytes(b"".join(lines[:cut]))
        argv = ["analyze", str(log), "--cache-dir", str(tmp_path / "c")]

        def parsed(extra=()):
            before = len(rows_read)
            assert main(argv + list(extra)) == 0
            capsys.readouterr()
            return len(rows_read) - before

        assert parsed() == cut  # cold
        assert parsed() == 0  # warm
        assert parsed(["--no-cache"]) == cut
        with open(log, "ab") as handle:
            handle.writelines(lines[cut:])
        assert parsed() == len(lines)  # after the append
        before = len(rows_read)
        assert main(["analyze", str(log), "--experiments", "T5"]) == 0
        assert len(rows_read) - before == len(lines)  # no cache at all

    def test_log_grown_after_a_memo_hit_is_one_error_line(
        self, small_log, tmp_path, capsys, monkeypatch
    ):
        log = tmp_path / "study.jsonl"
        log.write_bytes(small_log.read_bytes())
        cache = tmp_path / "c"
        argv = ["analyze", str(log), "--cache-dir", str(cache)]
        assert main(argv + ["--experiments", "T5"]) == 0
        capsys.readouterr()
        store = ArtifactStore(cache)
        for path in store._object_files():
            if store._stage_of(path) != SOURCE_MEMO_STAGE:
                path.unlink()
        tail = log.read_bytes().splitlines(keepends=True)[:5]
        reader = log_io.read_jsonl

        def growing(path):
            yield from reader(path)
            with open(path, "ab") as handle:
                handle.writelines(tail)

        monkeypatch.setattr(log_io, "read_jsonl", growing)
        assert main(argv) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [
            f"error: log file {log} changed while it was being analyzed; "
            "nothing was cached from it, rerun the command"
        ]
        assert {store._stage_of(path) for path in store._object_files()} == {
            SOURCE_MEMO_STAGE
        }

    def test_warm_facade_recomputes_slices_from_cached_preprocess(
        self, small_log, tmp_path, rows_read
    ):
        scenario = quick_scenario(scale=0.05, seed=13)

        def analysis(**options):
            return StudyAnalysis.from_source(
                RecordSource.from_file(small_log), scenario=scenario, **options
            )

        def slices(study):
            def dump(records):
                return repr([record.to_dict() for record in records])

            return {
                "overview": dump(study.overview_records),
                "base": dump(study.phase_records(RobotsVersion.BASE)),
                "directives": {
                    directive: dump(records)
                    for directive, records in study.directive_records.items()
                },
                "passive": dump(study.passive_site_records),
            }

        cold = slices(analysis())
        assert cold["overview"] != "[]" and cold["passive"] != "[]"
        analysis(cache_dir=tmp_path).run_all()
        before = len(rows_read)
        warm = analysis(cache_dir=tmp_path)
        assert slices(warm) == cold
        assert len(rows_read) == before
        assert warm.cache_stats.stage_events == {"preprocess": "hit"}


class TestCacheSubcommand:
    def test_info_and_clear(self, small_log, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert (
            main(
                [
                    "analyze",
                    str(small_log),
                    "--cache-dir",
                    str(cache),
                    "--experiments",
                    "T5",
                ]
            )
            == 0
        )
        capsys.readouterr()

        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        entries = int(re.search(r"entries: (\d+)", out).group(1))
        total = int(
            re.search(r"bytes: ([\d,]+)", out).group(1).replace(",", "")
        )
        assert entries > 0
        assert total > 0

        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert f"removed {entries} artifact(s)" in capsys.readouterr().out

        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def _warm_cache(self, small_log, cache, capsys):
        assert (
            main(
                [
                    "analyze",
                    str(small_log),
                    "--cache-dir",
                    str(cache),
                    "--experiments",
                    "T5",
                ]
            )
            == 0
        )
        capsys.readouterr()

    def test_info_verbose_breaks_bytes_down_per_stage(
        self, small_log, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        self._warm_cache(small_log, cache, capsys)
        assert (
            main(["cache", "info", "--cache-dir", str(cache), "--verbose"])
            == 0
        )
        out = capsys.readouterr().out
        assert "stages:" in out
        stage_lines = re.findall(r"^  (\S+): (\d+) entries, ([\d,]+) bytes$",
                                 out, re.MULTILINE)
        assert stage_lines
        stages = {name for name, _, _ in stage_lines}
        assert "preprocess" in stages
        assert "source-fingerprint" in stages  # the log's fingerprint memo
        total = int(re.search(r"bytes: ([\d,]+)", out).group(1).replace(",", ""))
        attributed = sum(
            int(size.replace(",", "")) for _, _, size in stage_lines
        )
        assert attributed == total

    def test_prune_requires_max_bytes(self, tmp_path, capsys):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_prune_evicts_down_to_budget(self, small_log, tmp_path, capsys):
        cache = tmp_path / "cache"
        self._warm_cache(small_log, cache, capsys)
        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        entries = int(re.search(r"entries: (\d+)", out).group(1))
        total = int(re.search(r"bytes: ([\d,]+)", out).group(1).replace(",", ""))
        assert entries > 1

        budget = total // 2
        assert (
            main(
                [
                    "cache",
                    "prune",
                    "--cache-dir",
                    str(cache),
                    "--max-bytes",
                    str(budget),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        match = re.search(
            r"pruned (\d+) artifact\(s\), freed ([\d,]+) bytes; "
            r"(\d+) entries / ([\d,]+) bytes remain",
            out,
        )
        assert match, out
        pruned = int(match.group(1))
        kept_entries = int(match.group(3))
        kept_bytes = int(match.group(4).replace(",", ""))
        assert pruned > 0
        assert pruned + kept_entries == entries
        assert kept_bytes <= budget

        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        assert f"entries: {kept_entries}" in capsys.readouterr().out

    def test_prune_to_zero_then_analyze_recomputes(
        self, small_log, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        self._warm_cache(small_log, cache, capsys)
        assert (
            main(
                [
                    "cache",
                    "prune",
                    "--cache-dir",
                    str(cache),
                    "--max-bytes",
                    "0",
                ]
            )
            == 0
        )
        capsys.readouterr()
        # The fingerprint memo is evicted with everything else.
        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        assert "entries: 0" in capsys.readouterr().out
        # Everything misses, recomputes, and republishes.
        argv = [
            "analyze",
            str(small_log),
            "--cache-dir",
            str(cache),
            "--experiments",
            "T5",
        ]
        assert main(argv) == 0
        hits, misses = _stats(capsys.readouterr().err)
        assert hits == 0
        assert misses > 0
        assert main(argv) == 0
        hits, misses = _stats(capsys.readouterr().err)
        assert misses == 0
