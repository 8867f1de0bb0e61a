"""Unit tests for the repro-study CLI."""

import pytest

from repro.cli import main


class TestVersionsCommand:
    def test_prints_four_versions(self, capsys):
        assert main(["versions"]) == 0
        out = capsys.readouterr().out
        assert "# base" in out
        assert "# v1: crawl delay" in out
        assert "Crawl-delay: 30" in out
        assert "# v3: disallow all" in out


class TestRobotsCommand:
    def test_validate_and_query(self, tmp_path, capsys):
        robots = tmp_path / "robots.txt"
        robots.write_text(
            "User-agent: *\nDisallow: /private\nCrawl-delay: 10\n"
        )
        code = main(
            [
                "robots",
                str(robots),
                "--agent",
                "GPTBot",
                "--path",
                "/private/x",
                "--path",
                "/public",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no validator findings" in out
        assert "crawl delay for 'GPTBot': 10s" in out
        assert "DENY  /private/x" in out
        assert "ALLOW /public" in out

    def test_findings_printed(self, tmp_path, capsys):
        robots = tmp_path / "robots.txt"
        robots.write_text("Disallow: /early\nUser-agent: *\n")
        main(["robots", str(robots)])
        out = capsys.readouterr().out
        assert "rule-no-group" in out


class TestSimulateAnalyzeRoundTrip:
    @pytest.mark.slow
    def test_simulate_then_analyze(self, tmp_path, capsys):
        log = tmp_path / "study.jsonl"
        assert (
            main(
                [
                    "simulate",
                    "--scale",
                    "0.01",
                    "--seed",
                    "3",
                    "--output",
                    str(log),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrote" in out
        assert log.exists()

        assert (
            main(["analyze", str(log), "--seed", "3", "--experiments", "T4"])
            == 0
        )
        out = capsys.readouterr().out
        assert "Table 4" in out

    def test_simulate_csv_format(self, tmp_path, capsys):
        log = tmp_path / "study.csv"
        main(
            [
                "simulate",
                "--scale",
                "0.002",
                "--no-noise",
                "--output",
                str(log),
                "--format",
                "csv",
            ]
        )
        header = log.read_text().splitlines()[0]
        assert header.startswith("useragent,timestamp,ip_hash")


class TestExperimentIds:
    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_unknown_id_exits_2_before_reading_the_log(
        self, tmp_path, capsys, command
    ):
        # The log does not exist: reaching the reader would raise
        # FileNotFoundError instead of the argparse usage error.
        args = [str(tmp_path / "missing.jsonl")] if command == "analyze" else []
        with pytest.raises(SystemExit) as excinfo:
            main([command, *args, "--experiments", "T5", "T99"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'T99'" in capsys.readouterr().err

    def test_ids_are_case_insensitive(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["analyze", "log.jsonl", "--experiments", "t5", "f10"]
        )
        assert args.experiments == ["T5", "F10"]


class TestCountAndChoiceValidation:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "LOG", "--jobs", "0"], "--jobs: must be >= 1, got 0"),
            (["scenarios", "run", "--jobs", "0"], "--jobs: must be >= 1, got 0"),
            (["scenarios", "run", "--jobs", "-3"], "--jobs: must be >= 1, got -3"),
            (
                ["scenarios", "run", "--executor", "queue", "--spool", "D"]
                + ["--workers", "-1"],
                "--workers: must be >= 0, got -1",
            ),
            (["scenarios", "run", "--workers", "-1"], "--workers: must be >= 0"),
            (["analyze", "LOG", "--jobs", "two"], "invalid int value: 'two'"),
            (["analyze", "LOG", "--executor", "thread"], "invalid choice: 'thread'"),
            (["scenarios", "run", "--executor", "thread"], "invalid choice"),
            (["serve", "--asgi"], "unrecognized arguments: --asgi"),
            # Shards always hash sitename; the shard-key option is gone.
            (
                ["analyze", "LOG", "--shard-by", "site"],
                "unrecognized arguments: --shard-by site",
            ),
            (["report", "--shard-by", "ip"], "unrecognized arguments: --shard-by ip"),
            # analyze runs on one host: no remote store, spool or queue.
            (
                ["analyze", "LOG", "--remote-store", "D"],
                "unrecognized arguments: --remote-store D",
            ),
            (["analyze", "LOG", "--spool", "D"], "unrecognized arguments: --spool D"),
            (
                ["analyze", "LOG", "--workers", "0"],
                "unrecognized arguments: --workers 0",
            ),
            (["analyze", "LOG", "--executor", "queue"], "invalid choice: 'queue'"),
            (["report", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
            # A scale must be positive; the simulator would raise on it.
            (["simulate", "--scale", "0", "--output", "X"], "--scale: must be > 0"),
            (["report", "--scale", "-0.5"], "--scale: must be > 0, got -0.5"),
            (["scorecard", "GPTBot", "--scale", "0"], "--scale: must be > 0"),
            (["serve", "--port", "99999"], "--port: must be <= 65535, got 99999"),
            (["serve", "--port", "-1"], "--port: must be >= 0, got -1"),
            (
                ["cache", "prune", "--cache-dir", "D", "--max-bytes", "-5"],
                "--max-bytes: must be >= 0, got -5",
            ),
        ],
    )
    def test_bad_count_exits_2_with_usage(self, tmp_path, capsys, argv, message):
        # The log does not exist: only argparse may reject these.
        argv = [str(tmp_path / "missing.jsonl") if a == "LOG" else a for a in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro-study")
        assert message in err
        assert "Traceback" not in err

    def test_zero_workers_is_accepted(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["scenarios", "run", "--jobs", "2", "--workers", "0"]
        )
        assert (args.jobs, args.workers) == (2, 0)

    def test_queue_without_spool_is_a_usage_error(self, capsys):
        argv = ["scenarios", "run", "--grid", "quick", "--executor", "queue"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: --executor queue requires --spool DIR\n"

    def test_choices_come_from_the_pipeline_config(self):
        from repro.cli import build_parser
        from repro.pipeline.context import EXECUTOR_CHOICES

        assert EXECUTOR_CHOICES == ("process", "inline", "queue")
        subparsers = build_parser()._subparsers._group_actions[0].choices
        options = {
            (command, action.dest): tuple(action.choices)
            for command, parser in subparsers.items()
            for action in parser._actions
            if action.dest == "executor"
        }
        assert options == {
            ("analyze", "executor"): ("process", "inline"),
            ("scenarios", "executor"): EXECUTOR_CHOICES,
        }


class TestReportCommand:
    def test_report_selected_experiment(self, capsys):
        assert main(["report", "--scale", "0.005", "--experiments", "T2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out


class TestConvertCommand:
    def _simulate(self, tmp_path) -> str:
        log = tmp_path / "study.jsonl"
        assert (
            main(
                [
                    "simulate",
                    "--scale",
                    "0.002",
                    "--no-noise",
                    "--output",
                    str(log),
                ]
            )
            == 0
        )
        return str(log)

    def test_jsonl_to_csv_and_back(self, tmp_path, capsys):
        from repro.logs.io import read_csv, read_jsonl

        log = self._simulate(tmp_path)
        capsys.readouterr()
        csv_path = tmp_path / "study.csv"
        assert (
            main(
                ["convert", log, str(csv_path), "--from", "jsonl", "--to", "csv"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "converted" in out
        assert "(jsonl)" in out and "(csv)" in out
        assert list(read_csv(csv_path)) == list(read_jsonl(log))

    def test_parquet_target_without_pyarrow_fails_cleanly(
        self, tmp_path, capsys
    ):
        from repro.logs.parquet import HAVE_PYARROW

        log = self._simulate(tmp_path)
        capsys.readouterr()
        target = tmp_path / "study.parquet"
        code = main(["convert", log, str(target)])  # defaults: jsonl -> parquet
        if HAVE_PYARROW:
            assert code == 0
            assert target.exists()
        else:
            assert code == 2
            err = capsys.readouterr().err
            assert "pyarrow" in err
            assert err.startswith("error:")
            assert not target.exists()

    def test_same_path_converts_in_place(self, tmp_path, capsys):
        from repro.logs.io import read_csv, read_jsonl

        log = self._simulate(tmp_path)
        records = list(read_jsonl(log))
        capsys.readouterr()
        assert main(["convert", log, log, "--to", "csv"]) == 0
        assert f"converted {len(records):,} records" in capsys.readouterr().out
        assert list(read_csv(log)) == records


class TestBadLogInput:
    """Malformed or missing logs end in one ``error:`` line, exit 1."""

    @pytest.mark.parametrize("line", ["{not json", "[1,2]", "null"])
    def test_analyze_malformed_log(self, tmp_path, capsys, line):
        log = tmp_path / "bad.jsonl"
        log.write_text(line + "\n")
        assert main(["analyze", str(log), "--experiments", "T4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{log}:1" in err
        assert "Traceback" not in err

    def test_analyze_missing_log(self, tmp_path, capsys):
        log = tmp_path / "missing.jsonl"
        assert main(["analyze", str(log), "--experiments", "T4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "missing.jsonl" in err

    def test_analyze_missing_log_with_cache_dir(self, tmp_path, capsys):
        log = tmp_path / "missing.jsonl"
        argv = ["analyze", str(log), "--cache-dir", str(tmp_path / "cache")]
        assert main(argv + ["--experiments", "T4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "missing.jsonl" in err

    def test_convert_missing_source(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        missing = str(tmp_path / "nope.jsonl")
        code = main(["convert", missing, str(target), "--to", "csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not target.exists()
