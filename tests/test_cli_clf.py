"""CLF ingestion through the CLI: analyze --format clf round trip."""

import pytest

from repro.cli import main
from repro.logs.io import parse_clf_line, read_clf, render_clf_line
from repro.simulation import SimulationEngine, quick_scenario


class TestClfRoundTrip:
    def test_render_parse_preserves_fields(self, quick_dataset):
        for record in quick_dataset.records[:200]:
            parsed = parse_clf_line(
                render_clf_line(record),
                sitename=record.sitename,
                asn=record.asn,
            )
            assert parsed.useragent == record.useragent
            assert parsed.ip_hash == record.ip_hash
            assert parsed.uri_path == record.uri_path
            assert parsed.status_code == record.status_code
            assert parsed.bytes_sent == record.bytes_sent
            assert parsed.sitename == record.sitename
            assert parsed.asn == record.asn
            assert parsed.timestamp == pytest.approx(
                record.timestamp, abs=1.0  # CLF timestamps are whole seconds
            )

    def test_read_clf_streams_written_file(self, tmp_path, quick_dataset):
        log = tmp_path / "access.log"
        records = quick_dataset.records[:500]
        log.write_text(
            "\n".join(render_clf_line(record) for record in records) + "\n"
        )
        loaded = list(read_clf(log, sitename="x.example", asn=7))
        assert len(loaded) == len(records)
        assert all(record.sitename == "x.example" for record in loaded)
        assert all(record.asn == 7 for record in loaded)


class TestAnalyzeClfCommand:
    @pytest.fixture(scope="class")
    def clf_log(self, tmp_path_factory):
        """Experiment-site records of a small study, rendered as CLF."""
        scenario = quick_scenario(scale=0.2, seed=5)
        dataset = SimulationEngine(
            scenario=scenario, with_noise=False
        ).run()
        site = scenario.experiment_site
        records = [
            record for record in dataset.records if record.sitename == site
        ]
        path = tmp_path_factory.mktemp("clf") / "experiment.log"
        path.write_text(
            "\n".join(render_clf_line(record) for record in records) + "\n"
        )
        return path, site

    def test_analyze_clf_prints_table(self, clf_log, capsys):
        path, site = clf_log
        code = main(
            [
                "analyze",
                str(path),
                "--format",
                "clf",
                "--site",
                site,
                "--seed",
                "5",
                "--experiments",
                "T4",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 4" in captured.out
        assert "loaded" in captured.err

    def test_analyze_clf_sharded_matches_sequential(self, clf_log, capsys):
        path, site = clf_log
        args = [
            "analyze",
            str(path),
            "--format",
            "clf",
            "--site",
            site,
            "--seed",
            "5",
            "--experiments",
            "T4",
            "T9",
        ]
        assert main(args) == 0
        sequential = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        sharded = capsys.readouterr().out
        assert sharded == sequential
