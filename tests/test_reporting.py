"""Unit tests for table/figure rendering and the experiment registry."""

import pytest

from repro.choices import EXPERIMENT_IDS
from repro.reporting.experiments import EXPERIMENTS, run_experiment
from repro.reporting.figures import (
    render_bar_chart,
    render_grouped_bars,
    render_series,
)
from repro.reporting.tables import format_cell, render_kv, render_table


class TestFormatCell:
    def test_float_three_decimals(self):
        assert format_cell(0.12345) == "0.123"

    def test_nan_is_na(self):
        assert format_cell(float("nan")) == "N/A"

    def test_none_is_na(self):
        assert format_cell(None) == "N/A"

    def test_ints_and_strings_verbatim(self):
        assert format_cell(42) == "42"
        assert format_cell("x") == "x"


class TestRenderTable:
    def test_alignment(self):
        text = render_table(
            ["name", "value"], [("short", 1), ("much longer name", 22)]
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        # All data rows align the second column.
        positions = {line.rstrip().rfind(" ") for line in lines[2:]}
        assert len(positions) >= 1

    def test_title(self):
        text = render_table(["a"], [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"
        assert text.splitlines()[1] == "========"

    def test_kv(self):
        text = render_kv([("records", 100), ("bots", 5)])
        assert "records" in text and "100" in text


class TestRenderFigures:
    def test_bar_chart_linear(self):
        text = render_bar_chart({"a": 100.0, "b": 50.0})
        lines = text.splitlines()
        assert lines[0].count("#") > lines[1].count("#")

    def test_bar_chart_log_scale_compresses(self):
        linear = render_bar_chart({"a": 10_000.0, "b": 10.0})
        log = render_bar_chart({"a": 10_000.0, "b": 10.0}, log_scale=True)
        bars_linear = linear.splitlines()[1].count("#")
        bars_log = log.splitlines()[1].count("#")
        assert bars_log > bars_linear

    def test_empty_bar_chart(self):
        assert "(no data)" in render_bar_chart({}, title="t")

    def test_series_downsampled(self):
        points = [(f"day-{i:03d}", float(i)) for i in range(100)]
        text = render_series({"s": points}, max_points=10)
        assert text.count("day-") <= 11
        assert "day-099" in text  # last point always kept

    def test_grouped_bars_columns(self):
        text = render_grouped_bars(
            {"cat-a": {"12h": 0.5, "24h": 0.75}, "cat-b": {"12h": 0.1, "24h": 0.2}}
        )
        assert "12h" in text and "24h" in text
        assert "cat-a" in text and "0.75" in text


class TestExperimentRegistry:
    def test_all_fifteen_experiments_registered(self):
        expected = {
            "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10",
            "F2", "F3", "F4", "F9", "F10", "F11",
        }
        assert set(EXPERIMENTS) == expected

    def test_cli_ids_are_the_registry_in_order(self):
        """argparse offers ``EXPERIMENT_IDS`` without importing the
        drivers; they must name exactly the registry, in print order."""
        assert tuple(EXPERIMENTS) == EXPERIMENT_IDS

    def test_unknown_experiment_raises(self, quick_analysis):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("T99", quick_analysis)

    def test_case_insensitive_lookup(self, quick_analysis):
        result = run_experiment("t4", quick_analysis)
        assert result.experiment_id == "T4"
