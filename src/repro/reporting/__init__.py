"""Reporting: analysis facade, per-experiment drivers, renderers."""

from .._lazy import lazy_exports

_EXPORTS = {
    "EXPERIMENTS": ".experiments",
    "ExperimentResult": ".experiments",
    "run_all": ".experiments",
    "run_batch": ".experiments",
    "run_experiment": ".experiments",
    "render_bar_chart": ".figures",
    "render_grouped_bars": ".figures",
    "render_series": ".figures",
    "available_bots": ".scorecard",
    "render_scorecard": ".scorecard",
    "render_deterrence_scorecard": "..scenarios.report",
    "render_roc_table": "..scenarios.report",
    "VERSION_DIRECTIVES": ".study",
    "StudyAnalysis": ".study",
    "analyze": ".study",
    "format_cell": ".tables",
    "render_kv": ".tables",
    "render_table": ".tables",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "StudyAnalysis",
    "VERSION_DIRECTIVES",
    "analyze",
    "available_bots",
    "format_cell",
    "render_scorecard",
    "render_bar_chart",
    "render_deterrence_scorecard",
    "render_grouped_bars",
    "render_kv",
    "render_roc_table",
    "render_series",
    "render_table",
    "run_all",
    "run_batch",
    "run_experiment",
]
