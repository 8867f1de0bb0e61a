"""Adversarial scenario matrix: deterrence × bot fleet on the cached
pipeline.

Declares grids of scenario cells (bot profile × spoofing strategy ×
deterrence config × robots corpus × traffic mix), executes each cell
as a content-keyed sharded pipeline stage, and reduces the results
into a deterrence scorecard and detector ROC tables.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "MatrixRun": ".matrix",
    "build_matrix_pipeline": ".matrix",
    "run_matrix": ".matrix",
    "DETECTORS": ".report",
    "build_roc_tables": ".report",
    "build_scorecard": ".report",
    "roc_curve": ".report",
    "CellMetrics": ".results",
    "CellResult": ".results",
    "RocPoint": ".results",
    "RocTable": ".results",
    "ScorecardRow": ".results",
    "build_cell_gateway": ".simulate",
    "cell_seed": ".simulate",
    "run_cell": ".simulate",
    "strategy_profile": ".simulate",
    "DETERRENCE_PRESET_NAMES": ".spec",
    "ROBOTS_CHOICES": ".spec",
    "STRATEGIES": ".spec",
    "TRAFFIC_MIXES": ".spec",
    "DeterrenceConfig": ".spec",
    "ScenarioGrid": ".spec",
    "ScenarioSpec": ".spec",
    "deterrence_preset": ".spec",
    "full_grid": ".spec",
    "parse_grid": ".spec",
    "quick_grid": ".spec",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "CellMetrics",
    "CellResult",
    "DETECTORS",
    "DETERRENCE_PRESET_NAMES",
    "DeterrenceConfig",
    "MatrixRun",
    "ROBOTS_CHOICES",
    "RocPoint",
    "RocTable",
    "STRATEGIES",
    "ScenarioGrid",
    "ScenarioSpec",
    "ScorecardRow",
    "TRAFFIC_MIXES",
    "build_cell_gateway",
    "build_matrix_pipeline",
    "build_roc_tables",
    "build_scorecard",
    "cell_seed",
    "deterrence_preset",
    "full_grid",
    "parse_grid",
    "quick_grid",
    "roc_curve",
    "run_cell",
    "run_matrix",
    "strategy_profile",
]
