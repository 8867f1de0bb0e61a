"""Reduce executed matrix cells into the deterrence scorecard and the
detector ROC tables, and render both as Markdown.

Pure functions over :class:`~repro.scenarios.results.CellResult`
tuples — the reductions run inside cached pipeline stages, so they
must be deterministic in their inputs and use nothing ambient.
"""

from __future__ import annotations

from ..reporting.tables import render_table
from .results import CellResult, RocPoint, RocTable, ScorecardRow

#: Detector name -> CellMetrics score attribute.
DETECTORS: dict[str, str] = {
    "honeypot": "score_honeypot",
    "asn": "score_asn",
    "ua": "score_ua",
    "violation": "score_violation",
}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def build_scorecard(cells: tuple[CellResult, ...]) -> tuple[ScorecardRow, ...]:
    """Aggregate deterrence effectiveness per config, across cells.

    Rows are ordered by first appearance in the cell stream, which is
    grid order — deterministic for a given grid.
    """
    order: list[str] = []
    grouped: dict[str, list[CellResult]] = {}
    for cell in cells:
        if cell.deterrence not in grouped:
            order.append(cell.deterrence)
            grouped[cell.deterrence] = []
        grouped[cell.deterrence].append(cell)
    rows: list[ScorecardRow] = []
    for name in order:
        group = grouped[name]
        adversarial = [c for c in group if c.adversarial]
        honest = [c for c in group if not c.adversarial]
        rows.append(
            ScorecardRow(
                deterrence=name,
                cells=len(group),
                bot_deterred=_mean(
                    [c.metrics.bot_deterred_fraction for c in group]
                ),
                adversarial_deterred=_mean(
                    [c.metrics.bot_deterred_fraction for c in adversarial]
                ),
                honest_deterred=_mean(
                    [c.metrics.bot_deterred_fraction for c in honest]
                ),
                noise_collateral=_mean(
                    [c.metrics.noise_collateral_fraction for c in group]
                ),
                violation_leak=_mean(
                    [c.metrics.violation_leak_fraction for c in group]
                ),
                tarpit_share=_mean(
                    [
                        c.metrics.tarpitted / c.metrics.requests
                        if c.metrics.requests
                        else 0.0
                        for c in group
                    ]
                ),
            )
        )
    return tuple(rows)


def roc_curve(
    scored: list[tuple[float, bool]]
) -> tuple[float, tuple[RocPoint, ...]]:
    """(AUC, operating points) for (score, is_adversarial) pairs.

    Thresholds sweep the distinct scores in descending order (cells
    scoring >= threshold are flagged); AUC is the trapezoid integral
    of TPR over FPR with (0,0)/(1,1) endpoints pinned.
    """
    positives = sum(1 for _, label in scored if label)
    negatives = len(scored) - positives
    points: list[RocPoint] = []
    for threshold in sorted({score for score, _ in scored}, reverse=True):
        flagged = [(score, label) for score, label in scored if score >= threshold]
        tpr = (
            sum(1 for _, label in flagged if label) / positives
            if positives
            else 0.0
        )
        fpr = (
            sum(1 for _, label in flagged if not label) / negatives
            if negatives
            else 0.0
        )
        points.append(RocPoint(threshold=threshold, tpr=tpr, fpr=fpr))
    sweep = [(0.0, 0.0)]
    sweep.extend(
        (point.fpr, point.tpr)
        for point in sorted(points, key=lambda p: (p.fpr, p.tpr))
    )
    sweep.append((1.0, 1.0))
    auc = 0.0
    for (fpr0, tpr0), (fpr1, tpr1) in zip(sweep, sweep[1:]):
        auc += (fpr1 - fpr0) * (tpr0 + tpr1) / 2.0
    return auc, tuple(points)


def build_roc_tables(cells: tuple[CellResult, ...]) -> tuple[RocTable, ...]:
    """One ROC table per detector score, labelled by the cells'
    ground-truth adversarial flag."""
    tables: list[RocTable] = []
    for detector, attribute in DETECTORS.items():
        scored = [
            (float(getattr(cell.metrics, attribute)), cell.adversarial)
            for cell in cells
        ]
        auc, points = roc_curve(scored)
        tables.append(RocTable(detector=detector, auc=auc, points=points))
    return tuple(tables)


def render_deterrence_scorecard(rows) -> str:
    """Markdown scorecard for a scenario-matrix run: how well each
    deterrence configuration held against the fleet.

    Args:
        rows: :class:`~repro.scenarios.results.ScorecardRow` sequence
            (one per deterrence config, grid order).
    """
    lines = ["# Deterrence scorecard", ""]
    lines.append(
        render_table(
            (
                "config",
                "cells",
                "bot deterred",
                "adv. deterred",
                "honest deterred",
                "noise collateral",
                "violation leak",
                "tarpit share",
            ),
            [
                (
                    row.deterrence,
                    row.cells,
                    f"{row.bot_deterred:.1%}",
                    f"{row.adversarial_deterred:.1%}",
                    f"{row.honest_deterred:.1%}",
                    f"{row.noise_collateral:.1%}",
                    f"{row.violation_leak:.1%}",
                    f"{row.tarpit_share:.1%}",
                )
                for row in rows
            ],
        )
    )
    lines.append("")
    lines.append(
        "`violation leak` is the share of ground-truth robots-disallowed "
        "requests that were served anyway; `noise collateral` is innocent "
        "background traffic the chain stopped."
    )
    return "\n".join(lines) + "\n"


def render_roc_table(table, max_points: int = 12) -> str:
    """Markdown rendering of one detector's ROC curve.

    Args:
        table: a :class:`~repro.scenarios.results.RocTable`.
        max_points: cap on printed operating points (evenly
            subsampled; the AUC always reflects the full curve).
    """
    points = list(table.points)
    if len(points) > max_points:
        step = (len(points) - 1) / (max_points - 1)
        points = [points[round(i * step)] for i in range(max_points)]
    lines = [f"## Detector: {table.detector} (AUC {table.auc:.3f})", ""]
    lines.append(
        render_table(
            ("threshold", "TPR", "FPR"),
            [
                (f"{p.threshold:.4f}", f"{p.tpr:.1%}", f"{p.fpr:.1%}")
                for p in points
            ],
        )
    )
    return "\n".join(lines) + "\n"
