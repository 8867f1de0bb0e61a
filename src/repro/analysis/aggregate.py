"""Category-level compliance aggregation (the paper's Table 5).

For each Dark Visitors category and each directive, the category score
is the access-weighted average of its bots' compliance ratios —
weighted by the bot's access count under that directive, so prolific
bots dominate, matching §4.3's methodology.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..uaparse.categories import BotCategory
from ..uaparse.registry import default_registry
from .compliance import Directive
from .perbot import BotDirectiveResult
from .stats import weighted_average


@dataclass(frozen=True)
class CategoryCell:
    """One category x directive cell of Table 5.

    Attributes:
        category: the bot category.
        directive: the directive measured.
        compliance: access-weighted average compliance ratio.
        accesses: total accesses behind the average (the table's
            parenthetical weight).
        bots: how many bots contributed.
    """

    category: BotCategory
    directive: Directive
    compliance: float
    accesses: int
    bots: int


@dataclass(frozen=True)
class CategoryComplianceTable:
    """The full Table 5 structure with its marginal averages."""

    cells: dict[BotCategory, dict[Directive, CategoryCell]]

    def category_average(self, category: BotCategory) -> float:
        """Unweighted mean across directives (Table 5's last column)."""
        row = self.cells.get(category)
        if not row:
            return 0.0
        return sum(cell.compliance for cell in row.values()) / len(row)

    def directive_average(self, directive: Directive) -> float:
        """Unweighted mean across categories (Table 5's last row)."""
        column = [
            row[directive] for row in self.cells.values() if directive in row
        ]
        if not column:
            return 0.0
        return sum(cell.compliance for cell in column) / len(column)

    def categories(self) -> list[BotCategory]:
        return sorted(self.cells, key=lambda category: category.value)


def _category_of(bot_name: str) -> BotCategory:
    record = default_registry().get(bot_name)
    return record.category if record is not None else BotCategory.OTHER


def category_compliance(
    results: dict[str, dict[Directive, BotDirectiveResult]],
) -> CategoryComplianceTable:
    """Aggregate per-bot results into the category x directive table.

    Args:
        results: output of :func:`repro.analysis.perbot.per_bot_results`.
    """
    buckets: dict[BotCategory, dict[Directive, list[BotDirectiveResult]]] = (
        defaultdict(lambda: defaultdict(list))
    )
    for bot_name, per_directive in results.items():
        category = _category_of(bot_name)
        for directive, result in per_directive.items():
            buckets[category][directive].append(result)

    cells: dict[BotCategory, dict[Directive, CategoryCell]] = {}
    for category, per_directive in buckets.items():
        row: dict[Directive, CategoryCell] = {}
        for directive, bot_results in per_directive.items():
            ratios = [result.treatment_ratio for result in bot_results]
            weights = [float(result.treatment.trials) for result in bot_results]
            row[directive] = CategoryCell(
                category=category,
                directive=directive,
                compliance=weighted_average(ratios, weights),
                accesses=int(sum(weights)),
                bots=len(bot_results),
            )
        cells[category] = row
    return CategoryComplianceTable(cells=cells)
