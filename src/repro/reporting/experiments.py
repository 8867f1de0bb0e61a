"""Per-experiment drivers: one function per paper table and figure.

Each driver takes a :class:`~repro.reporting.study.StudyAnalysis` and
returns an :class:`ExperimentResult` carrying both the structured data
and a rendered text block printing the same rows/series the paper
reports.  Drivers only format: every number they print is a pipeline
artifact the facade looks up.  The benchmark harness calls exactly
these functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.compliance import Directive
from ..robots.corpus import RobotsVersion, all_versions
from .figures import render_bar_chart, render_grouped_bars, render_series
from .study import StudyAnalysis
from .tables import render_table

#: Directive column order used throughout.
_DIRECTIVES = (Directive.CRAWL_DELAY, Directive.ENDPOINT, Directive.DISALLOW_ALL)


@dataclass(frozen=True)
class ExperimentResult:
    """Output of one experiment driver.

    Attributes:
        experiment_id: the paper artifact id (``T5``, ``F10``...).
        title: human-readable description.
        data: driver-specific structured payload.
        rendered: printable text block.
    """

    experiment_id: str
    title: str
    data: object
    rendered: str


# --- Tables -------------------------------------------------------------


def table2(analysis: StudyAnalysis) -> ExperimentResult:
    """Table 2: dataset overview (all data vs known bots)."""
    rows_by_subset = analysis.overview_tables.dataset
    headers = (
        "Data subset",
        "Unique IPs",
        "Unique UAs",
        "Avg bytes/session",
        "Unique ASNs",
        "Total bytes",
        "Total visits",
        "Unique pages",
    )
    rows = [
        (
            subset,
            row.unique_ip_hashes,
            row.unique_user_agents,
            round(row.avg_bytes_per_session),
            row.unique_asns,
            row.total_bytes,
            row.total_page_visits,
            row.unique_page_visits,
        )
        for subset, row in rows_by_subset.items()
    ]
    return ExperimentResult(
        experiment_id="T2",
        title="Dataset overview",
        data=rows_by_subset,
        rendered=render_table(headers, rows, title="Table 2: dataset overview"),
    )


def table3(analysis: StudyAnalysis) -> ExperimentResult:
    """Table 3: the 20 most active known bots."""
    activity = analysis.overview_tables.top_bots
    headers = ("Bot", "Hits", "% of traffic", "GB scraped")
    rows = [
        (
            row.bot_name,
            row.hits,
            f"{100 * row.traffic_share:.2f}",
            f"{row.gigabytes:.3f}",
        )
        for row in activity
    ]
    return ExperimentResult(
        experiment_id="T3",
        title="Most active bots",
        data=activity,
        rendered=render_table(headers, rows, title="Table 3: most active bots"),
    )


def table4(analysis: StudyAnalysis) -> ExperimentResult:
    """Table 4: traffic summary per robots.txt version."""
    headers = ("robots.txt version", "site visits", "unique bot visitors")
    rows = []
    data = {}
    for version in all_versions():
        visits, bots = analysis.phase_summary(version)
        data[version] = (visits, bots)
        rows.append((version.value, visits, bots))
    return ExperimentResult(
        experiment_id="T4",
        title="Per-version traffic summary",
        data=data,
        rendered=render_table(headers, rows, title="Table 4: per-version traffic"),
    )


def table5(analysis: StudyAnalysis) -> ExperimentResult:
    """Table 5: category x directive weighted compliance."""
    table = analysis.category_table
    headers = (
        "Bot category",
        "Crawl delay",
        "Endpoint access",
        "Disallow all",
        "Category average",
    )
    rows = []
    for category in table.categories():
        row_cells = table.cells[category]
        cells = []
        for directive in _DIRECTIVES:
            cell = row_cells.get(directive)
            cells.append(
                f"{cell.compliance:.3f} ({cell.accesses})" if cell else "N/A"
            )
        rows.append(
            (category.value, *cells, f"{table.category_average(category):.3f}")
        )
    rows.append(
        (
            "Directive average",
            *(f"{table.directive_average(d):.3f}" for d in _DIRECTIVES),
            "",
        )
    )
    return ExperimentResult(
        experiment_id="T5",
        title="Category compliance by directive",
        data=table,
        rendered=render_table(headers, rows, title="Table 5: category compliance"),
    )


def table6(analysis: StudyAnalysis) -> ExperimentResult:
    """Table 6: per-bot compliance with entity/promise metadata."""
    from ..uaparse.registry import default_registry

    registry = default_registry()
    headers = (
        "Bot",
        "Entity",
        "Category",
        "Promise",
        "Crawl delay",
        "Endpoint",
        "Disallow",
    )
    rows = []
    for bot_name in sorted(analysis.per_bot):
        record = registry.get(bot_name)
        results = analysis.per_bot[bot_name]
        rows.append(
            (
                bot_name,
                record.entity if record else "?",
                record.category.value if record else "?",
                record.promise.value if record else "?",
                *(
                    f"{results[d].treatment_ratio:.3f}" if d in results else "N/A"
                    for d in _DIRECTIVES
                ),
            )
        )
    return ExperimentResult(
        experiment_id="T6",
        title="Per-bot compliance",
        data=analysis.per_bot,
        rendered=render_table(headers, rows, title="Table 6: per-bot compliance"),
    )


def table7(analysis: StudyAnalysis) -> ExperimentResult:
    """Table 7: bots that skipped robots.txt checks."""
    headers = (
        "Bot",
        "CD checked",
        "CD compliance",
        "EP checked",
        "EP compliance",
        "DA checked",
        "DA compliance",
    )
    rows = []
    for row in analysis.skipped_checks:
        cells = [row.bot_name]
        for directive in _DIRECTIVES:
            cells.append("Yes" if row.checked.get(directive) else "No")
            cells.append(f"{row.compliance.get(directive, 0.0):.2f}")
        rows.append(tuple(cells))
    return ExperimentResult(
        experiment_id="T7",
        title="Bots skipping robots.txt checks",
        data=analysis.skipped_checks,
        rendered=render_table(headers, rows, title="Table 7: skipped checks"),
    )


def table8(analysis: StudyAnalysis) -> ExperimentResult:
    """Table 8: bots with dominant + suspicious ASNs."""
    headers = ("Bot", "Main ASN (>90%)", "Share", "Possible spoofing ASNs")
    rows = []
    for bot_name in sorted(analysis.spoof_findings):
        finding = analysis.spoof_findings[bot_name]
        rows.append(
            (
                bot_name,
                finding.main_asn_name,
                f"{100 * finding.main_share:.2f}%",
                ", ".join(finding.suspicious_asn_names),
            )
        )
    return ExperimentResult(
        experiment_id="T8",
        title="Possible spoofing ASNs",
        data=analysis.spoof_findings,
        rendered=render_table(headers, rows, title="Table 8: spoofing ASNs"),
    )


def table9(analysis: StudyAnalysis) -> ExperimentResult:
    """Table 9: legitimate vs potentially spoofed request counts."""
    headers = ("Directive", "Legitimate requests", "Potentially spoofed")
    rows = []
    data = {}
    for version, directive in (
        (RobotsVersion.V1_CRAWL_DELAY, Directive.CRAWL_DELAY),
        (RobotsVersion.V2_ENDPOINT, Directive.ENDPOINT),
        (RobotsVersion.V3_DISALLOW_ALL, Directive.DISALLOW_ALL),
    ):
        legitimate, spoofed = analysis.phase_spoof_counts(version)
        data[directive] = (legitimate, spoofed)
        rows.append((directive.value, legitimate, spoofed))
    return ExperimentResult(
        experiment_id="T9",
        title="Spoofed request counts per directive",
        data=data,
        rendered=render_table(headers, rows, title="Table 9: spoofed requests"),
    )


def table10(analysis: StudyAnalysis) -> ExperimentResult:
    """Table 10: z-scores and p-values per bot x directive."""
    headers = ("Bot", "CD z", "CD p", "EP z", "EP p", "DA z", "DA p")
    rows = []
    for bot_name in sorted(analysis.per_bot):
        results = analysis.per_bot[bot_name]
        cells: list[object] = [bot_name]
        for directive in _DIRECTIVES:
            result = results.get(directive)
            if result is None or not result.test.valid:
                cells.extend(("N/A", "N/A"))
            else:
                cells.append(f"{result.test.z:.2f}")
                cells.append(f"{result.test.p_value:.2e}")
        rows.append(tuple(cells))
    return ExperimentResult(
        experiment_id="T10",
        title="Significance of compliance changes",
        data=analysis.per_bot,
        rendered=render_table(headers, rows, title="Table 10: z-scores / p-values"),
    )


# --- Figures ------------------------------------------------------------------


def figure2(analysis: StudyAnalysis) -> ExperimentResult:
    """Figure 2: sessions per bot category (log scale)."""
    counts = analysis.overview_tables.category_sessions
    ordered = dict(
        sorted(counts.items(), key=lambda item: item[1], reverse=True)
    )
    data = {category.value: float(count) for category, count in ordered.items()}
    return ExperimentResult(
        experiment_id="F2",
        title="Sessions per bot category",
        data=counts,
        rendered=render_bar_chart(
            data, title="Figure 2: sessions per category (log scale)", log_scale=True
        ),
    )


def figure3(analysis: StudyAnalysis) -> ExperimentResult:
    """Figure 3: CDF of bytes downloaded over time, top-5 categories."""
    series = analysis.overview_tables.bytes_cdf
    rendered = render_series(
        {category.value: points for category, points in series.items()},
        title="Figure 3: CDF of bytes downloaded by category",
    )
    return ExperimentResult(
        experiment_id="F3",
        title="Bytes CDF by category",
        data=series,
        rendered=rendered,
    )


def figure4(analysis: StudyAnalysis) -> ExperimentResult:
    """Figure 4: scraper sessions per day, top-5 categories."""
    series = analysis.overview_tables.daily_sessions
    rendered = render_series(
        {
            category.value: [(day, float(count)) for day, count in days.items()]
            for category, days in series.items()
        },
        title="Figure 4: sessions per day by category",
        value_format="{:.0f}",
    )
    return ExperimentResult(
        experiment_id="F4",
        title="Daily sessions by category",
        data=series,
        rendered=rendered,
    )


def figure9(analysis: StudyAnalysis) -> ExperimentResult:
    """Figure 9: baseline vs directive compliance per bot."""
    headers = ("Bot", "Directive", "Baseline", "Experiment", "Shift", "Significant")
    rows = []
    for bot_name in sorted(analysis.per_bot):
        for directive in _DIRECTIVES:
            result = analysis.per_bot[bot_name].get(directive)
            if result is None:
                continue
            rows.append(
                (
                    bot_name,
                    directive.value,
                    f"{result.baseline_ratio:.3f}",
                    f"{result.treatment_ratio:.3f}",
                    f"{result.shift:+.3f}",
                    "yes" if result.test.significant else "no",
                )
            )
    return ExperimentResult(
        experiment_id="F9",
        title="Compliance shift per bot",
        data=analysis.per_bot,
        rendered=render_table(headers, rows, title="Figure 9: compliance shifts"),
    )


def figure10(analysis: StudyAnalysis) -> ExperimentResult:
    """Figure 10: robots.txt re-check frequency by category."""
    proportions = analysis.recheck_proportions
    data = {
        category.value: {f"{hours}h": share for hours, share in windows.items()}
        for category, windows in sorted(
            proportions.items(),
            key=lambda item: max(item[1].values()),
            reverse=True,
        )
    }
    return ExperimentResult(
        experiment_id="F10",
        title="robots.txt check frequency by category",
        data=proportions,
        rendered=render_grouped_bars(
            data, title="Figure 10: proportion of bots re-checking robots.txt"
        ),
    )


def figure11(analysis: StudyAnalysis) -> ExperimentResult:
    """Figure 11: compliance shifts for potentially spoofed bots."""
    headers = ("Bot", "Directive", "Baseline", "Experiment", "Significant")
    rows = []
    for bot_name in sorted(analysis.per_bot_spoofed):
        for directive, result in analysis.per_bot_spoofed[bot_name].items():
            rows.append(
                (
                    bot_name,
                    directive.value,
                    f"{result.baseline_ratio:.3f}",
                    f"{result.treatment_ratio:.3f}",
                    "yes" if result.test.significant else "no",
                )
            )
    return ExperimentResult(
        experiment_id="F11",
        title="Spoofed-bot compliance shifts",
        data=analysis.per_bot_spoofed,
        rendered=render_table(headers, rows, title="Figure 11: spoofed-bot shifts"),
    )


#: Registry mapping experiment ids to drivers (the DESIGN.md index).
EXPERIMENTS = {
    "T2": table2,
    "T3": table3,
    "T4": table4,
    "T5": table5,
    "T6": table6,
    "T7": table7,
    "T8": table8,
    "T9": table9,
    "T10": table10,
    "F2": figure2,
    "F3": figure3,
    "F4": figure4,
    "F9": figure9,
    "F10": figure10,
    "F11": figure11,
}


def run_experiment(experiment_id: str, analysis: StudyAnalysis) -> ExperimentResult:
    """Run one experiment by id (``T2``...``F11``)."""
    try:
        driver = EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choose from "
            + ", ".join(EXPERIMENTS)
        ) from None
    return driver(analysis)


def run_all(analysis: StudyAnalysis) -> dict[str, ExperimentResult]:
    """Run every experiment driver, in the paper's order."""
    return run_batch({"study": analysis})["study"]


def run_batch(
    analyses: dict[str, StudyAnalysis],
    experiment_ids: list[str] | None = None,
) -> dict[str, dict[str, ExperimentResult]]:
    """Run the selected experiments for every named analysis (e.g. one
    per site or per longitudinal snapshot corpus).

    Returns ``{study name: {experiment id: result}}`` preserving the
    input order.
    """
    wanted = [key.upper() for key in (experiment_ids or list(EXPERIMENTS))]
    for key in wanted:
        if key not in EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {key!r}; choose from "
                + ", ".join(EXPERIMENTS)
            )
    return {
        name: {key: EXPERIMENTS[key](analysis) for key in wanted}
        for name, analysis in analyses.items()
    }
