"""Per-bot compliance scorecards: operator-facing Markdown reports.

Site operators deciding whether robots.txt will hold against a
particular bot need the paper's evidence *for that bot* in one page:
identity and public promise, observed volumes, per-directive
compliance with significance, robots.txt check behaviour, and
spoofing exposure.  This module renders exactly that from a
:class:`~repro.reporting.study.StudyAnalysis`.
"""

from __future__ import annotations

from ..analysis.compliance import Directive
from ..logs.preprocess import records_by_bot
from ..uaparse.registry import default_registry
from .study import StudyAnalysis

_DIRECTIVES = (Directive.CRAWL_DELAY, Directive.ENDPOINT, Directive.DISALLOW_ALL)


def available_bots(analysis: StudyAnalysis) -> list[str]:
    """Bots with full per-bot results (scorecard-able)."""
    return sorted(analysis.per_bot)


def render_scorecard(analysis: StudyAnalysis, bot_name: str) -> str:
    """Render the Markdown scorecard for ``bot_name``.

    Raises:
        KeyError: when the bot has no per-bot results (use
            :func:`available_bots` to enumerate candidates).
    """
    if bot_name not in analysis.per_bot:
        raise KeyError(
            f"no per-bot results for {bot_name!r}; "
            f"candidates: {', '.join(available_bots(analysis)[:10])}..."
        )
    results = analysis.per_bot[bot_name]
    record = default_registry().get(bot_name)
    lines: list[str] = [f"# Compliance scorecard: {bot_name}", ""]

    # -- identity -------------------------------------------------------
    lines.append("## Identity")
    if record is not None:
        lines.append(f"- Operator: **{record.entity}**")
        lines.append(f"- Category: {record.category.value}")
        lines.append(
            f"- Public promise to respect robots.txt: **{record.promise.value}**"
        )
    else:
        lines.append("- Not in the known-bot registry")
    lines.append("")

    # -- volume -----------------------------------------------------------
    overview_by_bot = records_by_bot(analysis.overview_records)
    accesses = len(overview_by_bot.get(bot_name, []))
    scraped = sum(
        record.bytes_sent for record in overview_by_bot.get(bot_name, [])
    )
    lines.append("## Observed activity (overview window)")
    lines.append(f"- Accesses: {accesses:,}")
    lines.append(f"- Data transferred: {scraped / 1e9:.3f} GB")
    lines.append("")

    # -- compliance ----------------------------------------------------------
    lines.append("## Directive compliance (baseline -> deployment)")
    lines.append("")
    lines.append("| Directive | Baseline | Under directive | Shift | Significant |")
    lines.append("|---|---|---|---|---|")
    for directive in _DIRECTIVES:
        result = results.get(directive)
        if result is None:
            lines.append(f"| {directive.value} | — | — | — | — |")
            continue
        significant = "yes" if result.test.significant else "no"
        if not result.test.valid:
            significant = "n/a"
        lines.append(
            f"| {directive.value} | {result.baseline_ratio:.3f} "
            f"| {result.treatment_ratio:.3f} | {result.shift:+.3f} "
            f"| {significant} |"
        )
    lines.append("")

    # -- robots.txt behaviour ----------------------------------------------------
    lines.append("## robots.txt engagement")
    for directive in _DIRECTIVES:
        result = results.get(directive)
        if result is None:
            continue
        verb = "fetched" if result.checked_robots else "never fetched"
        lines.append(f"- {verb} robots.txt during the {directive.value} deployment")
    lines.append("")

    # -- spoofing ------------------------------------------------------------------
    lines.append("## Spoofing exposure")
    finding = analysis.spoof_findings.get(bot_name)
    if finding is None:
        lines.append("- No minority-ASN traffic flagged.")
    else:
        lines.append(
            f"- Dominant network: {finding.main_asn_name} "
            f"({100 * finding.main_share:.2f}% of traffic)"
        )
        lines.append(
            f"- {finding.spoofed_records} request(s) from "
            f"{len(finding.suspicious_asns)} suspicious ASN(s): "
            + ", ".join(finding.suspicious_asn_names)
        )
    lines.append("")

    # -- verdict ------------------------------------------------------------------
    lines.append("## Verdict")
    lines.append(f"- {_verdict(results)}")
    return "\n".join(lines)


def _verdict(results: dict[Directive, object]) -> str:
    """One-sentence operator guidance derived from the numbers."""
    disallow = results.get(Directive.DISALLOW_ALL)
    delay = results.get(Directive.CRAWL_DELAY)
    strong = disallow is not None and disallow.treatment_ratio >= 0.9
    polite = delay is not None and delay.treatment_ratio >= 0.8
    if strong and polite:
        return (
            "robots.txt is an effective control for this bot: it honours "
            "both pacing and access directives."
        )
    if strong:
        return (
            "access directives are honoured but pacing is not; pair "
            "robots.txt with rate limiting."
        )
    if polite:
        return (
            "pacing is respected but access restrictions are not; "
            "robots.txt alone will not keep content away from this bot."
        )
    return (
        "robots.txt provides little protection against this bot; use "
        "enforceable deterrence (rate limits, blocks, tarpits)."
    )
