"""Dataset-overview statistics (§3.2: Tables 2-3, Figures 2-4).

These analyses run on the sessionized 40-day window and describe the
shape of scraper traffic independent of the robots.txt experiments.
The per-site traffic tallies (:func:`site_traffic`) fold the whole
preprocessed corpus the same way.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass

from ..logs.schema import LogRecord
from ..logs.sessionize import (
    Session,
    sessionize,
    sessions_by_category,
    sessions_per_day,
)
from ..uaparse.categories import BotCategory
from .compliance import Directive  # noqa: F401  (re-exported convenience)
from .spoofing import SpoofFinding, partition_records, spoofed_request_counts


@dataclass(frozen=True)
class DatasetOverview:
    """One row of Table 2.

    Attributes mirror the table's columns exactly.
    """

    unique_ip_hashes: int
    unique_user_agents: int
    avg_bytes_per_session: float
    unique_asns: int
    total_bytes: int
    total_page_visits: int
    unique_page_visits: int


def overview_row(records: list[LogRecord], sessions: list[Session] | None = None) -> DatasetOverview:
    """Compute one Table 2 row over ``records``.

    ``total_page_visits`` counts sessionized rows (the paper's
    761,956) and ``unique_page_visits`` counts distinct
    (sitename, path) resources.
    """
    if sessions is None:
        sessions = sessionize(records)
    total_bytes = sum(record.bytes_sent for record in records)
    unique_pages = {(record.sitename, record.uri_path) for record in records}
    return DatasetOverview(
        unique_ip_hashes=len({record.ip_hash for record in records}),
        unique_user_agents=len({record.useragent for record in records}),
        avg_bytes_per_session=total_bytes / len(sessions) if sessions else 0.0,
        unique_asns=len({record.asn for record in records}),
        total_bytes=total_bytes,
        total_page_visits=len(sessions),
        unique_page_visits=len(unique_pages),
    )


def dataset_overview(
    records: list[LogRecord], sessions: list[Session] | None = None
) -> dict[str, DatasetOverview]:
    """Table 2: the "All data" and "Known bots" rows.

    The "Known bots" sessions are filtered from ``sessions`` rather
    than sessionized again: sessions key on (IP hash, user agent) and
    bot enrichment is a function of the user agent alone, so each
    entity's records are either all known or all unknown.
    """
    if sessions is None:
        sessions = sessionize(records)
    known = [record for record in records if record.bot_name is not None]
    known_sessions = [session for session in sessions if session.bot_name is not None]
    return {
        "All data": overview_row(records, sessions),
        "Known bots": overview_row(known, known_sessions),
    }


@dataclass(frozen=True)
class BotActivity:
    """One row of Table 3 (a top-20 bot).

    Attributes:
        bot_name: standardized name.
        hits: sessionized page visits attributed to the bot.
        traffic_share: hits as a fraction of all sessionized visits.
        gigabytes: data scraped during the window.
    """

    bot_name: str
    hits: int
    traffic_share: float
    gigabytes: float


def top_bots(
    records: list[LogRecord], count: int = 20
) -> list[BotActivity]:
    """Table 3: the most active known bots by web accesses.

    "Hits" counts the bot's web accesses ("the number of unique web
    accesses for each bot"), and the traffic share is normalized
    against all accesses in the window.
    """
    total = len(records)
    hits: Counter[str] = Counter()
    scraped: defaultdict[str, int] = defaultdict(int)
    for record in records:
        if record.bot_name is None:
            continue
        hits[record.bot_name] += 1
        scraped[record.bot_name] += record.bytes_sent
    activity = [
        BotActivity(
            bot_name=name,
            hits=bot_hits,
            traffic_share=bot_hits / total if total else 0.0,
            gigabytes=scraped[name] / 1e9,
        )
        for name, bot_hits in hits.items()
    ]
    activity.sort(key=lambda row: row.hits, reverse=True)
    return activity[:count]


def category_session_counts(
    records: list[LogRecord], sessions: list[Session] | None = None
) -> dict[BotCategory, int]:
    """Figure 2: total sessions per bot category (log-scaled in the
    paper's plot; raw counts here)."""
    if sessions is None:
        sessions = sessionize(records)
    grouped = sessions_by_category(sessions)
    return {
        category: len(category_sessions)
        for category, category_sessions in grouped.items()
    }


def daily_sessions_by_category(
    records: list[LogRecord], top: int = 5, sessions: list[Session] | None = None
) -> dict[BotCategory, dict[str, int]]:
    """Figure 4: sessions per day for the top categories by volume."""
    if sessions is None:
        sessions = sessionize(records)
    grouped = sessions_by_category(sessions)
    ranked = sorted(grouped, key=lambda category: len(grouped[category]), reverse=True)
    return {
        category: sessions_per_day(grouped[category]) for category in ranked[:top]
    }


def bytes_cdf_by_category(
    records: list[LogRecord], top: int = 5
) -> dict[BotCategory, list[tuple[str, float]]]:
    """Figure 3: cumulative fraction of bytes downloaded over time.

    For each of the top categories by bytes, returns a day-ordered
    series of (ISO day, cumulative fraction of the category's total).
    """
    from ..simulation.clock import iso_day

    by_category_day: dict[BotCategory, Counter[str]] = defaultdict(Counter)
    totals: Counter[BotCategory] = Counter()
    for record in records:
        if record.bot_category is None:
            continue
        day = iso_day(record.timestamp)
        by_category_day[record.bot_category][day] += record.bytes_sent
        totals[record.bot_category] += record.bytes_sent
    ranked = [category for category, _ in totals.most_common(top)]
    series: dict[BotCategory, list[tuple[str, float]]] = {}
    for category in ranked:
        running = 0
        total = totals[category] or 1
        points: list[tuple[str, float]] = []
        for day in sorted(by_category_day[category]):
            running += by_category_day[category][day]
            points.append((day, running / total))
        series[category] = points
    return series


@dataclass(frozen=True)
class OverviewTables:
    """Tables 2-3 and Figures 2-4, as the experiment drivers print them.

    Attributes:
        dataset: Table 2 rows (:func:`dataset_overview`).
        top_bots: Table 3's top-20 bots (:func:`top_bots`).
        category_sessions: Figure 2 (:func:`category_session_counts`).
        bytes_cdf: Figure 3's top-5 categories
            (:func:`bytes_cdf_by_category`).
        daily_sessions: Figure 4's top-5 categories
            (:func:`daily_sessions_by_category`).
    """

    dataset: dict[str, DatasetOverview]
    top_bots: list[BotActivity]
    category_sessions: dict[BotCategory, int]
    bytes_cdf: dict[BotCategory, list[tuple[str, float]]]
    daily_sessions: dict[BotCategory, dict[str, int]]


def overview_tables(records: list[LogRecord]) -> OverviewTables:
    """Every overview table and figure from one sessionization pass."""
    sessions = sessionize(records)
    return OverviewTables(
        dataset=dataset_overview(records, sessions),
        top_bots=top_bots(records, count=20),
        category_sessions=category_session_counts(records, sessions),
        bytes_cdf=bytes_cdf_by_category(records, top=5),
        daily_sessions=daily_sessions_by_category(records, top=5, sessions=sessions),
    )


@dataclass(frozen=True)
class PhaseTally:
    """One deployment phase's Table 4 and Table 9 counts.

    Attributes:
        visits: experiment-site accesses during the phase.
        bots: distinct known bots among them.
        legitimate / spoofed: known-bot accesses split by the spoofing
            heuristic's findings.
    """

    visits: int
    bots: int
    legitimate: int
    spoofed: int


def phase_tally(
    records: list[LogRecord], findings: dict[str, SpoofFinding]
) -> PhaseTally:
    """Table 4 and Table 9 counts over one phase's records."""
    legitimate, spoofed = spoofed_request_counts(partition_records(records, findings))
    bots = {record.bot_name for record in records if record.bot_name is not None}
    return PhaseTally(
        visits=len(records),
        bots=len(bots),
        legitimate=legitimate,
        spoofed=spoofed,
    )


@dataclass(frozen=True)
class SiteTraffic:
    """Per-site traffic tallies over the preprocessed corpus.

    The ``site_traffic`` pipeline stage's artifact: how much traffic,
    how many distinct known bots, how many robots.txt probes and bytes
    each site saw.
    """

    site: str
    visits: int
    known_bot_visits: int
    unique_bots: int
    robots_fetches: int
    bytes_sent: int


def site_traffic(records: Iterable[LogRecord]) -> dict[str, SiteTraffic]:
    """Fold records into per-site tallies, ordered by site name.

    One pass; live state is a few counters and one bot-name set per
    site, never a per-site record list.
    """
    visits: dict[str, int] = {}
    bot_visits: dict[str, int] = {}
    bots: dict[str, set[str]] = {}
    robots: dict[str, int] = {}
    sent: dict[str, int] = {}
    for record in records:
        site = record.sitename
        visits[site] = visits.get(site, 0) + 1
        sent[site] = sent.get(site, 0) + record.bytes_sent
        if record.bot_name is not None:
            bot_visits[site] = bot_visits.get(site, 0) + 1
            bots.setdefault(site, set()).add(record.bot_name)
        if record.is_robots_fetch:
            robots[site] = robots.get(site, 0) + 1
    return {
        site: SiteTraffic(
            site=site,
            visits=visits[site],
            known_bot_visits=bot_visits.get(site, 0),
            unique_bots=len(bots.get(site, ())),
            robots_fetches=robots.get(site, 0),
            bytes_sent=sent[site],
        )
        for site in sorted(visits)
    }
