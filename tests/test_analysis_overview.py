"""Unit tests for the dataset-overview analyses (Tables 2-3, Figures 2-4)."""

from repro.analysis.overview import (
    bytes_cdf_by_category,
    category_session_counts,
    daily_sessions_by_category,
    dataset_overview,
    SiteTraffic,
    overview_row,
    site_traffic,
    top_bots,
)
from repro.logs.schema import LogRecord
from repro.uaparse.categories import BotCategory

DAY = 86_400.0
BASE = 1_739_318_400.0  # 2025-02-12T00:00:00Z


def record(
    timestamp: float,
    ip: str = "ip1",
    ua: str = "GPTBot/1.2",
    bot: str | None = "GPTBot",
    category: BotCategory | None = BotCategory.AI_DATA_SCRAPER,
    nbytes: int = 1000,
    path: str = "/a",
    asn: int = 1,
    site: str = "s.example",
) -> LogRecord:
    return LogRecord(
        useragent=ua,
        timestamp=timestamp,
        ip_hash=ip,
        asn=asn,
        sitename=site,
        uri_path=path,
        status_code=200,
        bytes_sent=nbytes,
        bot_name=bot,
        bot_category=category,
    )


def browser(timestamp: float, ip: str = "human") -> LogRecord:
    return record(
        timestamp, ip=ip, ua="Mozilla/5.0 Chrome", bot=None, category=None
    )


class TestOverviewRow:
    def test_counts(self):
        records = [
            record(BASE, ip="a", path="/x"),
            record(BASE + 10, ip="a", path="/y"),
            browser(BASE + 20, ip="b"),
        ]
        row = overview_row(records)
        assert row.unique_ip_hashes == 2
        assert row.unique_user_agents == 2
        assert row.total_bytes == 3000
        assert row.unique_page_visits == 3  # /x, /y, /a
        assert row.total_page_visits == 2  # two sessions
        assert row.avg_bytes_per_session == 1500.0

    def test_empty(self):
        row = overview_row([])
        assert row.total_page_visits == 0
        assert row.avg_bytes_per_session == 0.0


class TestDatasetOverview:
    def test_two_rows(self):
        records = [record(BASE), browser(BASE + 5)]
        rows = dataset_overview(records)
        assert set(rows) == {"All data", "Known bots"}
        assert rows["Known bots"].unique_ip_hashes == 1
        assert rows["All data"].unique_ip_hashes == 2


class TestTopBots:
    def test_ranking_by_accesses(self):
        records = [record(BASE + i, bot="GPTBot") for i in range(10)]
        records += [
            record(BASE + i, ip="c", ua="ClaudeBot/1.0", bot="ClaudeBot")
            for i in range(5)
        ]
        records += [browser(BASE + i) for i in range(5)]
        activity = top_bots(records)
        assert activity[0].bot_name == "GPTBot"
        assert activity[0].hits == 10
        assert activity[0].traffic_share == 0.5
        assert activity[1].bot_name == "ClaudeBot"

    def test_count_limit(self):
        records = []
        for index in range(30):
            records.append(
                record(BASE, ip=f"ip{index}", ua=f"Bot{index}/1", bot=f"Bot{index}")
            )
        assert len(top_bots(records, count=20)) == 20

    def test_gigabytes(self):
        records = [record(BASE, nbytes=2_000_000_000)]
        assert abs(top_bots(records)[0].gigabytes - 2.0) < 1e-9


class TestCategorySessions:
    def test_counts_by_category(self):
        records = [record(BASE)]
        records += [
            record(
                BASE + 10_000,
                ip="x",
                ua="AhrefsBot/7",
                bot="AhrefsBot",
                category=BotCategory.SEO_CRAWLER,
            )
        ]
        counts = category_session_counts(records)
        assert counts[BotCategory.AI_DATA_SCRAPER] == 1
        assert counts[BotCategory.SEO_CRAWLER] == 1

    def test_anonymous_excluded(self):
        assert category_session_counts([browser(BASE)]) == {}


class TestDailySessions:
    def test_per_day_series(self):
        records = [record(BASE), record(BASE + DAY, ip="z")]
        series = daily_sessions_by_category(records, top=5)
        days = series[BotCategory.AI_DATA_SCRAPER]
        assert days == {"2025-02-12": 1, "2025-02-13": 1}

    def test_top_limit(self):
        records = []
        categories = list(BotCategory)[:7]
        for index, category in enumerate(categories):
            records.append(
                record(
                    BASE,
                    ip=f"ip{index}",
                    ua=f"B{index}/1",
                    bot=f"B{index}",
                    category=category,
                )
            )
        assert len(daily_sessions_by_category(records, top=3)) == 3


class TestBytesCdf:
    def test_cdf_reaches_one(self):
        records = [
            record(BASE, nbytes=100),
            record(BASE + DAY, nbytes=300),
            record(BASE + 2 * DAY, nbytes=600),
        ]
        series = bytes_cdf_by_category(records, top=1)
        points = series[BotCategory.AI_DATA_SCRAPER]
        assert points[-1][1] == 1.0
        assert points[0][1] == 0.1  # 100 / 1000

    def test_monotone(self):
        records = [record(BASE + i * DAY, nbytes=i + 1) for i in range(10)]
        series = bytes_cdf_by_category(records)
        values = [v for _, v in series[BotCategory.AI_DATA_SCRAPER]]
        assert values == sorted(values)


class TestSiteTraffic:
    def test_hand_computed_tallies(self):
        def on(site, path, nbytes, bot=None):
            return record(0.0, bot=bot, path=path, nbytes=nbytes, site=site)

        records = [
            on("b.example", "/", 700),  # a site no bot ever visits
            on("a.example", "/robots.txt", 100, bot="GPTBot"),
            on("a.example", "/page", 200, bot="GPTBot"),
            on("a.example", "/robots.txt?x=1", 300, bot="ClaudeBot"),
            on("a.example", "/x", 400, bot="ClaudeBot"),
            on("a.example", "/robots.txt", 500),  # unknown visitor
            on("a.example", "/", 600),
            on("b.example", "/robots.txt.bak", 800),  # not a probe
        ]
        assert site_traffic(records) == {
            "a.example": SiteTraffic(
                site="a.example",
                visits=6,
                known_bot_visits=4,
                unique_bots=2,
                robots_fetches=3,
                bytes_sent=2100,
            ),
            "b.example": SiteTraffic(
                site="b.example",
                visits=2,
                known_bot_visits=0,
                unique_bots=0,
                robots_fetches=0,
                bytes_sent=1500,
            ),
        }
        assert list(site_traffic(records)) == ["a.example", "b.example"]

    def test_empty(self):
        assert site_traffic([]) == {}
