"""Unit tests for log preprocessing: scanners, enrichment."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs.preprocess import (
    Preprocessor,
    find_scanner_ips,
    known_bot_records,
    looks_like_probe,
    records_by_bot,
    records_by_category,
    scanner_stats,
)
from repro.logs.schema import LogRecord
from repro.uaparse.categories import BotCategory


def record(
    path: str = "/a",
    ip: str = "ip1",
    ua: str = "Mozilla/5.0 Chrome/120",
    asn: int = 15169,
    timestamp: float = 0.0,
) -> LogRecord:
    return LogRecord(
        useragent=ua,
        timestamp=timestamp,
        ip_hash=ip,
        asn=asn,
        sitename="s.example",
        uri_path=path,
        status_code=200,
        bytes_sent=10,
    )


class TestProbeHeuristic:
    def test_probe_paths(self):
        assert looks_like_probe("/wp-admin/setup-config.php")
        assert looks_like_probe("/.env")
        assert looks_like_probe("/vendor/phpunit/whatever")

    def test_normal_paths(self):
        assert not looks_like_probe("/news/article-001")
        assert not looks_like_probe("/")


class TestScannerDetection:
    def test_scanner_ip_found(self):
        records = [record(path="/.env", ip="scanner") for _ in range(25)]
        records += [record(path="/news/a", ip="human") for _ in range(25)]
        assert find_scanner_ips(records) == {"scanner"}

    def test_low_volume_ip_not_flagged(self):
        records = [record(path="/.env", ip="light") for _ in range(5)]
        assert find_scanner_ips(records) == set()

    def test_mixed_traffic_below_fraction_not_flagged(self):
        records = [record(path="/.env", ip="mixed") for _ in range(10)]
        records += [record(path="/news/a", ip="mixed") for _ in range(30)]
        assert find_scanner_ips(records) == set()


def per_record_scanner_stats(records):
    """The oracle: one ``looks_like_probe`` call per record."""
    totals, probes = Counter(), Counter()
    for row in records:
        totals[row.ip_hash] += 1
        if looks_like_probe(row.uri_path):
            probes[row.ip_hash] += 1
    return len(records), totals, probes


class TestScannerStats:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["ip1", "ip2", "ip3"]),
                st.sampled_from(
                    ["/", "/.env", "/WP-Admin/x", "/news/a", "/cgi-bin/", "/ä"]
                )
                | st.text(max_size=12),
            ),
            max_size=40,
        )
    )
    def test_matches_per_record_oracle(self, rows):
        records = [record(path=path, ip=ip) for ip, path in rows]
        assert scanner_stats(iter(records)) == per_record_scanner_stats(records)


class TestPreprocessor:
    def test_scanner_records_removed(self):
        records = [record(path="/wp-login.php", ip="scanner") for _ in range(30)]
        records += [record(path="/news/a", ip="ok")]
        kept, report = Preprocessor().run(records)
        assert len(kept) == 1
        assert report.scanner_records == 30
        assert report.scanner_ips == {"scanner"}
        assert report.input_records == 31

    def test_bot_enrichment(self):
        records = [record(ua="GPTBot/1.2")]
        kept, report = Preprocessor().run(records)
        assert kept[0].bot_name == "GPTBot"
        assert kept[0].bot_category is BotCategory.AI_DATA_SCRAPER
        assert report.identified_bots == 1

    def test_browser_not_identified(self):
        kept, report = Preprocessor().run([record()])
        assert kept[0].bot_name is None
        assert report.identified_bots == 0

    def test_asn_enrichment(self):
        kept, report = Preprocessor().run([record(asn=15169)])
        assert kept[0].asn_name == "GOOGLE"
        assert report.unique_asns == 1

    def test_unknown_asn_synthesized(self):
        kept, _ = Preprocessor().run([record(asn=987654)])
        assert kept[0].asn_name == "AS987654"

    def test_scanner_filter_can_be_disabled(self):
        records = [record(path="/wp-login.php", ip="scanner") for _ in range(30)]
        kept, _ = Preprocessor(drop_scanners=False).run(records)
        assert len(kept) == 30

    def test_partial_whois_map_counts_misses(self):
        """A whois client returning a partial result map must not
        crash the run; unresolved rows stay unenriched."""

        class PartialWhois:
            def lookup_many(self, asns):
                from repro.asn.whois import WhoisResult

                return {
                    asn: WhoisResult(
                        asn=asn, handle=f"AS{asn}", org_name="X", country="US"
                    )
                    for asn in asns
                    if asn == 15169  # drops every other ASN
                }

        records = [record(asn=15169), record(asn=64500), record(asn=64501)]
        kept, report = Preprocessor(whois=PartialWhois()).run(records)
        assert len(kept) == 3
        assert kept[0].asn_name == "AS15169"
        assert kept[1].asn_name is None
        assert kept[2].asn_name is None
        assert report.whois_misses == 2
        assert report.unique_asns == 3

    def test_full_whois_map_reports_zero_misses(self):
        _, report = Preprocessor().run([record(asn=15169)])
        assert report.whois_misses == 0


class TestGrouping:
    def test_known_bot_records(self):
        records = [record(ua="GPTBot/1.2"), record()]
        kept, _ = Preprocessor().run(records)
        assert len(known_bot_records(kept)) == 1

    def test_records_by_bot(self):
        records = [record(ua="GPTBot/1.2"), record(ua="ClaudeBot/1.0"), record()]
        kept, _ = Preprocessor().run(records)
        grouped = records_by_bot(kept)
        assert set(grouped) == {"GPTBot", "ClaudeBot"}

    def test_records_by_category(self):
        records = [record(ua="GPTBot/1.2"), record(ua="AhrefsBot/7.0")]
        kept, _ = Preprocessor().run(records)
        grouped = records_by_category(kept)
        assert BotCategory.AI_DATA_SCRAPER in grouped
        assert BotCategory.SEO_CRAWLER in grouped
