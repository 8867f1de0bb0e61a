"""Unit tests for the known-bot registry."""

from repro.uaparse.categories import BotCategory, RobotsPromise
from repro.uaparse.registry import default_registry


class TestIdentify:
    def test_googlebot_ua(self):
        record = default_registry().identify(
            "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)"
        )
        assert record is not None and record.name == "Googlebot"

    def test_specific_beats_generic_google(self):
        record = default_registry().identify("Googlebot-Image/1.0")
        assert record is not None and record.name == "Googlebot-Image"

    def test_gptbot(self):
        record = default_registry().identify(
            "Mozilla/5.0 AppleWebKit/537.36; compatible; GPTBot/1.2"
        )
        assert record is not None
        assert record.name == "GPTBot"
        assert record.entity == "OpenAI"
        assert record.category is BotCategory.AI_DATA_SCRAPER

    def test_yandex_family(self):
        registry = default_registry()
        for ua in (
            "Mozilla/5.0 (compatible; YandexBot/3.0; +http://yandex.com/bots)",
        ):
            record = registry.identify(ua)
            assert record is not None and record.name == "Yandex.com/bots"

    def test_headless_chrome(self):
        record = default_registry().identify(
            "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 "
            "(KHTML, like Gecko) HeadlessChrome/120.0.0.0 Safari/537.36"
        )
        assert record is not None
        assert record.category is BotCategory.HEADLESS_BROWSER

    def test_plain_browser_not_identified(self):
        record = default_registry().identify(
            "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
            "(KHTML, like Gecko) Chrome/120.0.0.0 Safari/537.36"
        )
        assert record is None

    def test_case_insensitive(self):
        assert default_registry().identify("GPTBOT/1.0") is not None

    def test_empty_ua(self):
        assert default_registry().identify("") is None

    def test_applebot_extended_distinct(self):
        registry = default_registry()
        plain = registry.identify("Applebot/0.1")
        extended = registry.identify("Applebot-Extended/0.1")
        assert plain is not None and plain.name == "Applebot"
        assert extended is not None and extended.name == "Applebot-Extended"


class TestRegistryShape:
    def test_at_least_130_bots(self):
        """The paper analyzes 130 self-declared bots; the registry must
        cover a population at least that large."""
        assert len(default_registry()) >= 130

    def test_all_categories_represented(self):
        registry = default_registry()
        for category in (
            BotCategory.AI_DATA_SCRAPER,
            BotCategory.AI_ASSISTANT,
            BotCategory.AI_SEARCH_CRAWLER,
            BotCategory.SEARCH_ENGINE_CRAWLER,
            BotCategory.SEO_CRAWLER,
            BotCategory.FETCHER,
            BotCategory.HEADLESS_BROWSER,
            BotCategory.ARCHIVER,
            BotCategory.SCRAPER,
            BotCategory.INTELLIGENCE_GATHERER,
        ):
            assert registry.by_category(category), category

    def test_names_unique(self):
        names = default_registry().names()
        assert len(names) == len(set(names))

    def test_paper_table6_bots_present(self):
        registry = default_registry()
        for name in (
            "AcademicBotRTU",
            "AhrefsBot",
            "Amazonbot",
            "Apache-HttpClient",
            "Applebot",
            "Axios",
            "Bytespider",
            "ChatGPT-User",
            "ClaudeBot",
            "GPTBot",
            "PerplexityBot",
            "PetalBot",
            "SemrushBot",
            "SkypeUriPreview",
        ):
            assert name in registry, name

    def test_promises_match_paper(self):
        registry = default_registry()
        assert registry.get("Bytespider").promise is RobotsPromise.NO
        assert registry.get("PerplexityBot").promise is RobotsPromise.NO
        assert registry.get("GPTBot").promise is RobotsPromise.YES
        assert registry.get("ClaudeBot").promise is RobotsPromise.YES
        assert registry.get("HeadlessChrome").promise is RobotsPromise.UNKNOWN


class TestCategoryOf:
    def test_unknown_defaults_to_other(self):
        assert default_registry().category_of("SomeRandomAgent") is BotCategory.OTHER

    def test_category_labels_round_trip(self):
        for category in BotCategory:
            assert BotCategory.from_label(category.value) is category

    def test_unknown_label_maps_to_other(self):
        assert BotCategory.from_label("Martian Probes") is BotCategory.OTHER
