"""Unit tests for the category aggregation (Table 5 machinery)."""

from repro.analysis.aggregate import category_compliance
from repro.analysis.compliance import Directive
from repro.analysis.perbot import BotDirectiveResult
from repro.analysis.stats import INVALID_TEST, ProportionSample
from repro.uaparse.categories import BotCategory


def result(bot: str, directive: Directive, successes: int, trials: int):
    return BotDirectiveResult(
        bot_name=bot,
        directive=directive,
        baseline=ProportionSample(0, 10),
        treatment=ProportionSample(successes, trials),
        test=INVALID_TEST,
        checked_robots=True,
    )


def make_results():
    """Two SEO bots with different volumes; one AI data scraper."""
    return {
        "AhrefsBot": {
            Directive.CRAWL_DELAY: result("AhrefsBot", Directive.CRAWL_DELAY, 90, 100),
            Directive.DISALLOW_ALL: result("AhrefsBot", Directive.DISALLOW_ALL, 100, 100),
        },
        "SemrushBot": {
            Directive.CRAWL_DELAY: result("SemrushBot", Directive.CRAWL_DELAY, 10, 300),
            Directive.DISALLOW_ALL: result("SemrushBot", Directive.DISALLOW_ALL, 270, 300),
        },
        "GPTBot": {
            Directive.CRAWL_DELAY: result("GPTBot", Directive.CRAWL_DELAY, 50, 100),
            Directive.DISALLOW_ALL: result("GPTBot", Directive.DISALLOW_ALL, 100, 100),
        },
    }


class TestCategoryCompliance:
    def test_weighting_by_accesses(self):
        table = category_compliance(make_results())
        seo = table.cells[BotCategory.SEO_CRAWLER]
        # (90 + 10) / (100 + 300) = 0.25 — the heavier bot dominates.
        assert seo[Directive.CRAWL_DELAY].compliance == 0.25
        assert seo[Directive.CRAWL_DELAY].accesses == 400
        assert seo[Directive.CRAWL_DELAY].bots == 2

    def test_category_average_unweighted_across_directives(self):
        table = category_compliance(make_results())
        seo_avg = table.category_average(BotCategory.SEO_CRAWLER)
        # crawl 0.25, disallow (100+270)/400 = 0.925 -> avg 0.5875
        assert abs(seo_avg - 0.5875) < 1e-9

    def test_directive_average_across_categories(self):
        table = category_compliance(make_results())
        crawl_avg = table.directive_average(Directive.CRAWL_DELAY)
        # SEO 0.25, AI Data 0.5 -> 0.375
        assert abs(crawl_avg - 0.375) < 1e-9

    def test_unknown_bot_lands_in_other(self):
        results = {
            "MysteryBot": {
                Directive.CRAWL_DELAY: result(
                    "MysteryBot", Directive.CRAWL_DELAY, 1, 10
                )
            }
        }
        table = category_compliance(results)
        assert BotCategory.OTHER in table.cells

    def test_empty_results(self):
        table = category_compliance({})
        assert table.cells == {}
        assert table.directive_average(Directive.CRAWL_DELAY) == 0.0
