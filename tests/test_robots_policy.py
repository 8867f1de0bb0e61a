"""Unit tests for the RobotsPolicy access API."""

import pytest

from repro.robots.corpus import all_versions, policy_for_version
from repro.robots.diff import DEFAULT_PROBE_AGENTS
from repro.robots.policy import RobotsPolicy

#: The diff probe agents plus an exempt SEO bot and a prefix token.
DELAY_AGENTS = (*DEFAULT_PROBE_AGENTS, "DuckAssistBot", "Googlebot-Image")

PAPER_STYLE = """\
User-agent: Googlebot
Allow: /
Disallow: /404
Disallow: /secure/*

User-agent: *
Allow: /page-data/*
Disallow: /
"""


class TestCanFetch:
    def test_named_group_access(self):
        policy = RobotsPolicy.from_text(PAPER_STYLE)
        assert policy.can_fetch("Googlebot", "/anything")
        assert not policy.can_fetch("Googlebot", "/404")
        assert not policy.can_fetch("Googlebot", "/secure/area")

    def test_catch_all_restrictions(self):
        policy = RobotsPolicy.from_text(PAPER_STYLE)
        assert not policy.can_fetch("GPTBot", "/news/article")
        assert policy.can_fetch("GPTBot", "/page-data/index/page-data.json")

    def test_robots_txt_always_fetchable(self):
        policy = RobotsPolicy.from_text(PAPER_STYLE)
        assert policy.can_fetch("GPTBot", "/robots.txt")
        assert RobotsPolicy.disallow_all().can_fetch("any", "/robots.txt")

    def test_agent_matching_case_insensitive(self):
        policy = RobotsPolicy.from_text(PAPER_STYLE)
        assert policy.can_fetch("googlebot", "/anything")

    def test_prefix_product_token(self):
        policy = RobotsPolicy.from_text(PAPER_STYLE)
        assert policy.can_fetch("Googlebot-Image", "/anything")

    def test_empty_robots_allows_everything(self):
        policy = RobotsPolicy.from_text("")
        assert policy.can_fetch("any", "/x")


class TestForcedPolicies:
    def test_allow_all(self):
        policy = RobotsPolicy.allow_all()
        assert policy.can_fetch("any", "/x")
        assert policy.crawl_delay("any") is None

    def test_disallow_all(self):
        policy = RobotsPolicy.disallow_all()
        assert not policy.can_fetch("any", "/x")


class TestCrawlDelay:
    def test_delay_for_catch_all(self):
        policy = RobotsPolicy.from_text(
            "User-agent: *\nAllow: /\nCrawl-delay: 30\n"
        )
        assert policy.crawl_delay("GPTBot") == 30.0

    def test_specific_group_without_delay(self):
        text = (
            "User-agent: Googlebot\nAllow: /\n\n"
            "User-agent: *\nCrawl-delay: 30\n"
        )
        policy = RobotsPolicy.from_text(text)
        # Googlebot is governed by its own group, which sets no delay.
        assert policy.crawl_delay("Googlebot") is None
        assert policy.crawl_delay("Other") == 30.0


class TestDecide:
    def test_decision_carries_rule_and_reason(self):
        policy = RobotsPolicy.from_text(PAPER_STYLE)
        decision = policy.decide("GPTBot", "/news/x")
        assert not decision.allowed
        assert decision.matched_rule is not None
        assert decision.matched_rule.path == "/"
        assert "disallows" in decision.reason

    def test_default_allow_reason(self):
        policy = RobotsPolicy.from_text("User-agent: x\nDisallow: /y\n")
        decision = policy.decide("unrelated", "/z")
        assert decision.allowed
        assert decision.matched_rule is None


class TestHelpers:
    def test_allowed_paths_filter(self):
        policy = RobotsPolicy.from_text(PAPER_STYLE)
        paths = ["/a", "/page-data/x", "/robots.txt"]
        assert policy.allowed_paths("GPTBot", paths) == [
            "/page-data/x",
            "/robots.txt",
        ]

    def test_governing_group(self):
        policy = RobotsPolicy.from_text(PAPER_STYLE)
        group = policy.governing_group("Googlebot")
        assert group is not None
        assert group.user_agents == ["Googlebot"]


def _unmemoized_delay(policy, agent):
    if policy.robots is None:
        return None
    for group in policy.robots.matching_groups(agent):
        if group.crawl_delay is not None:
            return group.crawl_delay
    return None


#: The four paper files, the fetch-failure policies, and a file whose
#: groups set different delays.
DELAY_POLICIES = {
    **{version.value: policy_for_version(version) for version in all_versions()},
    "allow_all": RobotsPolicy.allow_all(),
    "disallow_all": RobotsPolicy.disallow_all(),
    "per_group": RobotsPolicy.from_text(
        "User-agent: Googlebot\nCrawl-delay: 5\n\n"
        "User-agent: GPTBot\nDisallow: /\n\n"
        "User-agent: *\nCrawl-delay: 30\n"
    ),
}


@pytest.mark.parametrize("name", list(DELAY_POLICIES))
def test_memoized_crawl_delay_matches_group_scan(name):
    policy = DELAY_POLICIES[name]
    assert len(DELAY_AGENTS) == 11
    expected = [_unmemoized_delay(policy, agent) for agent in DELAY_AGENTS]
    for _ in range(2):  # first call fills the memo, second reads it
        assert [policy.crawl_delay(agent) for agent in DELAY_AGENTS] == expected
