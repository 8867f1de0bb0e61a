"""The robots engine against the stdlib ``urllib.robotparser`` oracle.

Scrapers commonly gate each fetch on ``RobotFileParser.can_fetch``.  The
two parsers read the paper's four robots.txt files differently in three
known ways, and every disagreement on the probe set below falls into
exactly one of them:

(a) first match vs longest match: each group lists ``Allow: /`` before
    its ``Disallow`` lines, so urllib allows ``/404``, ``/dev-404-page``
    and ``/secure/area-000``, which the longest match denies;
(b) no wildcards: urllib reads ``Allow: /page-data/*`` literally and
    denies both ``page-data`` paths that v2 permits;
(c) the ``/robots.txt`` carve-out: the engine always allows it, urllib
    applies the group's rules to it.

Outside those classes the two agree verdict for verdict, and
``crawl_delay`` agrees everywhere.
"""

from urllib.robotparser import RobotFileParser

import pytest

from repro.robots.corpus import (
    RobotsVersion,
    all_versions,
    policy_for_version,
    render_version,
)
from repro.robots.diff import DEFAULT_PROBE_AGENTS, DEFAULT_PROBE_PATHS
from repro.robots.policy import RobotsPolicy

AGENTS = (*DEFAULT_PROBE_AGENTS, "DuckAssistBot", "Googlebot-Image")
PATHS = (
    *DEFAULT_PROBE_PATHS,
    "/dev-404-page",
    "/page-data/x/page-data.json",
    "/robots.txt",
)
ORIGIN = "https://site.example"

FIRST_MATCH_PATHS = ("/404", "/dev-404-page", "/secure/area-000")
WILDCARD_PATHS = ("/page-data/index/page-data.json", "/page-data/x/page-data.json")

#: Per version: (all disagreements, class a, class b, class c).
PINNED = {
    RobotsVersion.BASE: (33, 33, 0, 0),
    RobotsVersion.V1_CRAWL_DELAY: (33, 33, 0, 0),
    RobotsVersion.V2_ENDPOINT: (33, 12, 14, 7),
    RobotsVersion.V3_DISALLOW_ALL: (19, 12, 0, 7),
}


def _urllib(text: str) -> RobotFileParser:
    parser = RobotFileParser()
    parser.parse(text.splitlines())
    return parser


def _disagreements(text: str, policy: RobotsPolicy) -> list[tuple[str, str, bool]]:
    """(agent, path, urllib verdict) wherever the two verdicts differ."""
    oracle = _urllib(text)
    return [
        (agent, path, expected)
        for agent in AGENTS
        for path in PATHS
        if (expected := oracle.can_fetch(agent, ORIGIN + path))
        != policy.can_fetch(agent, path)
    ]


def _classes(version: RobotsVersion) -> tuple[int, int, int, int]:
    found = _disagreements(render_version(version), policy_for_version(version))
    first_match = [d for d in found if d[1] in FIRST_MATCH_PATHS and d[2]]
    wildcard = [d for d in found if d[1] in WILDCARD_PATHS and not d[2]]
    carve_out = [d for d in found if d[1] == "/robots.txt" and not d[2]]
    return len(found), len(first_match), len(wildcard), len(carve_out)


def test_probe_set_is_110_verdicts_per_file():
    assert len(AGENTS) * len(PATHS) == 110


@pytest.mark.parametrize("version", all_versions(), ids=lambda v: v.value)
def test_every_disagreement_falls_in_one_class(version):
    total, first_match, wildcard, carve_out = _classes(version)
    assert total == first_match + wildcard + carve_out
    assert total == PINNED[version][0]


@pytest.mark.parametrize("version", all_versions(), ids=lambda v: v.value)
def test_class_a_first_match_vs_longest_match(version):
    assert _classes(version)[1] == PINNED[version][1]


@pytest.mark.parametrize("version", all_versions(), ids=lambda v: v.value)
def test_class_b_no_wildcards(version):
    assert _classes(version)[2] == PINNED[version][2]


@pytest.mark.parametrize("version", all_versions(), ids=lambda v: v.value)
def test_class_c_robots_txt_carve_out(version):
    assert _classes(version)[3] == PINNED[version][3]


def test_crawl_delay_agrees_on_all_44_pairs():
    pairs = [
        (
            _urllib(render_version(version)).crawl_delay(agent),
            policy_for_version(version).crawl_delay(agent),
        )
        for version in all_versions()
        for agent in AGENTS
    ]
    assert len(pairs) == 44
    assert all(expected == actual for expected, actual in pairs)


def test_prefix_rules_without_overlap_agree_exactly():
    # No wildcards, no Allow/Disallow overlap and no /robots.txt probe:
    # none of the three classes can arise.
    text = (
        "User-agent: GPTBot\n"
        "Disallow: /news/\n"
        "Disallow: /people/\n"
        "\n"
        "User-agent: *\n"
        "Disallow: /secure/\n"
        "Disallow: /404\n"
    )
    policy = RobotsPolicy.from_text(text)
    oracle = _urllib(text)
    probes = [path for path in PATHS if path != "/robots.txt"]
    verdicts = [
        (oracle.can_fetch(agent, ORIGIN + path), policy.can_fetch(agent, path))
        for agent in AGENTS
        for path in probes
    ]
    assert all(expected == actual for expected, actual in verdicts)
    assert any(not actual for _, actual in verdicts)
