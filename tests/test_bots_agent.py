"""Unit tests for the crawler agent and spoofed shadows."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bots import agent as agent_module
from repro.bots.agent import (
    BotAgent,
    _is_exempt,
    agent_seed,
    draw_index,
    section_cdf,
)
from repro.bots.behavior import BotProfile, CheckPolicy, ComplianceProfile, NEVER_CHECKS
from repro.bots.spoofer import build_spoof_agents, spoof_compliance_for
from repro.simulation.clock import epoch
from repro.simulation.scenario import quick_scenario
from repro.uaparse.categories import BotCategory, RobotsPromise
from repro.web.generator import build_university_sites
from repro.web.server import WebServer


def make_server() -> WebServer:
    server = WebServer()
    for site in build_university_sites(seed=3):
        server.host(site)
    return server


def make_profile(**overrides) -> BotProfile:
    defaults = dict(
        name="AgentBot",
        user_agent="AgentBot/1.0",
        robots_token="AgentBot",
        category=BotCategory.OTHER,
        entity="Test",
        promise=RobotsPromise.UNKNOWN,
        home_asn=15169,
        accesses_per_day=2000.0,
        session_length_mean=8.0,
        inter_access_mean=5.0,
        compliance=ComplianceProfile(0.5, 0.9, 0.1, 0.9, 0.02, 0.9),
        check=CheckPolicy(interval_hours=12.0),
        experiment_site_share=0.5,
    )
    defaults.update(overrides)
    return BotProfile(**defaults)


class TestAgentSeeding:
    def test_seed_stable(self):
        assert agent_seed(1, "bot") == agent_seed(1, "bot")
        assert agent_seed(1, "bot") != agent_seed(2, "bot")
        assert agent_seed(1, "a") != agent_seed(1, "b")

    def test_agent_traffic_reproducible(self):
        day = epoch("2025-02-12")
        counts = []
        for _ in range(2):
            server = make_server()
            records = []
            server.add_hook(lambda req, res: records.append(req))
            agent = BotAgent(
                profile=make_profile(),
                scenario=quick_scenario(scale=1.0, seed=42),
                server=server,
            )
            agent.emit_day(day)
            counts.append([(r.timestamp, r.path) for r in records])
        assert counts[0] == counts[1]


class TestAgentBehaviour:
    def test_emits_traffic(self):
        server = make_server()
        agent = BotAgent(
            profile=make_profile(),
            scenario=quick_scenario(scale=1.0, seed=1),
            server=server,
        )
        agent.emit_day(epoch("2025-02-12"))
        assert agent.requests_emitted > 50

    def test_checking_bot_fetches_robots(self):
        server = make_server()
        robots_fetches = []
        server.add_hook(
            lambda req, res: robots_fetches.append(req)
            if req.path == "/robots.txt"
            else None
        )
        agent = BotAgent(
            profile=make_profile(),
            scenario=quick_scenario(scale=1.0, seed=1),
            server=server,
        )
        agent.emit_day(epoch("2025-02-12"))
        assert robots_fetches

    def test_never_checking_bot_fetches_no_robots_outside_v3(self):
        server = make_server()
        robots_fetches = []
        server.add_hook(
            lambda req, res: robots_fetches.append(req)
            if req.path == "/robots.txt"
            else None
        )
        profile = make_profile(
            check=NEVER_CHECKS,
            compliance=ComplianceProfile(0.5, 0.5, 0.1, 0.1, 0.0, 0.0),
        )
        agent = BotAgent(
            profile=profile, scenario=quick_scenario(scale=1.0, seed=1), server=server
        )
        agent.emit_day(epoch("2025-02-12"))  # v1 phase day in quick calendar
        assert robots_fetches == []

    def test_burst_multiplier_scales_volume(self):
        scenario = quick_scenario(scale=1.0, seed=1)
        base_profile = make_profile()
        burst_profile = make_profile(burst=("2025-02-12", "2025-02-13", 10.0))
        day = epoch("2025-02-12")

        server_a = make_server()
        agent_a = BotAgent(profile=base_profile, scenario=scenario, server=server_a)
        agent_a.emit_day(day)
        server_b = make_server()
        agent_b = BotAgent(profile=burst_profile, scenario=scenario, server=server_b)
        agent_b.emit_day(day)
        assert agent_b.requests_emitted > 3 * agent_a.requests_emitted

    def test_v3_compliant_bot_mostly_fetches_robots(self):
        scenario = quick_scenario(scale=1.0, seed=5)
        server = make_server()
        records = []
        server.add_hook(lambda req, res: records.append(req))
        profile = make_profile(
            compliance=ComplianceProfile(0.5, 0.5, 0.1, 0.1, 0.0, 1.0),
            experiment_site_share=1.0,
        )
        agent = BotAgent(profile=profile, scenario=scenario, server=server)
        # quick scenario: v3 runs 2025-02-18 .. 2025-02-21
        agent.emit_day(epoch("2025-02-19"))
        experiment = [r for r in records if r.host == scenario.experiment_site]
        robots = [r for r in experiment if r.path == "/robots.txt"]
        assert len(robots) / len(experiment) > 0.9

    def test_crawl_delay_compliance_under_v1(self):
        scenario = quick_scenario(scale=1.0, seed=9)
        server = make_server()
        records = []
        server.add_hook(lambda req, res: records.append(req))
        # Volume low enough that one agent's sessions rarely overlap:
        # the paper's tau-stratified metric interleaves concurrent
        # sessions, so a massively parallel bot measures low even when
        # every within-session delta complies.
        profile = make_profile(
            accesses_per_day=400.0,
            compliance=ComplianceProfile(0.0, 1.0, 0.1, 0.1, 0.0, 0.0),
            experiment_site_share=1.0,
            ip_count=1,
        )
        agent = BotAgent(profile=profile, scenario=scenario, server=server)
        for day in ("2025-02-13", "2025-02-14"):
            agent.emit_day(epoch(day))  # v1 days
        experiment = sorted(
            (r for r in records if r.host == scenario.experiment_site),
            key=lambda r: r.timestamp,
        )
        deltas = [
            later.timestamp - earlier.timestamp
            for earlier, later in zip(experiment, experiment[1:])
        ]
        compliant = sum(1 for delta in deltas if delta >= 30.0)
        assert compliant / len(deltas) > 0.7


class TestExemption:
    def test_exempt_tokens(self):
        assert _is_exempt("Googlebot")
        assert _is_exempt("googlebot-image")
        assert _is_exempt("BaiduSpider")
        assert not _is_exempt("yandex.com/bots")
        assert not _is_exempt("GPTBot")


class TestSpoofers:
    def test_no_spoof_agents_without_asns(self):
        profile = make_profile()
        agents = build_spoof_agents(
            profile, quick_scenario(scale=1.0, seed=1), make_server()
        )
        assert agents == []

    def test_one_agent_per_spoof_asn(self):
        profile = make_profile(spoof_asns=(100, 200), spoof_rate=0.1)
        agents = build_spoof_agents(
            profile, quick_scenario(scale=1.0, seed=1), make_server()
        )
        assert len(agents) == 2
        assert {agent.effective_asn for agent in agents} == {100, 200}

    def test_spoofed_agents_share_victim_ua(self):
        profile = make_profile(spoof_asns=(100,), spoof_rate=0.1)
        (agent,) = build_spoof_agents(
            profile, quick_scenario(scale=1.0, seed=1), make_server()
        )
        assert agent.profile.user_agent == profile.user_agent

    def test_default_spoof_compliance_indifferent(self):
        compliance = spoof_compliance_for("RandomBot")
        assert compliance.v2_endpoint_p == compliance.base_endpoint_p
        assert compliance.v3_robots_share == 0.0

    def test_paper_exceptions_respond(self):
        assert spoof_compliance_for("PerplexityBot").v2_endpoint_p > 0.5
        assert spoof_compliance_for("Bytespider").v3_robots_share > 0.5


class TestStrictRobots:
    def test_strict_agent_never_requests_denied_paths(self):
        """A strict agent precomputes its denied-path set from the
        cached policy (batch can_fetch_many) and skips those targets;
        the default agent probes them via trap_probe_rate."""
        scenario = quick_scenario(scale=1.0, seed=11)
        profile_kwargs = dict(trap_probe_rate=0.3, experiment_site_share=0.0)

        loose_server = make_server()
        loose_hits = []
        loose_server.add_hook(
            lambda req, res: loose_hits.append(req.path)
            if req.path.startswith("/secure/")
            else None
        )
        loose = BotAgent(
            profile=make_profile(**profile_kwargs),
            scenario=scenario,
            server=loose_server,
        )
        loose.emit_day(epoch("2025-02-12"))
        assert loose_hits  # the calibrated agent does probe traps

        # strict run: same profile, same seed, robots enforced
        strict_server = make_server()
        strict_hits = []
        strict_server.add_hook(
            lambda req, res: strict_hits.append(req.path)
            if req.path.startswith("/secure/")
            else None
        )
        strict = BotAgent(
            profile=make_profile(**profile_kwargs),
            scenario=scenario,
            server=strict_server,
            strict_robots=True,
        )
        strict.emit_day(epoch("2025-02-12"))
        assert strict_hits == []
        assert strict.requests_emitted > 0

    def test_strict_agent_caches_denied_set(self):
        scenario = quick_scenario(scale=1.0, seed=11)
        agent = BotAgent(
            profile=make_profile(experiment_site_share=0.0),
            scenario=scenario,
            server=make_server(),
            strict_robots=True,
        )
        agent.emit_day(epoch("2025-02-12"))
        states = [
            state
            for state in agent._robots.values()
            if state.policy is not None
        ]
        assert states
        for state in states:
            assert state.allow_verdicts is not None

    def test_strict_agent_live_checks_paths_added_after_sweep(self):
        """Pages added after the robots fetch are not in the verdict
        cache; the agent must fall back to a live policy check."""
        from repro.web.site import Page

        scenario = quick_scenario(scale=1.0, seed=11)
        server = make_server()
        agent = BotAgent(
            profile=make_profile(experiment_site_share=0.0),
            scenario=scenario,
            server=server,
            strict_robots=True,
        )
        agent.emit_day(epoch("2025-02-12"))
        hostname, state = next(
            (host, state)
            for host, state in agent._robots.items()
            if state.policy is not None
        )
        site = server.sites[hostname]
        site.add_page(Page(path="/secure/added-later", size_bytes=10, section="secure"))
        assert "/secure/added-later" not in (state.allow_verdicts or {})
        assert agent._strictly_denied(site, "/secure/added-later")

    def test_unchanged_robots_is_parsed_and_swept_once(self, monkeypatch):
        """Refetching identical bytes keeps the parsed policy and its
        sweep; a grown site re-sweeps, a new file re-parses."""
        from repro.web.site import Page

        parses = []
        resolve = agent_module.resolve_fetch

        def counted(status, body):
            parses.append(body)
            return resolve(status, body)

        monkeypatch.setattr(agent_module, "resolve_fetch", counted)
        server = make_server()
        agent = BotAgent(
            profile=make_profile(),
            scenario=quick_scenario(scale=1.0, seed=11),
            server=server,
            strict_robots=True,
        )
        site = next(iter(server.sites.values()))
        agent._fetch_robots(site, 0.0, "10.0.0.1")
        state = agent._robots[site.hostname]
        policy, verdicts = state.policy, state.allow_verdicts
        agent._fetch_robots(site, 60.0, "10.0.0.1")
        assert len(parses) == 1
        assert state.policy is policy and state.allow_verdicts is verdicts
        assert state.denied == [
            path
            for path, allowed in verdicts.items()
            if not allowed and path != "/robots.txt"
        ]

        site.add_page(Page(path="/secure/added-later", size_bytes=10))
        agent._fetch_robots(site, 120.0, "10.0.0.1")
        assert len(parses) == 1 and state.policy is policy
        assert state.allow_verdicts["/secure/added-later"] is False
        assert state.denied[-1] == "/secure/added-later"

        site.set_robots("User-agent: *\nDisallow: /\n")
        agent._fetch_robots(site, 180.0, "10.0.0.1")
        assert len(parses) == 2 and state.policy is not policy
        assert not any(state.allow_verdicts.values())


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=12),
    seed=st.integers(min_value=0, max_value=2**63),
    draws=st.integers(min_value=1, max_value=200),
)
def test_cdf_draw_matches_generator_choice(weights, seed, draws):
    """The precomputed-CDF draw is ``Generator.choice(n, p=...)``: the
    same indices from the same doubles, leaving the stream aligned."""
    vector = np.asarray(weights, dtype=float)
    cdf = section_cdf(vector)
    p = vector / vector.sum()
    ours = np.random.default_rng(seed)
    numpy = np.random.default_rng(seed)
    assert [draw_index(ours, cdf) for _ in range(draws)] == [
        int(numpy.choice(len(p), p=p)) for _ in range(draws)
    ]
    assert ours.bit_generator.state == numpy.bit_generator.state
