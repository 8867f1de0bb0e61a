"""Crawler agent: turns a :class:`BotProfile` into simulated traffic.

Each agent owns a private RNG stream (derived from the scenario seed
and its own name, so results are independent of agent iteration
order), a pool of source IPs, and per-site robots.txt state.  During a
session the agent:

1. decides whether a robots.txt check is due (per its
   :class:`~repro.bots.behavior.CheckPolicy`) and, if so, fetches the
   file; a response that differs from the agent's previous fetch of
   that site is parsed through the real engine
   (:func:`repro.robots.fetchstate.resolve_fetch`), an identical one
   reuses the policy already parsed (see :class:`_SiteRobotsState`);
2. emits page requests whose *targets* and *inter-access deltas*
   follow the profile's calibrated compliance parameters for the
   robots.txt version in force on that site at that time;
3. honours the crawl delay advertised by its cached policy when its
   compliance draw says to comply.

The generated traffic therefore measures back (via the analysis
pipeline) to the per-bot ratios in the paper's Table 6.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..robots.corpus import EXEMPT_SEO_BOTS, RobotsVersion, V1_CRAWL_DELAY_SECONDS
from ..robots.fetchstate import resolve_fetch
from ..robots.policy import RobotsPolicy
from ..simulation.clock import SECONDS_PER_DAY, epoch
from ..simulation.iphash import generate_ip_pool
from ..simulation.scenario import StudyScenario
from ..web.message import Request
from ..web.server import WebServer
from ..web.site import ROBOTS_PATH, Website
from .behavior import BotProfile, ComplianceProfile


def agent_seed(master_seed: int, name: str) -> int:
    """Stable per-agent sub-seed (independent of iteration order)."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def section_cdf(weights: np.ndarray) -> np.ndarray:
    """The cumulative distribution ``Generator.choice`` builds from
    ``p=weights / weights.sum()``, computed once per weight vector."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_index(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """One weighted index draw over :func:`section_cdf` output.

    Identical to ``rng.choice(len(cdf), p=p)`` for the ``p`` behind
    ``cdf`` — the same index from the same single double — without
    re-validating ``p`` and rebuilding the CDF on every draw.
    """
    return int(cdf.searchsorted(rng.random(), side="right"))


def _is_exempt(robots_token: str) -> bool:
    """Does the token prefix-match one of the exempted SEO groups?"""
    token = robots_token.lower()
    return any(
        token == exempt.lower() or token.startswith(exempt.lower())
        for exempt in EXEMPT_SEO_BOTS
    )


@dataclass
class _SiteRobotsState:
    """Per-origin robots.txt bookkeeping, kept across fetches.

    ``fetched`` is the last ``(status, body)`` the origin answered and
    ``policy`` the engine's reading of it; a fetch answered with the
    same pair keeps that policy instead of parsing the bytes again.

    ``allow_verdicts`` is only populated for strict and
    violate-after-fetch agents: one batch
    :meth:`~repro.robots.policy.RobotsPolicy.can_fetch_many` sweep
    over the site's path inventory, so per-request compliance checks
    during sessions are dict lookups instead of rule evaluations, and
    ``denied`` lists the paths it disallows (``/robots.txt`` aside) in
    inventory order.  A fetch redoes the sweep only when the policy
    changed or the site grew since: ``swept`` is the page count the
    sweep covered, and a site's pages are only ever added.  Paths
    that appear after the sweep fall back to a live policy check.
    """

    last_check: float | None = None
    fetched: tuple[int, bytes] | None = None
    policy: RobotsPolicy | None = None
    swept: int | None = None
    allow_verdicts: dict[str, bool] | None = None
    denied: list[str] = field(default_factory=list)


@dataclass
class BotAgent:
    """One traffic-generating bot instance.

    Attributes:
        profile: the behavioural calibration.
        scenario: the study calendar (phases, scale, seed).
        server: the web substrate all requests flow through.
        asn: ASN this instance emits from (the profile's home ASN for
            the genuine bot; a spoof ASN for spoofed instances).
        compliance_override: replaces the profile's compliance for
            spoofed instances.
        suffix: distinguishes the RNG stream of spoofed instances.
        strict_robots: when True the agent is a perfectly compliant
            counterfactual: it never requests a path its cached
            robots.txt policy denies.  Enforcement uses a denied-path
            set precomputed in one batch pass per robots fetch (see
            :class:`_SiteRobotsState`); default off, leaving the
            calibrated paper behaviour untouched.
    """

    profile: BotProfile
    scenario: StudyScenario
    server: WebServer
    asn: int | None = None
    compliance_override: ComplianceProfile | None = None
    suffix: str = ""
    strict_robots: bool = False

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(
            agent_seed(self.scenario.seed, self.profile.name + self.suffix)
        )
        self._asn = self.asn if self.asn is not None else self.profile.home_asn
        self._compliance = (
            self.compliance_override
            if self.compliance_override is not None
            else self.profile.compliance
        )
        self._ips = generate_ip_pool(self._rng, self.profile.ip_count)
        self._robots: dict[str, _SiteRobotsState] = {}
        self._exempt = _is_exempt(self.profile.robots_token)
        self._weights_cache: dict[tuple[str, bool], tuple[list[str], "np.ndarray"]] = {}
        self.requests_emitted = 0

    # -- public API -------------------------------------------------------

    def emit_day(self, day_start: float, volume_factor: float = 1.0) -> None:
        """Generate this agent's traffic for one simulated day."""
        traits = self.profile.adversarial
        rate = (
            self.profile.sessions_per_day
            * self.scenario.scale
            * self._burst_multiplier(day_start)
            * volume_factor
            * (traits.session_rate_factor if traits is not None else 1.0)
        )
        n_sessions = int(self._rng.poisson(rate))
        for _ in range(n_sessions):
            start = day_start + float(self._rng.uniform(0.0, SECONDS_PER_DAY))
            self._run_session(start)

    # -- session mechanics ----------------------------------------------

    def _run_session(self, start: float) -> None:
        site = self._choose_site()
        if site is None:
            return
        traits = self.profile.adversarial
        now = start
        ip = self._ips[int(self._rng.integers(0, len(self._ips)))]
        ua = self.profile.user_agent
        asn = None
        if traits is not None:
            if traits.rotates_ua:
                ua = traits.ua_pool[
                    int(self._rng.integers(0, len(traits.ua_pool)))
                ]
            if traits.distributed:
                asn = int(
                    traits.asn_pool[
                        int(self._rng.integers(0, len(traits.asn_pool)))
                    ]
                )
        forced_fetch = traits is not None and traits.violate_after_fetch
        if forced_fetch or self._check_due(site.hostname, now):
            self._fetch_robots(site, now, ip, user_agent=ua, asn=asn)
            now += float(self._rng.uniform(0.5, 3.0))
        n_pages = int(self._rng.geometric(1.0 / max(self.profile.session_length_mean, 1.0)))
        version = self._version_for(site, now)
        delay_q = self._delay_compliance_q(version)
        for index in range(n_pages):
            path = None
            if traits is not None:
                if (
                    traits.rotates_ua
                    and traits.ua_rotate_p > 0
                    and self._rng.random() < traits.ua_rotate_p
                ):
                    ua = traits.ua_pool[
                        int(self._rng.integers(0, len(traits.ua_pool)))
                    ]
                if (
                    traits.violate_after_fetch
                    and self._rng.random() < traits.violation_rate
                ):
                    path = self._violation_path(site)
            if path is None:
                path = self._choose_path(site, version, now)
            if path == ROBOTS_PATH:
                self._fetch_robots(site, now, ip, user_agent=ua, asn=asn)
            elif self._strictly_denied(site, path):
                pass  # compliant counterfactual: denied target skipped
            else:
                self._request(site, path, now, ip, user_agent=ua, asn=asn)
            if index + 1 < n_pages:
                now += self._next_delta(site, version, delay_q)
                version = self._version_for(site, now)

    def _choose_site(self) -> Website | None:
        sites = self.server.sites
        if not sites:
            return None
        experiment = sites.get(self.scenario.experiment_site)
        if experiment is not None and (
            self._rng.random() < self.profile.experiment_site_share
        ):
            return experiment
        hostnames = [
            name for name in sites if name != self.scenario.experiment_site
        ] or list(sites)
        return sites[hostnames[int(self._rng.integers(0, len(hostnames)))]]

    def _version_for(self, site: Website, now: float) -> RobotsVersion:
        """The robots.txt regime governing behaviour at this site/time.

        Only the experiment site rotates versions; exempted SEO bots
        behave as under the base file everywhere (their group grants
        base-level access in v2/v3).
        """
        if site.hostname != self.scenario.experiment_site or self._exempt:
            return RobotsVersion.BASE
        return self.scenario.version_at(now)

    # -- robots.txt interaction ---------------------------------------------

    def _check_due(self, hostname: str, now: float) -> bool:
        policy = self.profile.check
        if policy.never_checks:
            return False
        state = self._robots.setdefault(hostname, _SiteRobotsState())
        interval = policy.interval_seconds()
        assert interval is not None
        if state.last_check is not None:
            jitter = float(self._rng.uniform(0.85, 1.15))
            if now - state.last_check < interval * jitter:
                return False
        return self._rng.random() < policy.reliability

    def _fetch_robots(
        self,
        site: Website,
        now: float,
        ip: str,
        user_agent: str | None = None,
        asn: int | None = None,
    ) -> None:
        """Fetch robots.txt; parse and sweep it only when it changed."""
        request = Request(
            host=site.hostname,
            path=ROBOTS_PATH,
            user_agent=user_agent if user_agent is not None else self.profile.user_agent,
            client_ip=ip,
            asn=asn if asn is not None else self._asn,
            timestamp=now,
        )
        response = self.server.handle(request)
        self.requests_emitted += 1
        state = self._robots.setdefault(site.hostname, _SiteRobotsState())
        state.last_check = now
        fetched = (response.status, response.body or b"")
        if fetched != state.fetched:
            state.fetched = fetched
            state.policy = resolve_fetch(*fetched).policy
            state.swept = None
        assert state.policy is not None
        traits = self.profile.adversarial
        sweeps = self.strict_robots or (
            traits is not None and traits.violate_after_fetch
        )
        if sweeps and state.swept != len(site.pages):
            inventory = site.all_paths()
            verdicts = state.policy.can_fetch_many(
                self.profile.robots_token, inventory
            )
            state.allow_verdicts = dict(zip(inventory, verdicts))
            state.denied = [
                path
                for path, allowed in zip(inventory, verdicts)
                if not allowed and path != ROBOTS_PATH
            ]
            state.swept = len(inventory)

    def _strictly_denied(self, site: Website, path: str) -> bool:
        """Whether a strict agent must skip ``path`` on this site."""
        if not self.strict_robots:
            return False
        state = self._robots.get(site.hostname)
        if state is None or state.policy is None:
            return False  # nothing fetched yet: nothing to comply with
        if state.allow_verdicts is not None:
            allowed = state.allow_verdicts.get(path)
            if allowed is not None:
                return not allowed
        # Path unknown at sweep time (site grew since): live check.
        return not state.policy.can_fetch(self.profile.robots_token, path)

    def _violation_path(self, site: Website) -> str | None:
        """A deliberately disallowed target (fetch-then-violate).

        Drawn from the denied paths of the sweep behind the last
        robots fetch (see :meth:`_fetch_robots`); falls back to the
        trap section — disallowed under every corpus version — when
        no policy has been fetched yet this session or it denies
        nothing.
        """
        state = self._robots.get(site.hostname)
        if state is not None and state.denied:
            denied = state.denied
            return denied[int(self._rng.integers(0, len(denied)))]
        traps = site.paths_in_section("secure")
        if traps:
            return traps[int(self._rng.integers(0, len(traps)))]
        return None

    def _advertised_delay(self, site: Website) -> float | None:
        """Crawl delay the bot believes applies (from its cached policy)."""
        state = self._robots.get(site.hostname)
        if state is None or state.policy is None:
            return None
        return state.policy.crawl_delay(self.profile.robots_token)

    # -- target / delta generation --------------------------------------------

    def _delay_compliance_q(self, version: RobotsVersion) -> float:
        """Within-session probability of a >= 30 s delta."""
        target = (
            self._compliance.v1_delay_p
            if version is RobotsVersion.V1_CRAWL_DELAY
            else self._compliance.base_delay_p
        )
        return self.profile.within_session_delay_p(target)

    def _next_delta(
        self, site: Website, version: RobotsVersion, delay_q: float
    ) -> float:
        if self._rng.random() < delay_q:
            floor = self._advertised_delay(site) or V1_CRAWL_DELAY_SECONDS
            delta = floor + float(self._rng.exponential(25.0))
        else:
            natural = float(
                self._rng.lognormal(np.log(self.profile.inter_access_mean), 0.6)
            )
            delta = min(natural, 29.0)
        return max(0.4, min(delta, 290.0))

    def _choose_path(
        self, site: Website, version: RobotsVersion, now: float
    ) -> str:
        """Pick the next target according to the calibrated compliance."""
        compliance = self._compliance
        if self.profile.trap_probe_rate > 0 and (
            self._rng.random() < self.profile.trap_probe_rate
        ):
            traps = site.paths_in_section("secure")
            if traps:
                return traps[int(self._rng.integers(0, len(traps)))]
        if version is RobotsVersion.V3_DISALLOW_ALL:
            if self._rng.random() < compliance.v3_robots_share:
                return ROBOTS_PATH
            return self._content_path(site)
        if version is RobotsVersion.V2_ENDPOINT:
            if self._rng.random() < compliance.v2_endpoint_p:
                return self._page_data_path(site)
            return self._content_path(site, exclude_page_data=True)
        # Base and v1 regimes share the baseline target mix.
        roll = self._rng.random()
        if roll < compliance.base_robots_share:
            return ROBOTS_PATH
        if roll < compliance.base_robots_share + compliance.base_endpoint_p:
            return self._page_data_path(site)
        return self._content_path(site, exclude_page_data=True)

    def _content_path(self, site: Website, exclude_page_data: bool = False) -> str:
        """Interest-weighted draw over the site's content sections."""
        key = (site.hostname, exclude_page_data)
        cached = self._weights_cache.get(key)
        if cached is None:
            sections = self._section_weights(site, exclude_page_data)
            if not sections:
                cached = ([], np.zeros(0))
            else:
                names = list(sections)
                weights = np.fromiter(sections.values(), dtype=float)
                cached = (names, section_cdf(weights))
            self._weights_cache[key] = cached
        names, cdf = cached
        if not names:
            return "/"
        section = names[draw_index(self._rng, cdf)]
        paths = site.paths_in_section(section)
        if not paths:
            return "/"
        return paths[int(self._rng.integers(0, len(paths)))]

    def _page_data_path(self, site: Website) -> str:
        paths = site.paths_in_section("page-data")
        if not paths:
            return ROBOTS_PATH
        return paths[int(self._rng.integers(0, len(paths)))]

    def _section_weights(
        self, site: Website, exclude_page_data: bool
    ) -> dict[str, float]:
        weights: dict[str, float] = {}
        for section in site.section_index():
            if section in ("meta", "secure"):
                continue  # disallowed even by the base file; bots avoid
            if exclude_page_data and section == "page-data":
                continue
            weights[section] = self.profile.interests.get(section, 1.0)
        if not exclude_page_data and "page-data" in weights:
            # Without an explicit interest, page-data draws happen via
            # the endpoint-share parameter, not the content mix.
            if "page-data" not in self.profile.interests:
                weights.pop("page-data")
        return weights

    def _request(
        self,
        site: Website,
        path: str,
        now: float,
        ip: str,
        user_agent: str | None = None,
        asn: int | None = None,
    ) -> None:
        request = Request(
            host=site.hostname,
            path=path,
            user_agent=user_agent if user_agent is not None else self.profile.user_agent,
            client_ip=ip,
            asn=asn if asn is not None else self._asn,
            timestamp=now,
        )
        self.server.handle(request)
        self.requests_emitted += 1

    def _burst_multiplier(self, day_start: float) -> float:
        if self.profile.burst is None:
            return 1.0
        start_day, end_day, multiplier = self.profile.burst
        if epoch(start_day) <= day_start < epoch(end_day):
            return multiplier
        return 1.0

    # -- introspection ---------------------------------------------------------

    @property
    def ip_pool(self) -> list[str]:
        return list(self._ips)

    @property
    def effective_asn(self) -> int:
        return self._asn
