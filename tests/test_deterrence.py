"""Unit tests for the deterrence toolkit."""

import pytest

from repro.deterrence.blocklist import Blocklist, EscalationRule
from repro.deterrence.gateway import DeterrenceGateway, default_gateway
from repro.deterrence.ratelimit import RateKey, RateLimiter, TokenBucket
from repro.deterrence.tarpit import TARPIT_PREFIX, TarpitGenerator
from repro.robots.policy import RobotsPolicy
from repro.web.message import Request
from repro.web.server import WebServer
from repro.web.site import Page, Website


def make_request(
    path: str = "/",
    ip: str = "198.51.100.1",
    ua: str = "Bot/1.0",
    timestamp: float = 0.0,
    asn: int = 1,
) -> Request:
    return Request(
        host="a.example",
        path=path,
        user_agent=ua,
        client_ip=ip,
        asn=asn,
        timestamp=timestamp,
    )


def make_server() -> WebServer:
    server = WebServer()
    site = Website(hostname="a.example")
    site.add_page(Page(path="/", size_bytes=1000, section="home"))
    server.host(site)
    return server


class TestTokenBucket:
    def test_burst_then_throttle(self):
        bucket = TokenBucket(capacity=3, refill_per_second=1.0)
        assert all(bucket.try_consume(0.0) for _ in range(3))
        assert not bucket.try_consume(0.0)

    def test_refill(self):
        bucket = TokenBucket(capacity=2, refill_per_second=1.0)
        bucket.try_consume(0.0)
        bucket.try_consume(0.0)
        assert not bucket.try_consume(0.5)
        assert bucket.try_consume(1.6)

    def test_capacity_cap(self):
        bucket = TokenBucket(capacity=2, refill_per_second=10.0)
        bucket.try_consume(0.0)
        # Long idle: refills to capacity, not beyond.
        assert bucket.try_consume(100.0)
        assert bucket.try_consume(100.0)
        assert not bucket.try_consume(100.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(capacity=0, refill_per_second=1)
        with pytest.raises(ValueError):
            TokenBucket(capacity=1, refill_per_second=0)


class TestRateLimiter:
    def test_per_ip_isolation(self):
        limiter = RateLimiter(capacity=1.0, refill_per_second=0.001)
        assert limiter.check("a", 1, "ua", now=0.0)
        assert not limiter.check("a", 1, "ua", now=0.1)
        assert limiter.check("b", 1, "ua", now=0.1)
        assert limiter.tracked_identities == 2

    def test_keying_by_asn(self):
        limiter = RateLimiter(
            key=RateKey.ASN, capacity=1.0, refill_per_second=0.001
        )
        assert limiter.check("a", 7, "ua", now=0.0)
        assert not limiter.check("b", 7, "other", now=0.1)

    def test_counters(self):
        limiter = RateLimiter(capacity=1.0, refill_per_second=0.001)
        limiter.check("a", 1, "ua", now=0.0)
        limiter.check("a", 1, "ua", now=0.1)
        assert limiter.allowed == 1
        assert limiter.throttled == 1


class TestBlocklist:
    def test_ip_block_and_expiry(self):
        blocklist = Blocklist()
        blocklist.block_ip("1.2.3.4", now=0.0, ttl=10.0, reason="abuse")
        assert blocklist.is_blocked("1.2.3.4", 1, "ua", now=5.0) == "abuse"
        assert blocklist.is_blocked("1.2.3.4", 1, "ua", now=11.0) is None

    def test_permanent_block(self):
        blocklist = Blocklist()
        blocklist.block_asn(99, now=0.0)
        assert blocklist.is_blocked("any", 99, "ua", now=1e12) is not None

    def test_agent_fragment_block(self):
        blocklist = Blocklist()
        blocklist.block_agent("Bytespider", now=0.0)
        assert blocklist.is_blocked("x", 1, "Mozilla Bytespider/1.0", 1.0)
        assert blocklist.is_blocked("x", 1, "GPTBot/1.2", 1.0) is None

    def test_unblock(self):
        blocklist = Blocklist()
        blocklist.block_ip("1.2.3.4", now=0.0)
        blocklist.unblock_ip("1.2.3.4")
        assert blocklist.is_blocked("1.2.3.4", 1, "ua", now=1.0) is None


class TestEscalation:
    def test_strikes_lead_to_block(self):
        blocklist = Blocklist()
        rule = EscalationRule(strikes=3, window_seconds=100.0, block_ttl=50.0)
        assert not rule.record_throttle("ip", 0.0, blocklist)
        assert not rule.record_throttle("ip", 1.0, blocklist)
        assert rule.record_throttle("ip", 2.0, blocklist)
        assert blocklist.is_blocked("ip", 1, "ua", now=3.0) is not None
        assert rule.escalations == 1

    def test_old_strikes_expire(self):
        blocklist = Blocklist()
        rule = EscalationRule(strikes=3, window_seconds=10.0)
        rule.record_throttle("ip", 0.0, blocklist)
        rule.record_throttle("ip", 1.0, blocklist)
        assert not rule.record_throttle("ip", 50.0, blocklist)


class TestTarpit:
    def test_deterministic_pages(self):
        generator = TarpitGenerator(seed="s")
        path = generator.entry_path()
        assert generator.page(path).body == generator.page(path).body

    def test_links_stay_in_maze(self):
        generator = TarpitGenerator(seed="s", links_per_page=4)
        page = generator.page(generator.entry_path())
        assert len(page.links) == 4
        assert all(link.startswith(TARPIT_PREFIX) for link in page.links)

    def test_maze_expands(self):
        generator = TarpitGenerator(seed="s")
        seen = {generator.entry_path()}
        frontier = [generator.entry_path()]
        for _ in range(3):
            page = generator.page(frontier.pop(0))
            for link in page.links:
                assert link not in seen or True
                seen.add(link)
                frontier.append(link)
        assert len(seen) > 10

    def test_different_seeds_different_mazes(self):
        a = TarpitGenerator(seed="a").entry_path()
        b = TarpitGenerator(seed="b").entry_path()
        assert a != b


class TestGateway:
    def test_passthrough_serves_origin(self):
        gateway = DeterrenceGateway(server=make_server())
        response = gateway.handle(make_request())
        assert response.status == 200
        assert gateway.stats.served == 1

    def test_blocklist_precedes_everything(self):
        blocklist = Blocklist()
        blocklist.block_ip("198.51.100.1", now=0.0)
        gateway = DeterrenceGateway(server=make_server(), blocklist=blocklist)
        assert gateway.handle(make_request()).status == 403
        assert gateway.stats.blocked == 1

    def test_rate_limit_429(self):
        gateway = DeterrenceGateway(
            server=make_server(),
            limiter=RateLimiter(capacity=1.0, refill_per_second=0.001),
        )
        gateway.handle(make_request(timestamp=0.0))
        assert gateway.handle(make_request(timestamp=0.1)).status == 429
        assert gateway.stats.throttled == 1

    def test_escalation_converts_throttle_to_block(self):
        blocklist = Blocklist()
        gateway = DeterrenceGateway(
            server=make_server(),
            blocklist=blocklist,
            limiter=RateLimiter(capacity=1.0, refill_per_second=0.001),
            escalation=EscalationRule(strikes=2, window_seconds=100.0),
        )
        for step in range(4):
            gateway.handle(make_request(timestamp=float(step)))
        assert gateway.stats.blocked >= 1

    def test_tarpit_for_listed_agent(self):
        gateway = DeterrenceGateway(
            server=make_server(),
            tarpit=TarpitGenerator(),
            tarpit_agents=("Bytespider",),
        )
        response = gateway.handle(
            make_request(ua="Mozilla (compatible; Bytespider)")
        )
        assert response.status == 200
        assert b"archive-mirror" in (response.body or b"")
        assert gateway.stats.tarpitted == 1
        # Other agents get real content.
        assert gateway.handle(make_request(ua="GPTBot/1.2")).body is None

    def test_deterred_fraction(self):
        gateway = default_gateway(make_server())
        for step in range(200):
            gateway.handle(
                make_request(ip="hammer", timestamp=step * 0.01)
            )
        assert gateway.stats.deterred_fraction() > 0.5

    def test_robots_policy_enforced(self):
        policy = RobotsPolicy.from_text(
            "User-agent: GPTBot\nDisallow: /\n\nUser-agent: *\nAllow: /\n"
        )
        gateway = DeterrenceGateway(server=make_server(), robots=policy)
        denied = gateway.handle(make_request(ua="GPTBot"))
        assert denied.status == 403
        assert gateway.stats.robots_denied == 1
        allowed = gateway.handle(make_request(ua="Googlebot"))
        assert allowed.status == 200
        # Denials count toward the deterred fraction.
        assert gateway.stats.total == 2
        assert gateway.stats.deterred_fraction() == 0.5

    def test_robots_enforced_for_full_user_agent_headers(self):
        """Real traffic carries full UA headers, not bare tokens; the
        gateway must reduce them to the group token before matching."""
        policy = RobotsPolicy.from_text(
            "User-agent: GPTBot\nDisallow: /\n\nUser-agent: *\nAllow: /\n"
        )
        gateway = DeterrenceGateway(server=make_server(), robots=policy)
        header = "Mozilla/5.0 AppleWebKit/537.36 (compatible; GPTBot/1.1)"
        assert gateway.handle(make_request(ua=header)).status == 403
        assert gateway.stats.robots_denied == 1
        browser = "Mozilla/5.0 (Windows NT 10.0) Chrome/120.0"
        assert gateway.handle(make_request(ua=browser)).status == 200

    def test_robots_file_itself_stays_fetchable(self):
        policy = RobotsPolicy.from_text("User-agent: *\nDisallow: /\n")
        gateway = DeterrenceGateway(server=make_server(), robots=policy)
        response = gateway.handle(make_request(path="/robots.txt"))
        assert response.status != 403
        assert gateway.stats.robots_denied == 0
