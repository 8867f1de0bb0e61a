"""Unit tests for the decision service core (provider, endpoints)."""

from __future__ import annotations

import asyncio

import pytest

from repro.deterrence.ratelimit import RateLimiter
from repro.exceptions import ServiceError
from repro.robots.cache import DEFAULT_TTL_SECONDS
from repro.robots.policy import RobotsPolicy
from repro.service import (
    DecisionService,
    PolicyProvider,
    corpus_resolver,
    directory_resolver,
    static_resolver,
)

ROBOTS = "User-agent: *\nAllow: /public\nDisallow: /\n"


class Clock:
    """A controllable clock for TTL-sensitive tests."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def run(coro):
    return asyncio.run(coro)


class TestPolicyProvider:
    def test_resolves_and_caches(self):
        calls: list[str] = []

        def resolver(origin: str) -> str:
            calls.append(origin)
            return ROBOTS

        provider = PolicyProvider(resolver, clock=Clock())

        async def scenario():
            first = await provider.policy("a.example")
            second = await provider.policy("a.example")
            return first, second

        first, second = run(scenario())
        assert first is second
        assert calls == ["a.example"]
        assert provider.stats.misses == 1
        assert provider.stats.hits == 1

    def test_policy_fast_requires_warm_cache(self):
        provider = PolicyProvider(static_resolver({"a": ROBOTS}), clock=Clock())
        assert provider.policy_fast("a") is None

        async def scenario():
            await provider.policy("a")
            return provider.policy_fast("a")

        assert run(scenario()) is not None

    def test_none_body_allows_all(self):
        provider = PolicyProvider(static_resolver({}), clock=Clock())

        async def scenario():
            policy = await provider.policy("unknown.example")
            return policy.can_fetch("GPTBot", "/anything")

        assert run(scenario()) is True

    def test_resolver_failure_raises_service_error(self):
        def resolver(origin: str) -> str:
            raise OSError("connection refused")

        provider = PolicyProvider(resolver, clock=Clock())
        with pytest.raises(ServiceError, match="connection refused"):
            run(provider.policy("down.example"))
        assert provider.stats.resolve_failures == 1

    def test_ttl_refresh_reuses_identical_compilation(self):
        clock = Clock()
        provider = PolicyProvider(
            static_resolver({"a": ROBOTS}), ttl_seconds=10.0, clock=clock
        )

        async def scenario():
            first = await provider.policy("a")
            clock.advance(11.0)
            second = await provider.policy("a")
            return first, second

        first, second = run(scenario())
        assert second is first  # byte-identical refresh reused the policy
        assert provider.cache.recompilations_avoided == 1
        assert provider.stats.misses == 2

    def test_concurrent_misses_coalesce_to_one_resolve(self):
        calls: list[str] = []

        async def resolver(origin: str) -> str:
            calls.append(origin)
            await asyncio.sleep(0.01)
            return ROBOTS

        provider = PolicyProvider(resolver, clock=Clock())

        async def scenario():
            return await asyncio.gather(
                *[provider.policy("a.example") for _ in range(20)]
            )

        policies = run(scenario())
        assert calls == ["a.example"]
        assert len({id(policy) for policy in policies}) == 1
        assert provider.stats.coalesced == 19
        assert provider.stats.misses == 1

    def test_coalesced_failure_propagates_to_all_waiters(self):
        attempts: list[int] = []

        async def resolver(origin: str) -> str:
            attempts.append(1)
            await asyncio.sleep(0.01)
            raise OSError("boom")

        provider = PolicyProvider(resolver, clock=Clock())

        async def scenario():
            return await asyncio.gather(
                *[provider.policy("a") for _ in range(5)],
                return_exceptions=True,
            )

        results = run(scenario())
        assert len(attempts) == 1
        assert all(isinstance(result, ServiceError) for result in results)

    def test_distinct_origins_do_not_coalesce(self):
        calls: list[str] = []

        async def resolver(origin: str) -> str:
            calls.append(origin)
            await asyncio.sleep(0.005)
            return ROBOTS

        provider = PolicyProvider(resolver, clock=Clock())

        async def scenario():
            await asyncio.gather(
                provider.policy("a"), provider.policy("b")
            )

        run(scenario())
        assert sorted(calls) == ["a", "b"]


class TestResolvers:
    def test_corpus_resolver_origins(self):
        resolver = corpus_resolver()
        assert "Disallow: /" in resolver("v3.example")
        assert "Crawl-delay" in resolver("v1.example")
        assert resolver("missing.example") is None

    def test_directory_resolver_reads_and_rereads(self, tmp_path):
        (tmp_path / "site.example.txt").write_text(
            ROBOTS, encoding="utf-8"
        )
        resolver = directory_resolver(tmp_path)
        assert resolver("site.example") == ROBOTS
        assert resolver("other.example") is None
        (tmp_path / "site.example.txt").write_text(
            "User-agent: *\nDisallow:\n", encoding="utf-8"
        )
        assert "Allow: /public" not in resolver("site.example")

    @pytest.mark.parametrize("escape", ["relative", "absolute"])
    def test_directory_resolver_never_reads_outside_root(self, tmp_path, escape):
        root = tmp_path / "robots"
        root.mkdir()
        (root / "site.example.txt").write_text(ROBOTS, encoding="utf-8")
        (tmp_path / "outside.txt").write_text(
            "User-agent: *\nDisallow: /secret-rule\n", encoding="utf-8"
        )
        origin = (
            "../outside" if escape == "relative" else str(tmp_path / "outside")
        )
        service = DecisionService(directory_resolver(root), clock=Clock())
        with pytest.raises(ServiceError, match="single path component") as err:
            run(service.can_fetch(origin, "x", "/secret-rule/a", explain=True))
        assert "secret-rule" not in str(err.value)
        assert service.provider.stats.resolve_failures == 1
        verdict = run(
            service.can_fetch("site.example", "x", "/private", explain=True)
        )
        assert verdict["allowed"] is False
        assert verdict["reason"]

    @pytest.mark.parametrize(
        "origin", ["", ".", "..", "a/b", "/abs", "a\\b", "a\0b"]
    )
    def test_directory_resolver_rejects_non_components(self, tmp_path, origin):
        with pytest.raises(ServiceError, match="single path component"):
            directory_resolver(tmp_path)(origin)


class TestDecisionService:
    def make(self, clock=None, **kwargs) -> DecisionService:
        return DecisionService(
            static_resolver({"s.example": ROBOTS}),
            clock=clock or Clock(),
            **kwargs,
        )

    def test_can_fetch_verdicts(self):
        service = self.make()

        async def scenario():
            allowed = await service.can_fetch(
                "s.example", "GPTBot", "/public/page"
            )
            denied = await service.can_fetch("s.example", "GPTBot", "/hidden")
            return allowed, denied

        allowed, denied = run(scenario())
        assert allowed["allowed"] is True
        assert denied["allowed"] is False
        assert denied["path"] == "/hidden"

    def test_explain_adds_reason(self):
        service = self.make()

        async def scenario():
            return await service.can_fetch(
                "s.example", "GPTBot", "/hidden", explain=True
            )

        payload = run(scenario())
        assert "Disallow: /" in payload["reason"]
        assert payload["group_agents"] == ["*"]

    def test_can_fetch_many_aligns_with_singles(self):
        service = self.make()
        paths = ["/public/a", "/b", "/robots.txt", "/public"]

        async def scenario():
            batch = await service.can_fetch_many("s.example", "GPTBot", paths)
            singles = [
                (await service.can_fetch("s.example", "GPTBot", path))[
                    "allowed"
                ]
                for path in paths
            ]
            return batch, singles

        batch, singles = run(scenario())
        assert batch["allowed"] == singles

    def test_probe_matrix_defaults_to_paper_probes(self):
        service = self.make()

        async def scenario():
            return await service.probe_matrix("s.example")

        payload = run(scenario())
        assert len(payload["matrix"]) == len(payload["agents"])
        assert len(payload["matrix"][0]) == len(payload["paths"])
        assert len(payload["agents"]) > 1

    def test_enforce_robots_denial(self):
        service = self.make()

        async def scenario():
            return await service.enforce(
                "s.example", "GPTBot", "/hidden", client_ip="9.9.9.9"
            )

        payload = run(scenario())
        assert payload["verdict"] == "robots_denied"
        assert payload["status"] == 403

    def test_enforce_served_then_throttled(self):
        clock = Clock()
        service = self.make(
            clock=clock,
            limiter=RateLimiter(capacity=2.0, refill_per_second=0.001),
        )

        async def scenario():
            outcomes = []
            for _ in range(4):
                payload = await service.enforce(
                    "s.example", "GPTBot", "/public/a", client_ip="1.1.1.1"
                )
                outcomes.append(payload["verdict"])
            return outcomes

        outcomes = run(scenario())
        assert outcomes[0] == "served"
        assert "throttled" in outcomes

    def test_enforce_rebinds_policy_after_refresh(self):
        clock = Clock()
        texts = {"s.example": ROBOTS}
        service = DecisionService(
            lambda origin: texts.get(origin), ttl_seconds=10.0, clock=clock
        )

        async def scenario():
            first = await service.enforce("s.example", "GPTBot", "/hidden")
            texts["s.example"] = "User-agent: *\nDisallow:\n"
            clock.advance(11.0)
            second = await service.enforce("s.example", "GPTBot", "/hidden")
            return first, second

        first, second = run(scenario())
        assert first["verdict"] == "robots_denied"
        assert second["verdict"] == "served"

    def test_stats_shape(self):
        clock = Clock()
        service = self.make(clock=clock)

        async def scenario():
            await service.can_fetch("s.example", "GPTBot", "/x")
            service.counter("can_fetch").observe(0.001)
            clock.advance(5.0)
            return service.stats()

        stats = run(scenario())
        assert stats["uptime_s"] == 5.0
        assert stats["cache"]["entries"] == 1
        assert stats["provider"]["misses"] == 1
        assert stats["endpoints"]["can_fetch"]["requests"] == 1
        assert "p99_ms" in stats["endpoints"]["can_fetch"]

    def test_default_ttl_is_the_google_guideline(self):
        service = self.make()
        assert service.provider.cache.ttl_seconds == DEFAULT_TTL_SECONDS


class TestServiceAtCapacity:
    """A full cache evicts, and an evicted origin is resolved again:
    verdicts never depend on which origins happen to be cached."""

    CAPACITY = 8

    @staticmethod
    def robots_text(index: int) -> str:
        return (
            f"User-agent: Bot{index % 3}\nDisallow: /p{index % 5}\n\n"
            f"User-agent: *\nAllow: /p{index % 4}/open\n"
            f"Disallow: /p{index % 4}\n"
        )

    def test_cold_origins_past_capacity(self):
        origins = [f"cold-{index}.example" for index in range(40)]
        texts = {
            origin: self.robots_text(index)
            for index, origin in enumerate(origins)
        }
        service = DecisionService(
            static_resolver(texts), max_origins=self.CAPACITY, clock=Clock()
        )
        provider = service.provider
        agents = ["Bot0", "Bot1", "Bot2", "GPTBot"]
        paths = [f"/p{index}" for index in range(5)] + ["/p1/open", "/x"]

        async def check(origin: str, index: int) -> None:
            fresh = RobotsPolicy.from_text(texts[origin])
            agent = agents[index % len(agents)]
            single = await service.can_fetch(origin, agent, paths[0])
            assert single == {
                "origin": origin,
                "agent": agent,
                "path": paths[0],
                "allowed": fresh.can_fetch(agent, paths[0]),
            }
            batch = await service.can_fetch_many(origin, agent, paths)
            assert batch == {
                "origin": origin,
                "agent": agent,
                "paths": paths,
                "allowed": [fresh.can_fetch(agent, path) for path in paths],
            }

        async def scenario() -> None:
            for index, origin in enumerate(origins):
                await check(origin, index)
            for index, origin in enumerate(origins[:10]):
                misses, hits = provider.stats.misses, provider.stats.hits
                await check(origin, index + 1)
                # The single is a miss (evicted), the batch then a hit.
                assert provider.stats.misses == misses + 1
                assert provider.stats.hits == hits + 1

        run(scenario())
        stats = service.stats()
        assert stats["cache"]["entries"] == self.CAPACITY
        assert stats["provider"]["misses"] == 50
        assert stats["cache"]["evictions"] == (
            stats["provider"]["misses"] - self.CAPACITY
        )
