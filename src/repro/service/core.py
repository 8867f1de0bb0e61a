"""Async policy decision point: compiled robots verdicts at wire speed.

The paper's measurement presupposes an infrastructure piece it never
shows: something that can answer *may this agent fetch this path* for
every request crossing the wire.  Production robots deployments
(Google's robots.txt parser fleet, Common Crawl's politeness layer)
run this as a long-lived service: one shared compiled-policy cache in
front of millions of per-request checks.  This module is that service,
transport-free; :mod:`repro.service.http` puts a socket in front of it.

Three layers:

:class:`PolicyProvider`
    A process-wide :class:`~repro.robots.cache.RobotsCache` with TTL
    refresh plus **single-flight request coalescing**: when many
    concurrent requests miss on the same origin, exactly one resolve +
    compile runs and every waiter shares its result — the asyncio twin
    of the pipeline's memoizing runner.  The sync fast path
    (:meth:`PolicyProvider.policy_fast`) answers warm-cache lookups
    without touching the event loop.

:class:`DecisionService`
    The endpoint surface: ``can_fetch`` / ``can_fetch_many`` /
    ``probe_matrix`` straight off the compiled engine, ``enforce``
    verdicts through a per-origin
    :class:`~repro.deterrence.gateway.DeterrenceGateway` (shared
    blocklist/limiter, per-origin robots binding), and per-endpoint
    latency/hit-rate counters for ``/stats``.

Resolvers
    ``origin -> robots.txt body`` callables (sync or async).  ``None``
    means *no robots.txt* and maps to RFC 9309 4xx semantics (allow
    all); a raised exception surfaces as :class:`ServiceError` (the
    5xx analogue is a resolver returning a disallow-all body).
"""

from __future__ import annotations

import asyncio
import inspect
import time
from collections import deque
from collections.abc import Awaitable, Callable, Sequence
from pathlib import Path

from ..deterrence.blocklist import Blocklist, EscalationRule
from ..deterrence.gateway import DeterrenceGateway, GatewayVerdict
from ..deterrence.ratelimit import RateLimiter
from ..exceptions import ServiceError
from ..robots.cache import DEFAULT_TTL_SECONDS, RobotsCache
from ..robots.corpus import (
    all_versions,
    build_simple_site_robots,
    render_version,
)
from ..robots.diff import DEFAULT_PROBE_AGENTS, DEFAULT_PROBE_PATHS
from ..robots.policy import RobotsPolicy
from ..web.message import Request

#: ``origin -> robots.txt body`` (``None`` = no robots.txt, allow all).
#: May return an awaitable; sync resolvers never suspend the loop.
Resolver = Callable[[str], "str | None | Awaitable[str | None]"]

#: Recent-latency window per endpoint; large enough for stable p99,
#: small enough that /stats never walks unbounded history.
LATENCY_WINDOW = 4096


def static_resolver(texts: dict[str, str]) -> Resolver:
    """Resolver over a fixed ``origin -> robots.txt`` mapping."""
    snapshot = dict(texts)

    def resolve(origin: str) -> str | None:
        return snapshot.get(origin)

    return resolve


def corpus_resolver() -> Resolver:
    """The paper's experimental corpus as origins.

    ``base.example`` … ``v3.example`` carry the four §4 deployment
    versions; ``simple.example`` carries the passive-observation
    sites' fixed file.
    """
    texts = {
        f"{version.value}.example": render_version(version)
        for version in all_versions()
    }
    texts["simple.example"] = build_simple_site_robots().render()
    return static_resolver(texts)


def directory_resolver(root: Path) -> Resolver:
    """Resolver over ``<root>/<origin>.txt`` files, read per resolve.

    Reading at resolve time (not startup) means edits are picked up on
    the next TTL refresh — and byte-identical re-reads still skip
    recompilation via the cache.

    ``origin`` comes straight off the wire, so it must be one path
    component: an empty origin, ``.``, ``..``, or one containing ``/``,
    ``\\`` or NUL raises :class:`ServiceError` (a counted resolve
    failure, answered 502) instead of opening a file outside ``root``.
    """
    base = Path(root)

    def resolve(origin: str) -> str | None:
        if origin in ("", ".", "..") or any(c in origin for c in "/\\\0"):
            raise ServiceError(
                f"origin {origin!r} is not a single path component"
            )
        candidate = base / f"{origin}.txt"
        if not candidate.is_file():
            return None
        return candidate.read_text(encoding="utf-8", errors="replace")

    return resolve


class ProviderStats:
    """Counters for the shared policy cache's service-level behavior."""

    __slots__ = ("hits", "misses", "coalesced", "resolve_failures")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.resolve_failures = 0

    def snapshot(self) -> dict[str, int | float]:
        total = self.hits + self.misses + self.coalesced
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "resolve_failures": self.resolve_failures,
            "hit_rate": (self.hits / total) if total else 0.0,
        }


class PolicyProvider:
    """Process-wide compiled-policy cache with single-flight resolve.

    One instance serves every connection of the service; concurrent
    misses on the same origin are coalesced onto one in-flight resolve
    so a thundering herd costs one fetch + one compile, not N.
    """

    def __init__(
        self,
        resolver: Resolver,
        *,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        max_origins: int = 10_000,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._resolver = resolver
        self._clock = clock
        self.cache = RobotsCache(
            ttl_seconds=ttl_seconds, max_entries=max_origins
        )
        self.stats = ProviderStats()
        self._inflight: dict[str, asyncio.Future[RobotsPolicy]] = {}

    def policy_fast(self, origin: str) -> RobotsPolicy | None:
        """Warm-cache lookup; ``None`` means a resolve is required.

        Purely synchronous — the HTTP layer answers from here without
        scheduling a task when the entry is fresh.
        """
        policy = self.cache.get(origin, self._clock())
        if policy is not None:
            self.stats.hits += 1
        return policy

    async def policy(self, origin: str) -> RobotsPolicy:
        """The governing policy for ``origin``, resolving on miss.

        Concurrent callers for one origin share a single resolve; the
        shared future is shielded so one waiter's cancellation cannot
        strand the rest.
        """
        policy = self.cache.get(origin, self._clock())
        if policy is not None:
            self.stats.hits += 1
            return policy
        inflight = self._inflight.get(origin)
        if inflight is not None:
            self.stats.coalesced += 1
            return await asyncio.shield(inflight)
        future: asyncio.Future[RobotsPolicy] = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[origin] = future
        try:
            policy = await self._resolve(origin)
        except Exception as exc:
            self.stats.resolve_failures += 1
            error = ServiceError(
                f"robots.txt resolve failed for {origin!r}: {exc}"
            )
            if not future.done():
                future.set_exception(error)
                # Mark retrieved so an unawaited future does not log
                # "exception was never retrieved" at GC time.
                future.exception()
            raise error from exc
        else:
            if not future.done():
                future.set_result(policy)
            return policy
        finally:
            self._inflight.pop(origin, None)
            if not future.done():
                # Owner cancelled mid-resolve: propagate to waiters
                # instead of stranding them on a forever-pending future.
                future.cancel()

    async def _resolve(self, origin: str) -> RobotsPolicy:
        self.stats.misses += 1
        body = self._resolver(origin)
        if inspect.isawaitable(body):
            body = await body
        now = self._clock()
        if body is None:
            # RFC 9309 §2.3.1.3: unavailable robots.txt (4xx) allows all.
            policy = RobotsPolicy.allow_all()
            self.cache.put(origin, policy, now)
            return policy
        return self.cache.refresh(origin, body, now)


class EndpointCounter:
    """Per-endpoint request/latency accounting for ``/stats``."""

    __slots__ = ("requests", "queries", "errors", "_latencies")

    def __init__(self) -> None:
        self.requests = 0
        self.queries = 0
        self.errors = 0
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)

    def observe(self, elapsed: float, queries: int = 1) -> None:
        self.requests += 1
        self.queries += queries
        self._latencies.append(elapsed)

    def snapshot(self) -> dict[str, int | float]:
        entry: dict[str, int | float] = {
            "requests": self.requests,
            "queries": self.queries,
            "errors": self.errors,
        }
        if self._latencies:
            window = sorted(self._latencies)
            entry["p50_ms"] = window[len(window) // 2] * 1e3
            entry["p99_ms"] = window[
                min(len(window) - 1, int(len(window) * 0.99))
            ] * 1e3
            entry["max_ms"] = window[-1] * 1e3
        return entry


class DecisionService:
    """The transport-independent decision endpoints.

    Every method takes and returns plain JSON-shaped values, so the
    HTTP layer stays a thin framing shim over one implementation; the
    verdict payloads are deterministic functions of the inputs and the
    robots corpus (cache state never leaks into them — coalesced,
    cached, and cold answers are byte-identical once serialized).
    """

    def __init__(
        self,
        resolver: Resolver,
        *,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        max_origins: int = 10_000,
        clock: Callable[[], float] = time.time,
        enforce_robots: bool = True,
        limiter: RateLimiter | None = None,
        blocklist: Blocklist | None = None,
        escalation: EscalationRule | None = None,
    ) -> None:
        self.provider = PolicyProvider(
            resolver,
            ttl_seconds=ttl_seconds,
            max_origins=max_origins,
            clock=clock,
        )
        self._clock = clock
        self._enforce_robots = enforce_robots
        self.blocklist = blocklist if blocklist is not None else Blocklist()
        self.limiter = limiter
        self.escalation = escalation
        self.counters: dict[str, EndpointCounter] = {}
        self.started_at = clock()
        self._gateways: dict[str, DeterrenceGateway] = {}

    # -- bookkeeping -------------------------------------------------

    def counter(self, endpoint: str) -> EndpointCounter:
        counter = self.counters.get(endpoint)
        if counter is None:
            counter = self.counters[endpoint] = EndpointCounter()
        return counter

    # -- verdict payloads (shared by fast + async paths) -------------

    @staticmethod
    def can_fetch_payload(
        policy: RobotsPolicy,
        origin: str,
        agent: str,
        path: str,
        explain: bool,
    ) -> dict:
        payload: dict = {
            "origin": origin,
            "agent": agent,
            "path": path,
            "allowed": policy.can_fetch(agent, path),
        }
        if explain:
            decision = policy.decide(agent, path)
            payload["reason"] = decision.reason
            payload["group_agents"] = list(decision.group_agents)
            delay = policy.crawl_delay(agent)
            if delay is not None:
                payload["crawl_delay"] = delay
        return payload

    def can_fetch_fast(
        self, origin: str, agent: str, path: str, explain: bool = False
    ) -> dict | None:
        """Sync warm-cache verdict; ``None`` when a resolve is needed."""
        policy = self.provider.policy_fast(origin)
        if policy is None:
            return None
        return self.can_fetch_payload(policy, origin, agent, path, explain)

    # -- endpoints ---------------------------------------------------

    async def can_fetch(
        self, origin: str, agent: str, path: str, explain: bool = False
    ) -> dict:
        policy = await self.provider.policy(origin)
        return self.can_fetch_payload(policy, origin, agent, path, explain)

    async def can_fetch_many(
        self, origin: str, agent: str, paths: Sequence[str]
    ) -> dict:
        policy = await self.provider.policy(origin)
        return {
            "origin": origin,
            "agent": agent,
            "paths": list(paths),
            "allowed": policy.can_fetch_many(agent, list(paths)),
        }

    async def probe_matrix(
        self,
        origin: str,
        agents: Sequence[str] | None = None,
        paths: Sequence[str] | None = None,
    ) -> dict:
        policy = await self.provider.policy(origin)
        agent_list = (
            list(agents) if agents else list(DEFAULT_PROBE_AGENTS)
        )
        path_list = list(paths) if paths else list(DEFAULT_PROBE_PATHS)
        return {
            "origin": origin,
            "agents": agent_list,
            "paths": path_list,
            "matrix": policy.probe_matrix(agent_list, path_list),
        }

    async def enforce(
        self,
        origin: str,
        agent: str,
        path: str,
        client_ip: str = "0.0.0.0",
        asn: int = 0,
    ) -> dict:
        """Deterrence-gateway verdict: what would the origin's policy
        chain do with this request *right now*?

        Unlike ``can_fetch`` this is stateful by design — the shared
        rate limiter and blocklist accumulate across calls, exactly as
        the enforcing reverse proxy they model would.
        """
        policy = await self.provider.policy(origin)
        gateway = self._gateway_for(origin, policy)
        request = Request(
            host=origin,
            path=path,
            user_agent=agent,
            client_ip=client_ip,
            asn=asn,
            timestamp=self._clock(),
        )
        verdict: GatewayVerdict = gateway.verdict(request)
        return {
            "origin": origin,
            "agent": agent,
            "path": path,
            "verdict": verdict.outcome,
            "status": verdict.status,
        }

    def _gateway_for(
        self, origin: str, policy: RobotsPolicy
    ) -> DeterrenceGateway:
        """Per-origin gateway sharing the service-wide blocklist and
        limiter, with the robots binding tracking TTL refreshes."""
        gateway = self._gateways.get(origin)
        robots = policy if self._enforce_robots else None
        if gateway is None:
            gateway = DeterrenceGateway(
                server=None,
                blocklist=self.blocklist,
                robots=robots,
                limiter=self.limiter,
                escalation=self.escalation,
            )
            self._gateways[origin] = gateway
        elif gateway.robots is not robots:
            gateway.rebind_robots(robots)
        return gateway

    # -- stats -------------------------------------------------------

    def stats(self) -> dict:
        return {
            "uptime_s": max(0.0, self._clock() - self.started_at),
            "cache": self.provider.cache.stats(),
            "provider": self.provider.stats.snapshot(),
            "endpoints": {
                name: counter.snapshot()
                for name, counter in sorted(self.counters.items())
            },
            "gateways": {
                origin: {
                    "served": gateway.stats.served,
                    "blocked": gateway.stats.blocked,
                    "throttled": gateway.stats.throttled,
                    "tarpitted": gateway.stats.tarpitted,
                    "robots_denied": gateway.stats.robots_denied,
                }
                for origin, gateway in sorted(self._gateways.items())
            },
        }
