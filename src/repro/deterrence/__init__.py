"""Enforceable bot-deterrence mechanisms (the paper's §2.2 survey).

robots.txt depends on scraper goodwill; these do not:

- :class:`RateLimiter` / :class:`TokenBucket` — request budgets;
- :class:`Blocklist` / :class:`EscalationRule` — TTL blocks;
- :class:`TarpitGenerator` — unending deterministic fake content;
- :class:`DeterrenceGateway` — a reverse-proxy chain combining them
  in front of the web substrate, measurable with the same pipeline.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "BlockEntry": ".blocklist",
    "Blocklist": ".blocklist",
    "EscalationRule": ".blocklist",
    "DeterrenceGateway": ".gateway",
    "GatewayStats": ".gateway",
    "default_gateway": ".gateway",
    "RateKey": ".ratelimit",
    "RateLimiter": ".ratelimit",
    "TokenBucket": ".ratelimit",
    "TARPIT_PREFIX": ".tarpit",
    "TarpitGenerator": ".tarpit",
    "TarpitPage": ".tarpit",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BlockEntry",
    "Blocklist",
    "DeterrenceGateway",
    "EscalationRule",
    "GatewayStats",
    "RateKey",
    "RateLimiter",
    "TARPIT_PREFIX",
    "TarpitGenerator",
    "TarpitPage",
    "TokenBucket",
    "default_gateway",
]
