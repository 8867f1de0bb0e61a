"""Enforceable bot-deterrence mechanisms (the paper's §2.2 survey).

robots.txt depends on scraper goodwill; these do not:

- :class:`RateLimiter` / :class:`TokenBucket` — request budgets;
- :class:`Blocklist` / :class:`EscalationRule` — TTL blocks;
- :class:`TarpitGenerator` — unending deterministic fake content;
- :class:`DeterrenceGateway` — a reverse-proxy chain combining them
  in front of the web substrate, measurable with the same pipeline.
"""

from .blocklist import BlockEntry, Blocklist, EscalationRule
from .gateway import DeterrenceGateway, GatewayStats, default_gateway
from .ratelimit import RateKey, RateLimiter, TokenBucket
from .tarpit import TARPIT_PREFIX, TarpitGenerator, TarpitPage

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
