"""User-agent handling: the known-bot registry and its categories.

Public surface:

- :class:`BotRegistry` / :func:`default_registry` — identification of
  a raw User-Agent against the built-in known-bot dataset, one regex
  scan per value;
- :class:`BotCategory` / :class:`RobotsPromise` — the Dark Visitors
  taxonomy used throughout the paper.
"""

from .categories import BotCategory, RobotsPromise
from .registry import BotRecord, BotRegistry, default_registry

__all__ = [
    "BotCategory",
    "BotRecord",
    "BotRegistry",
    "RobotsPromise",
    "default_registry",
]
