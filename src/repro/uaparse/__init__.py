"""User-agent handling: the known-bot registry and its categories.

Public surface:

- :class:`BotRegistry` / :func:`default_registry` — identification of
  a raw User-Agent against the built-in known-bot dataset, one regex
  scan per value;
- :class:`BotCategory` / :class:`RobotsPromise` — the Dark Visitors
  taxonomy used throughout the paper.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "BotCategory": ".categories",
    "RobotsPromise": ".categories",
    "BotRecord": ".registry",
    "BotRegistry": ".registry",
    "default_registry": ".registry",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BotCategory",
    "BotRecord",
    "BotRegistry",
    "RobotsPromise",
    "default_registry",
]
