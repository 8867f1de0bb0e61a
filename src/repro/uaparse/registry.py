"""Known-bot registry: identification against the pattern dataset.

Matches raw User-Agent values against the regexes of the known-bot
dataset (:mod:`repro.uaparse.data`) to turn them into canonical bot
identities, the way the paper identifies self-declared bots before any
analysis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .categories import BotCategory, RobotsPromise
from .data import KNOWN_BOT_ROWS, BotRow


@dataclass(frozen=True)
class BotRecord:
    """One known bot.

    Attributes:
        name: canonical bot name used across the pipeline.
        pattern: regex matched (case-insensitively) against raw UA text.
        category: Dark Visitors category.
        entity: sponsoring organization.
        promise: public stance on respecting robots.txt.
    """

    name: str
    pattern: str
    category: BotCategory
    entity: str
    promise: RobotsPromise


def _compile(pattern: str) -> re.Pattern[str]:
    return re.compile(pattern, re.IGNORECASE)


@dataclass
class BotRegistry:
    """Ordered collection of :class:`BotRecord` with lookup helpers.

    The default registry (:func:`default_registry`) holds the full
    built-in dataset; tests and extensions can build smaller ones.
    """

    records: list[BotRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_name = {record.name.lower(): record for record in self.records}
        self._compiled = [(record, _compile(record.pattern)) for record in self.records]

    # -- identification ------------------------------------------------

    def identify(self, user_agent: str) -> BotRecord | None:
        """First record whose pattern matches the raw UA value."""
        if not user_agent:
            return None
        for record, regex in self._compiled:
            if regex.search(user_agent):
                return record
        return None

    # -- name lookup -----------------------------------------------------

    def get(self, name: str) -> BotRecord | None:
        """Exact (case-insensitive) lookup by canonical name."""
        return self._by_name.get(name.lower())

    def category_of(self, user_agent: str) -> BotCategory:
        """Category for a raw UA value; OTHER when unidentified."""
        record = self.identify(user_agent)
        return record.category if record is not None else BotCategory.OTHER

    # -- enumeration -------------------------------------------------------

    def names(self) -> list[str]:
        return [record.name for record in self.records]

    def by_category(self, category: BotCategory) -> list[BotRecord]:
        return [record for record in self.records if record.category is category]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._by_name


def _records_from_rows(rows: tuple[BotRow, ...]) -> list[BotRecord]:
    return [
        BotRecord(name=name, pattern=pattern, category=category, entity=entity, promise=promise)
        for name, pattern, category, entity, promise in rows
    ]


_DEFAULT: BotRegistry | None = None


def default_registry() -> BotRegistry:
    """The shared built-in registry (constructed once, then reused)."""
    # Idempotent lazy init: every process computes the identical
    # registry from the same constant rows, so shard workers racing on
    # the first call cannot diverge.
    global _DEFAULT  # lint: ignore[RPR003]
    if _DEFAULT is None:
        _DEFAULT = BotRegistry(records=_records_from_rows(KNOWN_BOT_ROWS))
    return _DEFAULT
