"""Per-origin robots.txt cache with time-to-live semantics.

Real crawlers do not fetch robots.txt before every page request; they
cache it, conventionally for 24 hours (the Google guideline the paper
cites in §5.1).  The cache here is clock-agnostic: callers supply the
current time, which lets the simulation drive it with virtual time and
production users drive it with ``time.time``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from .policy import RobotsPolicy

#: Google's documented recommendation: re-fetch robots.txt daily.
DEFAULT_TTL_SECONDS = 24 * 3600.0


@dataclass
class CacheEntry:
    """One cached policy with its fetch timestamp.

    Attributes:
        policy: the parsed policy; its lazily-built
            :class:`~repro.robots.compiled.CompiledPolicy` (with all
            memoized per-agent rule sets) travels with the entry, so a
            reused entry keeps its warmed compilation.
        fetched_at: when the robots.txt behind it was fetched.
        text: the raw robots.txt body the policy was compiled from;
            lets a TTL refresh detect byte-identical re-fetches and
            skip recompilation entirely.
    """

    policy: RobotsPolicy
    fetched_at: float
    text: str | None = None


@dataclass
class RobotsCache:
    """TTL cache mapping origin -> :class:`RobotsPolicy`.

    Attributes:
        ttl_seconds: entry lifetime; entries older than this are
            reported stale and evicted on access.
        max_entries: bound on cache size; when full, the entry with
            the oldest fetch time is evicted (FIFO by fetch time).
        max_retired: bound on the retired side table.  Under origin
            churn (many sites seen once, TTL-expired, never refreshed)
            the side table would otherwise fill with dead entries up
            to ``max_entries`` and keep them forever; the side table
            is an optimization, so it gets a much smaller budget.
            When full, the entry retired longest ago is dropped.
            ``0`` disables retention entirely.
        recompilations_avoided: TTL refreshes that yielded a
            byte-identical robots.txt and reused the previously
            compiled policy instead of re-parsing/re-compiling.
        evictions: live entries dropped because the cache was full.
        retired_evictions: retired entries dropped because the side
            table was full (or retention is disabled).

    Stale entries are evicted from the live table on access, but
    retained in a bounded side table so :meth:`refresh` can compare
    the re-fetched body against the last seen one — the common
    production case is a daily re-fetch returning the same bytes, for
    which re-parsing and re-compiling every rule is pure waste.

    Both tables are kept in store order, so eviction is O(1) however
    many origins a crawler tracks: storing an origin moves it to the
    end, and a full table drops its first key.  In the live table an
    entry's ``fetched_at`` is the ``now`` of its last store, so under
    a clock that never goes backwards "stored longest ago" is exactly
    "oldest fetch time" (ties going to the earlier store).  In the
    retired table the first key is the entry retired longest ago: the
    side table drops in retirement order, because a recently retired
    origin is the one most likely to be refreshed next.
    """

    ttl_seconds: float = DEFAULT_TTL_SECONDS
    max_entries: int = 10_000
    max_retired: int = 1_000
    recompilations_avoided: int = 0
    evictions: int = 0
    retired_evictions: int = 0
    _entries: OrderedDict[str, CacheEntry] = field(
        default_factory=OrderedDict, repr=False
    )
    _retired: OrderedDict[str, CacheEntry] = field(
        default_factory=OrderedDict, repr=False
    )

    def _store(
        self,
        table: OrderedDict[str, CacheEntry],
        origin: str,
        entry: CacheEntry,
        limit: int,
    ) -> int:
        """Insert ``origin`` last in ``table``, bounded at ``limit``.

        Returns how many entries were dropped to make room (0 or 1;
        a non-positive ``limit`` refuses the insert and counts it as
        one drop).
        """
        if limit <= 0:
            return 1
        evicted = 0
        if origin in table:
            table.move_to_end(origin)
        elif len(table) >= limit:
            table.popitem(last=False)
            evicted = 1
        table[origin] = entry
        return evicted

    def get(self, origin: str, now: float) -> RobotsPolicy | None:
        """Return the cached policy for ``origin`` or None when absent/stale."""
        entry = self._entries.get(origin)
        if entry is None:
            return None
        if now - entry.fetched_at >= self.ttl_seconds:
            # Retire to the side table so refresh() can still reuse it.
            del self._entries[origin]
            self.retired_evictions += self._store(
                self._retired, origin, entry, self.max_retired
            )
            return None
        return entry.policy

    def put(
        self,
        origin: str,
        policy: RobotsPolicy,
        now: float,
        text: str | None = None,
    ) -> None:
        """Insert or refresh the policy for ``origin``.

        ``text`` (the raw robots.txt body) enables byte-identical
        refresh detection on later :meth:`refresh` calls.
        """
        self._retired.pop(origin, None)
        self.evictions += self._store(
            self._entries,
            origin,
            CacheEntry(policy=policy, fetched_at=now, text=text),
            self.max_entries,
        )

    def refresh(self, origin: str, text: str, now: float) -> RobotsPolicy:
        """Record a (re-)fetched robots.txt body and return its policy.

        When the body is byte-identical to the last one seen for
        ``origin`` — whether that entry is still fresh or TTL-stale —
        the previously compiled policy object is reused as-is (its
        memoized per-agent rule sets stay warm) and only the fetch
        timestamp advances.  Otherwise the text is parsed into a new
        policy and stored.
        """
        entry = self._entries.get(origin) or self._retired.get(origin)
        if entry is not None and entry.text == text:
            self.recompilations_avoided += 1
            entry.fetched_at = now
            self._retired.pop(origin, None)
            self.evictions += self._store(
                self._entries, origin, entry, self.max_entries
            )
            return entry.policy
        policy = RobotsPolicy.from_text(text)
        self.put(origin, policy, now, text=text)
        return policy

    def stats(self) -> dict[str, int]:
        """Snapshot of the cache's size and churn counters.

        Cheap by construction (no per-entry walk); suitable for a hot
        ``/stats`` endpoint.
        """
        return {
            "entries": len(self._entries),
            "retired": len(self._retired),
            "max_entries": self.max_entries,
            "max_retired": self.max_retired,
            "recompilations_avoided": self.recompilations_avoided,
            "evictions": self.evictions,
            "retired_evictions": self.retired_evictions,
        }

    def age(self, origin: str, now: float) -> float | None:
        """Seconds since ``origin`` was fetched, or None when not cached."""
        entry = self._entries.get(origin)
        if entry is None:
            return None
        return now - entry.fetched_at

    def needs_refresh(self, origin: str, now: float) -> bool:
        """True when a fetch is required before crawling ``origin``."""
        return self.get(origin, now) is None

    def invalidate(self, origin: str) -> None:
        """Drop the entry for ``origin`` if present (retired too)."""
        self._entries.pop(origin, None)
        self._retired.pop(origin, None)

    def clear(self) -> None:
        self._entries.clear()
        self._retired.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, origin: str) -> bool:
        return origin in self._entries
