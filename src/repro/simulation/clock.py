"""Virtual time helpers for the study window.

All simulation time is epoch seconds (UTC).  The constants encode the
paper's calendar: baseline robots.txt data from January 2025, the main
collection window February 12 - March 29 2025, and the three directive
phases of two weeks each.
"""

from __future__ import annotations

from datetime import date, datetime, timezone
from functools import lru_cache

SECONDS_PER_DAY = 86_400.0


def epoch(iso_date: str) -> float:
    """Epoch seconds for an ISO date (``YYYY-MM-DD``) or datetime."""
    if "T" in iso_date:
        stamp = datetime.fromisoformat(iso_date.replace("Z", "+00:00"))
    else:
        stamp = datetime.fromisoformat(iso_date + "T00:00:00+00:00")
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def iso_day(epoch_seconds: float) -> str:
    """``YYYY-MM-DD`` (UTC) for an epoch timestamp.

    The day comes from ``fromtimestamp`` itself, which rounds to the
    microsecond (an epoch a hair below midnight is already the next
    day); only the rendering is memoized per calendar day.
    """
    stamp = datetime.fromtimestamp(epoch_seconds, tz=timezone.utc)
    return _day_text(stamp.toordinal())


@lru_cache(maxsize=4096)
def _day_text(ordinal: int) -> str:
    return date.fromordinal(ordinal).strftime("%Y-%m-%d")


def day_range(start: float, end: float) -> list[float]:
    """Day-start epochs covering [start, end), stepping 24 h."""
    days: list[float] = []
    cursor = start
    while cursor < end:
        days.append(cursor)
        cursor += SECONDS_PER_DAY
    return days
