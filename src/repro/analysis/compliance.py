"""The paper's three robots.txt compliance metrics (§4.2).

All three metrics reduce a bot's accesses during one deployment window
to a :class:`~repro.analysis.stats.ProportionSample` so the same
z-test machinery compares any window against the baseline:

- **crawl delay**: accesses are stratified by the requester tuple
  tau = (ASN, IP hash, user agent); within each tuple, successive
  access time deltas are computed and a delta "complies" when it is at
  least the directive's 30 seconds.  Tuples with a single access count
  as one compliant delta, per the paper.
- **endpoint access**: an access complies when it targets robots.txt
  (always allowed) or the ``/page-data`` endpoint.
- **disallow all**: an access complies only when it targets
  robots.txt.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from collections.abc import Iterable

from ..logs.schema import LogRecord
from ..robots.corpus import V1_CRAWL_DELAY_SECONDS, V2_ALLOWED_ENDPOINT
from .stats import ProportionSample

#: Prefix form of the v2 allowed endpoint (strip the trailing ``*``).
_ENDPOINT_PREFIX = V2_ALLOWED_ENDPOINT.rstrip("*")


class Directive(enum.Enum):
    """The three measured directives, in increasing strictness."""

    CRAWL_DELAY = "crawl delay"
    ENDPOINT = "endpoint access"
    DISALLOW_ALL = "disallow all"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def tau_groups(
    records: Iterable[LogRecord],
) -> dict[tuple[int, str, str], list[LogRecord]]:
    """Stratify records by the requester tuple (ASN, IP hash, UA).

    Each group is sorted by timestamp, ready for delta computation.
    """
    groups: defaultdict[tuple[int, str, str], list[LogRecord]] = defaultdict(list)
    for record in records:
        groups[record.tau].append(record)
    for group in groups.values():
        group.sort(key=lambda record: record.timestamp)
    return dict(groups)


def crawl_delay_sample(
    records: Iterable[LogRecord],
    threshold_seconds: float = V1_CRAWL_DELAY_SECONDS,
) -> ProportionSample:
    """Crawl-delay compliance counts for one bot's records.

    Deltas are computed within each tau tuple; single-access tuples
    contribute one compliant observation (C_tau = 1 per the paper).
    """
    compliant = 0
    total = 0
    for group in tau_groups(records).values():
        if len(group) == 1:
            compliant += 1
            total += 1
            continue
        for earlier, later in zip(group, group[1:]):
            delta = later.timestamp - earlier.timestamp
            total += 1
            if delta >= threshold_seconds:
                compliant += 1
    return ProportionSample(successes=compliant, trials=total)


def _is_endpoint_access(record: LogRecord) -> bool:
    return record.is_robots_fetch or record.uri_path.startswith(_ENDPOINT_PREFIX)


def endpoint_sample(records: Iterable[LogRecord]) -> ProportionSample:
    """Endpoint-access compliance counts for one bot's records."""
    compliant = 0
    total = 0
    for record in records:
        total += 1
        if _is_endpoint_access(record):
            compliant += 1
    return ProportionSample(successes=compliant, trials=total)


def disallow_sample(records: Iterable[LogRecord]) -> ProportionSample:
    """Disallow-all compliance counts for one bot's records."""
    compliant = 0
    total = 0
    for record in records:
        total += 1
        if record.is_robots_fetch:
            compliant += 1
    return ProportionSample(successes=compliant, trials=total)


def sample_for(
    directive: Directive, records: Iterable[LogRecord]
) -> ProportionSample:
    """Dispatch to the metric measuring ``directive``."""
    if directive is Directive.CRAWL_DELAY:
        return crawl_delay_sample(records)
    if directive is Directive.ENDPOINT:
        return endpoint_sample(records)
    return disallow_sample(records)


def checked_robots(records: Iterable[LogRecord]) -> bool:
    """Whether any access in ``records`` fetched robots.txt.

    Feeds the paper's Table 7 ("Checked robots.txt" per experiment).
    """
    return any(record.is_robots_fetch for record in records)
