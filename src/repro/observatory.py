"""Longitudinal robots.txt observatory.

The paper's motivation leans on Longpre et al.'s finding that
robots.txt restrictions tightened sharply after generative AI's rise.
This module provides the measurement machinery for exactly that kind
of longitudinal study: record dated snapshots of sites' robots.txt
files, quantify how restrictive each snapshot is (overall and for AI
agents specifically), and detect tightening trends and change events.

Example::

    observatory = RobotsObservatory()
    observatory.record("site.example", epoch("2023-01-01"), old_text)
    observatory.record("site.example", epoch("2025-01-01"), new_text)
    observatory.tightening_slope("site.example")   # > 0: tightening
    for event in observatory.change_events("site.example"):
        print(event.site, event.when, event.diff.strictness_score())

All probe metrics (restrictiveness, AI index, fully-blocked agents)
evaluate through the compiled engine's batch ``probe_matrix``
(:mod:`repro.robots.compiled`): each snapshot's policy compiles its
per-agent rule sets once and every probe path is normalized once, so
long restrictiveness series cost O(snapshots × probes) cheap matches
rather than O(snapshots × probes × rules) re-normalizations.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property

from .robots.diff import (
    DEFAULT_PROBE_AGENTS,
    DEFAULT_PROBE_PATHS,
    RobotsDiff,
    diff_policies,
)
from .robots.policy import RobotsPolicy
from .uaparse.registry import default_registry


def ai_agent_tokens() -> tuple[str, ...]:
    """Robots tokens of AI-category bots from the built-in registry."""
    tokens = [
        record.name
        for record in default_registry()
        if record.category.is_ai
    ]
    return tuple(sorted(tokens))


@dataclass(frozen=True)
class Snapshot:
    """One dated robots.txt observation."""

    site: str
    fetched_at: float
    text: str

    @cached_property
    def policy(self) -> RobotsPolicy:
        return RobotsPolicy.from_text(self.text)


@dataclass(frozen=True)
class ChangeEvent:
    """A robots.txt change between consecutive snapshots."""

    site: str
    when: float
    diff: RobotsDiff

    @property
    def tightened(self) -> bool:
        return self.diff.is_stricter


def restrictiveness(
    policy: RobotsPolicy,
    agents: tuple[str, ...] = DEFAULT_PROBE_AGENTS,
    paths: tuple[str, ...] = DEFAULT_PROBE_PATHS,
) -> float:
    """Fraction of (agent, path) probes denied, in [0, 1].

    Evaluated via the compiled engine's batch
    :meth:`~repro.robots.policy.RobotsPolicy.probe_matrix`, which
    normalizes each probe path once and resolves each agent's rule
    set once per policy instead of per probe.
    """
    total = len(agents) * len(paths)
    if not total:
        return 0.0
    matrix = policy.probe_matrix(agents, paths)
    denied = sum(1 for row in matrix for allowed in row if not allowed)
    return denied / total


def ai_restriction_index(
    policy: RobotsPolicy,
    paths: tuple[str, ...] = DEFAULT_PROBE_PATHS,
) -> float:
    """Restrictiveness measured over AI-bot tokens only.

    The longitudinal quantity Longpre et al. track: how much of the
    site is closed to AI crawlers specifically.
    """
    return restrictiveness(policy, agents=ai_agent_tokens(), paths=paths)


def fully_blocked_agents(
    policy: RobotsPolicy,
    agents: tuple[str, ...] = DEFAULT_PROBE_AGENTS,
    paths: tuple[str, ...] = DEFAULT_PROBE_PATHS,
) -> list[str]:
    """Probe agents denied every non-robots path in ``paths``."""
    probe_paths = tuple(
        path for path in paths if not path.startswith("/robots.txt")
    )
    if not probe_paths:
        return []  # nothing probed: vacuous "all denied" would mislead
    matrix = policy.probe_matrix(agents, probe_paths)
    return [
        agent for agent, row in zip(agents, matrix) if not any(row)
    ]


@dataclass
class RobotsObservatory:
    """Snapshot store with longitudinal analytics."""

    _snapshots: dict[str, list[Snapshot]] = field(default_factory=dict, repr=False)
    #: Per-site fetch times, kept parallel to ``_snapshots`` so point
    #: queries can bisect instead of scanning the history.
    _times: dict[str, list[float]] = field(default_factory=dict, repr=False)

    # -- recording -------------------------------------------------------

    def record(self, site: str, fetched_at: float, text: str) -> Snapshot:
        """Store one observation (kept sorted by time)."""
        snapshot = Snapshot(site=site, fetched_at=fetched_at, text=text)
        history = self._snapshots.setdefault(site, [])
        times = self._times.setdefault(site, [])
        position = bisect.bisect(times, fetched_at)
        history.insert(position, snapshot)
        times.insert(position, fetched_at)
        return snapshot

    def sites(self) -> list[str]:
        return sorted(self._snapshots)

    def history(self, site: str) -> list[Snapshot]:
        return list(self._snapshots.get(site, []))

    # -- point queries --------------------------------------------------------

    def latest(self, site: str) -> Snapshot | None:
        history = self._snapshots.get(site)
        return history[-1] if history else None

    def at(self, site: str, when: float) -> Snapshot | None:
        """The snapshot in force at time ``when`` (latest not after).

        O(log n) over the maintained time index, so point queries stay
        cheap on histories with thousands of snapshots.
        """
        times = self._times.get(site)
        if not times:
            return None
        position = bisect.bisect_right(times, when)
        if position == 0:
            return None
        return self._snapshots[site][position - 1]

    # -- longitudinal analytics ---------------------------------------------------

    def restrictiveness_series(
        self, site: str, agents: tuple[str, ...] = DEFAULT_PROBE_AGENTS
    ) -> list[tuple[float, float]]:
        """(time, restrictiveness) per snapshot, time-ordered."""
        return [
            (snapshot.fetched_at, restrictiveness(snapshot.policy, agents=agents))
            for snapshot in self._snapshots.get(site, [])
        ]

    def ai_series(self, site: str) -> list[tuple[float, float]]:
        """(time, AI restriction index) per snapshot."""
        return [
            (snapshot.fetched_at, ai_restriction_index(snapshot.policy))
            for snapshot in self._snapshots.get(site, [])
        ]

    def change_events(self, site: str) -> list[ChangeEvent]:
        """Diffs between consecutive snapshots that changed anything."""
        history = self._snapshots.get(site, [])
        events: list[ChangeEvent] = []
        for older, newer in zip(history, history[1:]):
            diff = diff_policies(older.policy, newer.policy)
            if diff.changes or diff.delay_changes:
                events.append(
                    ChangeEvent(site=site, when=newer.fetched_at, diff=diff)
                )
        return events

    def tightening_slope(self, site: str) -> float:
        """Least-squares slope of restrictiveness over time.

        Positive values mean the site is closing down — the
        "consent in crisis" trend.  Time unit: fraction per year.
        Returns 0.0 with fewer than two snapshots.
        """
        return _least_squares_slope(self.restrictiveness_series(site))

    def is_tightening(self, site: str) -> bool:
        return self.tightening_slope(site) > 0.0


def _least_squares_slope(series: list[tuple[float, float]]) -> float:
    """Slope of (epoch seconds, value) points, in fraction per year."""
    if len(series) < 2:
        return 0.0
    year = 365.25 * 86_400.0
    times = [when / year for when, _ in series]
    values = [value for _, value in series]
    n = len(series)
    mean_t = sum(times) / n
    mean_v = sum(values) / n
    denominator = sum((t - mean_t) ** 2 for t in times)
    if denominator == 0:
        return 0.0
    numerator = sum(
        (t - mean_t) * (v - mean_v) for t, v in zip(times, values)
    )
    return numerator / denominator
