"""Study scenario: the experiment calendar and its robots.txt phases.

Encodes the paper's §4.1 design: four robots.txt versions deployed for
two weeks each on one high-traffic site (baseline collected in January
2025, v1-v3 during the February-March main window), alongside the
40-day passive-observation window used for the dataset overview and
the §5.1 check-frequency analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ScenarioError
from ..robots.corpus import RobotsVersion, render_version
from ..web.site import EXPERIMENT_SITE, PASSIVE_ROBOTS_SITES
from .clock import epoch


@dataclass(frozen=True)
class Phase:
    """One robots.txt deployment window on the experiment site."""

    version: RobotsVersion
    start: float
    end: float

    @property
    def duration_days(self) -> float:
        return (self.end - self.start) / 86_400.0

    def contains(self, timestamp: float) -> bool:
        return self.start <= timestamp < self.end


@dataclass(frozen=True)
class StudyScenario:
    """Full configuration of one simulated study.

    Attributes:
        phases: the four robots.txt deployments, in calendar order.
        overview_start / overview_end: the 40-day window of the
            dataset-overview analyses (Tables 2-3, Figures 2-4).
        experiment_site: hostname carrying the version rotation.
        passive_sites: hostnames with fixed, simple robots.txt used
            for the check-frequency analysis.
        scale: traffic volume multiplier relative to paper scale
            (1.0 reproduces ~3.9 M raw accesses; the default 0.05
            yields a laptop-friendly ~200 k).
        seed: master RNG seed; everything derives from it.
        noise_accesses_per_day: background (non-bot) raw accesses per
            day at paper scale.
    """

    phases: tuple[Phase, ...]
    overview_start: float
    overview_end: float
    experiment_site: str = EXPERIMENT_SITE
    passive_sites: tuple[str, ...] = PASSIVE_ROBOTS_SITES
    scale: float = 0.05
    seed: int = 2025
    noise_accesses_per_day: float = 45_000.0

    def __post_init__(self) -> None:
        if not self.phases:
            raise ScenarioError("scenario needs at least one phase")
        ordered = sorted(self.phases, key=lambda phase: phase.start)
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.end > later.start:
                raise ScenarioError(
                    f"phases overlap: {earlier.version} and {later.version}"
                )
        if self.scale <= 0:
            raise ScenarioError("scale must be positive")

    # -- phase queries --------------------------------------------------

    def phase_at(self, timestamp: float) -> Phase | None:
        """The experiment phase covering ``timestamp``, if any."""
        for phase in self.phases:
            if phase.contains(timestamp):
                return phase
        return None

    def version_at(self, timestamp: float) -> RobotsVersion:
        """robots.txt version in force on the experiment site.

        Gaps between phases (e.g. late January to February 12) fall
        back to the base version, matching the institution's standing
        configuration.
        """
        phase = self.phase_at(timestamp)
        return phase.version if phase is not None else RobotsVersion.BASE

    def phase_for_version(self, version: RobotsVersion) -> Phase:
        for phase in self.phases:
            if phase.version is version:
                return phase
        raise ScenarioError(f"scenario has no phase for {version}")

    @property
    def simulated_windows(self) -> list[tuple[float, float]]:
        """Disjoint [start, end) windows that need traffic generated."""
        windows: list[tuple[float, float]] = []
        spans = [(phase.start, phase.end) for phase in self.phases]
        spans.append((self.overview_start, self.overview_end))
        for start, end in sorted(spans):
            if windows and start <= windows[-1][1]:
                windows[-1] = (windows[-1][0], max(windows[-1][1], end))
            else:
                windows.append((start, end))
        return windows

    def robots_deployments(self) -> list[tuple[float, str]]:
        """(start epoch, robots.txt text) pairs for the experiment site."""
        return [
            (phase.start, render_version(phase.version)) for phase in self.phases
        ]


def default_scenario(scale: float = 0.05, seed: int = 2025) -> StudyScenario:
    """The paper's calendar: baseline in January, v1-v3 February-March."""
    return StudyScenario(
        phases=(
            Phase(RobotsVersion.BASE, epoch("2025-01-15"), epoch("2025-01-29")),
            Phase(RobotsVersion.V1_CRAWL_DELAY, epoch("2025-02-12"), epoch("2025-02-26")),
            Phase(RobotsVersion.V2_ENDPOINT, epoch("2025-02-26"), epoch("2025-03-12")),
            Phase(RobotsVersion.V3_DISALLOW_ALL, epoch("2025-03-12"), epoch("2025-03-26")),
        ),
        overview_start=epoch("2025-02-12"),
        overview_end=epoch("2025-03-24"),
        scale=scale,
        seed=seed,
    )


def quick_scenario(scale: float = 0.05, seed: int = 2025) -> StudyScenario:
    """A compressed calendar (3 days per phase) for tests and demos."""
    return StudyScenario(
        phases=(
            Phase(RobotsVersion.BASE, epoch("2025-01-15"), epoch("2025-01-18")),
            Phase(RobotsVersion.V1_CRAWL_DELAY, epoch("2025-02-12"), epoch("2025-02-15")),
            Phase(RobotsVersion.V2_ENDPOINT, epoch("2025-02-15"), epoch("2025-02-18")),
            Phase(RobotsVersion.V3_DISALLOW_ALL, epoch("2025-02-18"), epoch("2025-02-21")),
        ),
        overview_start=epoch("2025-02-12"),
        overview_end=epoch("2025-02-21"),
        scale=scale,
        seed=seed,
    )
