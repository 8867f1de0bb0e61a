"""Simulation engine: drive agents over the study calendar, emit logs.

The engine assembles the full study: 36 websites on one server, the
robots.txt deployment schedule on the experiment site, the calibrated
bot population plus spoofed shadows, and background noise.  Every
request flows through :class:`~repro.web.server.WebServer`; an access
hook converts each exchange into a :class:`~repro.logs.schema.LogRecord`
with hashed IPs, yielding the dataset the analysis pipeline consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bots.agent import BotAgent
from ..bots.behavior import BotProfile
from ..bots.profiles import build_profiles
from ..bots.spoofer import build_spoof_agents
from ..logs.schema import LogRecord
from ..web.generator import build_university_sites
from ..web.message import Request, Response
from ..web.server import WebServer
from .clock import day_range
from .iphash import IpAnonymizer
from .noise import NoiseModel
from .scenario import StudyScenario, default_scenario


@dataclass
class StudyDataset:
    """Output of one simulation run.

    Attributes:
        records: all raw access records, sorted by timestamp.
        scenario: the configuration that produced them.
        n_bot_agents: genuine bot agents simulated.
        n_spoof_agents: spoofed shadow agents simulated.
    """

    records: list[LogRecord]
    scenario: StudyScenario
    n_bot_agents: int = 0
    n_spoof_agents: int = 0
    #: Memoized RecordSource so the (streaming, chunked) content
    #: fingerprint is computed at most once per dataset.
    _source: object = field(default=None, init=False, repr=False, compare=False)

    def window(self, start: float, end: float) -> list[LogRecord]:
        """Records with ``start <= timestamp < end``."""
        return [
            record for record in self.records if start <= record.timestamp < end
        ]

    def phase_records(self, version) -> list[LogRecord]:
        """Experiment-site records during the phase running ``version``."""
        phase = self.scenario.phase_for_version(version)
        return [
            record
            for record in self.records
            if record.sitename == self.scenario.experiment_site
            and phase.contains(record.timestamp)
        ]

    # -- pipeline ingestion hooks -------------------------------------

    def source(self):
        """This dataset as a zero-copy pipeline record source.

        Memoized: repeated calls return the same
        :class:`~repro.pipeline.context.RecordSource`, so the rows' cache
        key is hashed once even when several analyses (or ``run_batch``
        studies) share one dataset.
        """
        from ..pipeline.context import RecordSource

        if self._source is None:
            self._source = RecordSource.of(self.records)
        return self._source

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class SimulationEngine:
    """Orchestrates one end-to-end study simulation.

    Args:
        scenario: calendar + scale + seed (defaults to the paper's).
        profiles: bot population override (defaults to the calibrated
            built-in population including the long tail).
        with_noise: include anonymous browser/scanner traffic.
        with_spoofing: include spoofed shadow agents.
    """

    scenario: StudyScenario = field(default_factory=default_scenario)
    profiles: list[BotProfile] | None = None
    with_noise: bool = True
    with_spoofing: bool = True

    def run(self) -> StudyDataset:
        """Simulate the full study and return the dataset."""
        server = WebServer()
        for site in build_university_sites(seed=self.scenario.seed):
            server.host(site)
        experiment = server.site(self.scenario.experiment_site)
        assert experiment is not None
        for start, text in self.scenario.robots_deployments():
            experiment.schedule_robots(start, text)

        records: list[LogRecord] = []
        anonymizer = IpAnonymizer(salt=f"study-{self.scenario.seed}")

        def log_hook(request: Request, response: Response) -> None:
            records.append(
                LogRecord(
                    useragent=request.user_agent,
                    timestamp=request.timestamp,
                    ip_hash=anonymizer.hash_ip(request.client_ip),
                    asn=request.asn,
                    sitename=request.host,
                    uri_path=request.path,
                    status_code=response.status,
                    bytes_sent=response.body_bytes,
                    referer=request.referer,
                )
            )

        server.add_hook(log_hook)

        profiles = self.profiles if self.profiles is not None else build_profiles()
        agents = [
            BotAgent(profile=profile, scenario=self.scenario, server=server)
            for profile in profiles
        ]
        spoofers: list[BotAgent] = []
        if self.with_spoofing:
            for profile in profiles:
                spoofers.extend(
                    build_spoof_agents(profile, self.scenario, server)
                )
        noise = NoiseModel(self.scenario, server) if self.with_noise else None

        for window_start, window_end in self.scenario.simulated_windows:
            for day_start in day_range(window_start, window_end):
                for agent in agents:
                    agent.emit_day(day_start)
                for spoofer in spoofers:
                    spoofer.emit_day(day_start)
                if noise is not None:
                    noise.emit_day(day_start)

        records.sort(key=lambda record: record.timestamp)
        return StudyDataset(
            records=records,
            scenario=self.scenario,
            n_bot_agents=len(agents),
            n_spoof_agents=len(spoofers),
        )


def run_study(
    scale: float = 0.05,
    seed: int = 2025,
    with_noise: bool = True,
    with_spoofing: bool = True,
) -> StudyDataset:
    """One-call convenience wrapper around :class:`SimulationEngine`."""
    engine = SimulationEngine(
        scenario=default_scenario(scale=scale, seed=seed),
        with_noise=with_noise,
        with_spoofing=with_spoofing,
    )
    return engine.run()
