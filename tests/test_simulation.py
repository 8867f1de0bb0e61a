"""Unit tests for the simulation layer: clock, iphash, scenario, noise,
engine determinism."""

import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ScenarioError
from repro.robots.corpus import RobotsVersion
from repro.simulation.clock import (
    SECONDS_PER_DAY,
    add_days,
    day_range,
    days_between,
    epoch,
    iso_day,
    next_day,
)
from repro.simulation.engine import SimulationEngine
from repro.simulation.iphash import IpAnonymizer, generate_ip_pool
from repro.simulation.noise import NoiseModel
from repro.simulation.scenario import (
    Phase,
    StudyScenario,
    default_scenario,
    quick_scenario,
)
from repro.web.generator import build_university_sites
from repro.web.server import WebServer


def unmemoized_iso_day(epoch_seconds: float) -> str:
    stamp = datetime.fromtimestamp(epoch_seconds, tz=timezone.utc)
    return stamp.strftime("%Y-%m-%d")


class TestClock:
    def test_epoch_round_trip(self):
        assert iso_day(epoch("2025-02-12")) == "2025-02-12"

    @given(st.floats(min_value=-6e10, max_value=2.5e11))
    def test_iso_day_matches_unmemoized(self, epoch_seconds):
        assert iso_day(epoch_seconds) == unmemoized_iso_day(epoch_seconds)

    def test_iso_day_just_below_midnight(self):
        # fromtimestamp rounds to the microsecond, so the largest float
        # below a midnight already renders as the next day; a memo keyed
        # on ``epoch // 86400`` would answer the day before.
        assert iso_day(math.nextafter(1_728_000_000.0, 0)) == "2024-10-04"
        scenario = default_scenario()
        first = min(start for start, _ in scenario.simulated_windows)
        last = max(end for _, end in scenario.simulated_windows)
        for day in range(int(first // 86_400), int(last // 86_400) + 2):
            below = math.nextafter(86_400.0 * day, 0)
            assert iso_day(below) == unmemoized_iso_day(below)

    def test_epoch_with_time(self):
        assert epoch("2025-02-12T12:00:00") - epoch("2025-02-12") == 43_200.0

    def test_day_range(self):
        days = day_range(epoch("2025-02-12"), epoch("2025-02-15"))
        assert len(days) == 3
        assert days[1] - days[0] == SECONDS_PER_DAY

    def test_add_and_between(self):
        start = epoch("2025-02-12")
        assert days_between(start, add_days(start, 14)) == 14.0

    def test_next_day(self):
        assert next_day("2025-02-28") == "2025-03-01"


class TestIpAnonymizer:
    def test_deterministic(self):
        anonymizer = IpAnonymizer(salt="s")
        assert anonymizer.hash_ip("1.2.3.4") == anonymizer.hash_ip("1.2.3.4")

    def test_distinct_ips_distinct_hashes(self):
        anonymizer = IpAnonymizer()
        assert anonymizer.hash_ip("1.2.3.4") != anonymizer.hash_ip("1.2.3.5")

    def test_salt_changes_hashes(self):
        assert IpAnonymizer(salt="a").hash_ip("1.2.3.4") != IpAnonymizer(
            salt="b"
        ).hash_ip("1.2.3.4")

    def test_fixed_length_hex(self):
        digest = IpAnonymizer().hash_ip("8.8.8.8")
        assert len(digest) == 16
        int(digest, 16)  # must be valid hex

    def test_pool_generation(self):
        pool = generate_ip_pool(np.random.default_rng(1), 10)
        assert len(pool) == len(set(pool)) == 10
        for ip in pool:
            octets = [int(piece) for piece in ip.split(".")]
            assert len(octets) == 4
            assert octets[0] not in (10, 127, 172, 192)


class TestScenario:
    def test_default_calendar_matches_paper(self):
        scenario = default_scenario()
        base = scenario.phase_for_version(RobotsVersion.BASE)
        assert iso_day(base.start) == "2025-01-15"
        assert base.duration_days == 14.0
        v3 = scenario.phase_for_version(RobotsVersion.V3_DISALLOW_ALL)
        assert iso_day(v3.end) == "2025-03-26"
        assert days_between(scenario.overview_start, scenario.overview_end) == 40.0

    def test_version_at(self):
        scenario = default_scenario()
        assert scenario.version_at(epoch("2025-01-20")) is RobotsVersion.BASE
        assert (
            scenario.version_at(epoch("2025-02-15"))
            is RobotsVersion.V1_CRAWL_DELAY
        )
        assert scenario.version_at(epoch("2025-03-01")) is RobotsVersion.V2_ENDPOINT
        assert (
            scenario.version_at(epoch("2025-03-15"))
            is RobotsVersion.V3_DISALLOW_ALL
        )
        # Gap between baseline and v1 falls back to base.
        assert scenario.version_at(epoch("2025-02-05")) is RobotsVersion.BASE

    def test_overlapping_phases_rejected(self):
        with pytest.raises(ScenarioError):
            StudyScenario(
                phases=(
                    Phase(RobotsVersion.BASE, 0.0, 100.0),
                    Phase(RobotsVersion.V1_CRAWL_DELAY, 50.0, 150.0),
                ),
                overview_start=0.0,
                overview_end=100.0,
            )

    def test_bad_scale_rejected(self):
        with pytest.raises(ScenarioError):
            StudyScenario(
                phases=(Phase(RobotsVersion.BASE, 0.0, 1.0),),
                overview_start=0.0,
                overview_end=1.0,
                scale=0.0,
            )

    def test_simulated_windows_merge_overlaps(self):
        scenario = default_scenario()
        windows = scenario.simulated_windows
        assert len(windows) == 2  # January block + merged Feb-Mar block
        assert windows[0][0] == epoch("2025-01-15")
        assert windows[1] == (epoch("2025-02-12"), epoch("2025-03-26"))

    def test_robots_deployments_in_order(self):
        deployments = default_scenario().robots_deployments()
        starts = [start for start, _ in deployments]
        assert starts == sorted(starts)
        assert "Crawl-delay: 30" in deployments[1][1]


class TestNoise:
    def test_noise_volume_scales(self):
        server = WebServer()
        for site in build_university_sites(seed=2):
            server.host(site)
        scenario = quick_scenario(scale=0.05, seed=3)
        noise = NoiseModel(scenario, server)
        noise.emit_day(epoch("2025-02-12"))
        expected = scenario.noise_accesses_per_day * scenario.scale
        assert 0.5 * expected < noise.requests_emitted < 1.5 * expected

    def test_scanner_ips_are_three(self):
        server = WebServer()
        for site in build_university_sites(seed=2):
            server.host(site)
        noise = NoiseModel(quick_scenario(scale=0.05), server)
        assert len(noise.scanner_ips) == 3


class TestEngineDeterminism:
    def test_same_seed_same_dataset(self):
        first = SimulationEngine(scenario=quick_scenario(scale=0.02, seed=11)).run()
        second = SimulationEngine(scenario=quick_scenario(scale=0.02, seed=11)).run()
        assert len(first.records) == len(second.records)
        sample = slice(0, 200)
        assert [
            (r.timestamp, r.uri_path, r.useragent) for r in first.records[sample]
        ] == [(r.timestamp, r.uri_path, r.useragent) for r in second.records[sample]]

    def test_different_seed_different_dataset(self):
        first = SimulationEngine(scenario=quick_scenario(scale=0.02, seed=11)).run()
        second = SimulationEngine(scenario=quick_scenario(scale=0.02, seed=12)).run()
        assert len(first.records) != len(second.records) or first.records[
            0
        ].ip_hash != second.records[0].ip_hash

    def test_records_sorted_by_timestamp(self, quick_dataset):
        timestamps = [record.timestamp for record in quick_dataset.records]
        assert timestamps == sorted(timestamps)

    def test_flags_disable_components(self):
        bare = SimulationEngine(
            scenario=quick_scenario(scale=0.02, seed=11),
            with_noise=False,
            with_spoofing=False,
        ).run()
        assert bare.n_spoof_agents == 0
        full = SimulationEngine(scenario=quick_scenario(scale=0.02, seed=11)).run()
        assert len(full.records) > len(bare.records)


class TestDatasetSlicing:
    def test_phase_records_only_experiment_site(self, quick_dataset):
        records = quick_dataset.phase_records(RobotsVersion.V1_CRAWL_DELAY)
        assert records
        site = quick_dataset.scenario.experiment_site
        assert all(record.sitename == site for record in records)
        phase = quick_dataset.scenario.phase_for_version(
            RobotsVersion.V1_CRAWL_DELAY
        )
        assert all(
            phase.start <= record.timestamp < phase.end for record in records
        )

    def test_window_slicing(self, quick_dataset):
        scenario = quick_dataset.scenario
        windowed = quick_dataset.window(
            scenario.overview_start, scenario.overview_end
        )
        assert 0 < len(windowed) <= len(quick_dataset.records)
