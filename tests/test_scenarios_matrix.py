"""Matrix runner: per-cell caching, knob-edit invalidation, reductions."""

import dataclasses
import hashlib

from repro.bots import agent as agent_module
from repro.bots.profiles import profile_by_name
from repro.scenarios import (
    ScenarioGrid,
    build_roc_tables,
    build_scorecard,
    deterrence_preset,
    parse_grid,
    roc_curve,
    run_cell,
    run_matrix,
)
from repro.scenarios.results import CellMetrics
from repro.simulation.hooks import ObservedGateway
from repro.web.site import ROBOTS_PATH

#: Small-but-real grid: 1 bot x 2 strategies x 2 deterrence = 4 cells.
GRID = ScenarioGrid(
    bots=("GPTBot",),
    strategies=("honest", "fetch_violate"),
    deterrence=(deterrence_preset("none"), deterrence_preset("full")),
    robots=("base",),
    traffic=("steady",),
    days=1,
    accesses_target=120,
)


class TestMatrixCaching:
    def test_cold_run_computes_every_cell(self, tmp_path):
        result = run_matrix(GRID, cache_dir=str(tmp_path))
        assert result.computed == len(GRID)
        assert result.cached == 0
        assert len(result.cells) == len(GRID)

    def test_warm_rerun_computes_nothing(self, tmp_path):
        cold = run_matrix(GRID, cache_dir=str(tmp_path))
        warm = run_matrix(GRID, cache_dir=str(tmp_path))
        assert warm.computed == 0
        assert warm.cached == len(GRID)
        assert warm.stats.misses == 0
        assert repr(warm.cells) == repr(cold.cells)

    def test_knob_edit_recomputes_exactly_affected_cells(self, tmp_path):
        run_matrix(GRID, cache_dir=str(tmp_path))
        edited = GRID.with_knob("full.ratelimit_capacity=12")
        result = run_matrix(edited, cache_dir=str(tmp_path))
        # "full" appears in 2 of the 4 cells (one per strategy).
        assert result.computed == 2
        assert result.cached == 2
        recomputed = {
            result.cells[index].deterrence
            for index in result.stats.shard_misses["cells"]
        }
        assert recomputed == {"full"}

    def test_single_cell_knob_edit_recomputes_one_cell(self, tmp_path):
        """The ISSUE's acceptance bar: with one cell per deterrence
        config, editing one knob reruns exactly one cell."""
        grid = dataclasses.replace(GRID, strategies=("honest",))
        run_matrix(grid, cache_dir=str(tmp_path))
        result = run_matrix(
            grid.with_knob("full.ratelimit_capacity=12"),
            cache_dir=str(tmp_path),
        )
        assert result.computed == 1
        assert result.cached == 1
        assert result.stats.shard_misses["cells"] == [
            next(
                index
                for index, cell in enumerate(result.cells)
                if cell.deterrence == "full"
            )
        ]

    def test_subgrid_of_warm_grid_is_fully_warm(self, tmp_path):
        run_matrix(GRID, cache_dir=str(tmp_path))
        subgrid = dataclasses.replace(GRID, strategies=("honest",))
        result = run_matrix(subgrid, cache_dir=str(tmp_path))
        assert result.computed == 0
        assert result.cached == len(subgrid)

    def test_no_cache_flag_skips_reads_but_publishes(self, tmp_path):
        run_matrix(GRID, cache_dir=str(tmp_path))
        result = run_matrix(GRID, cache_dir=str(tmp_path), no_cache=True)
        assert result.computed == len(GRID)
        assert result.stats.published > 0

    def test_uncached_run_works_without_store(self):
        result = run_matrix(GRID)
        assert result.computed == len(GRID)
        assert len(result.cells) == len(GRID)


class TestCellResults:
    def test_cells_arrive_in_grid_order(self, tmp_path):
        result = run_matrix(GRID, cache_dir=str(tmp_path))
        assert [cell.cell_id for cell in result.cells] == [
            spec.cell_id() for spec in GRID.cells()
        ]

    def test_run_cell_is_deterministic(self):
        spec = GRID.cells()[0]
        assert repr(run_cell(spec)) == repr(run_cell(spec))

    def test_full_deterrence_stops_more_than_none(self, tmp_path):
        result = run_matrix(GRID, cache_dir=str(tmp_path))
        by_id = {cell.cell_id: cell for cell in result.cells}
        none_cell = by_id["GPTBot|fetch_violate|none|base|steady"]
        full_cell = by_id["GPTBot|fetch_violate|full|base|steady"]
        assert (
            full_cell.metrics.bot_deterred_fraction
            > none_cell.metrics.bot_deterred_fraction
        )

    def test_violator_attempts_disallowed_paths(self, tmp_path):
        result = run_matrix(GRID, cache_dir=str(tmp_path))
        by_id = {cell.cell_id: cell for cell in result.cells}
        violator = by_id["GPTBot|fetch_violate|none|base|steady"]
        assert violator.metrics.disallowed_attempts > 0
        # without enforcement every attempt leaks
        assert violator.metrics.violation_leak_fraction == 1.0

    def test_enforcement_closes_the_leak(self, tmp_path):
        result = run_matrix(GRID, cache_dir=str(tmp_path))
        by_id = {cell.cell_id: cell for cell in result.cells}
        enforced = by_id["GPTBot|fetch_violate|full|base|steady"]
        assert enforced.metrics.disallowed_served == 0


#: 60 cells: both bots under all five strategies.
GOLDEN_GRID = (
    "bots=GPTBot,RobotsViolator;"
    "strategy=honest,spoof_asn,ua_rotation,fetch_violate,low_slow;"
    "deterrence=none,robots,full;robots=base,v3;traffic=burst;"
    "days=2;accesses_target=200"
)
#: ``repr`` digest of the grid's cell results; a change here moves
#: every cached cell, so it needs a ``CELLS_TOKEN`` bump.
GOLDEN_DIGEST = "7224904702e5339f3ae45f4850acf36670e2702015567541c0a4a8d8fffc8358"


class TestCellGolden:
    def test_cell_results_are_byte_identical(self):
        cells = tuple(
            run_cell(spec) for spec in parse_grid(GOLDEN_GRID, seed=2025).cells()
        )
        assert len(cells) == 60
        assert hashlib.sha256(repr(cells).encode()).hexdigest() == GOLDEN_DIGEST

    def test_violator_parses_robots_only_when_the_fetch_changed(
        self, monkeypatch
    ):
        """One parse per change of the fetched ``(status, body)``; the
        cell's rate limiter answers some fetches with 429."""
        (spec,) = parse_grid(
            "bots=RobotsViolator;strategy=fetch_violate;deterrence=full;"
            "robots=base;traffic=burst;days=2;accesses_target=200",
            seed=2025,
        ).cells()
        user_agent = profile_by_name("RobotsViolator").user_agent
        fetched, parses = [], []
        resolve = agent_module.resolve_fetch
        handle = ObservedGateway.handle

        def counted(status, body):
            parses.append(status)
            return resolve(status, body)

        def observed(self, request):
            response = handle(self, request)
            if request.path == ROBOTS_PATH and request.user_agent == user_agent:
                fetched.append((response.status, response.body or b""))
            return response

        monkeypatch.setattr(agent_module, "resolve_fetch", counted)
        monkeypatch.setattr(ObservedGateway, "handle", observed)
        run_cell(spec)
        changes = [
            index
            for index, pair in enumerate(fetched)
            if index == 0 or pair != fetched[index - 1]
        ]
        assert 1 < len(changes) < len(fetched)
        assert parses == [fetched[index][0] for index in changes]


class TestReductions:
    def test_scorecard_one_row_per_config_in_grid_order(self, tmp_path):
        result = run_matrix(GRID, cache_dir=str(tmp_path))
        assert [row.deterrence for row in result.scorecard] == ["none", "full"]
        assert all(row.cells == 2 for row in result.scorecard)

    def test_roc_tables_cover_all_detectors(self, tmp_path):
        result = run_matrix(GRID, cache_dir=str(tmp_path))
        assert {table.detector for table in result.roc} == {
            "honeypot",
            "asn",
            "ua",
            "violation",
        }
        for table in result.roc:
            assert 0.0 <= table.auc <= 1.0

    def test_violation_detector_separates_the_violator(self, tmp_path):
        result = run_matrix(GRID, cache_dir=str(tmp_path))
        violation = next(
            t for t in result.roc if t.detector == "violation"
        )
        assert violation.auc >= 0.5

    def test_roc_curve_perfect_separation(self):
        auc, points = roc_curve(
            [(0.9, True), (0.8, True), (0.1, False), (0.0, False)]
        )
        assert auc == 1.0
        assert points[0].tpr == 0.5 and points[0].fpr == 0.0

    def test_roc_curve_no_separation(self):
        auc, _ = roc_curve([(0.5, True), (0.5, False)])
        assert auc == 0.5

    def test_scorecard_and_roc_pure_over_cells(self, tmp_path):
        result = run_matrix(GRID, cache_dir=str(tmp_path))
        assert repr(build_scorecard(result.cells)) == repr(result.scorecard)
        assert repr(build_roc_tables(result.cells)) == repr(result.roc)


class TestMetricsProperties:
    def _metrics(self, **overrides):
        defaults = dict(
            requests=10,
            served=6,
            blocked=1,
            robots_denied=1,
            throttled=1,
            tarpitted=1,
            bytes_sent=1000,
            robots_fetches=2,
            trap_hits=1,
            disallowed_attempts=4,
            disallowed_served=1,
            bot_requests=8,
            bot_served=4,
            noise_requests=2,
            noise_served=2,
            distinct_uas=1,
            distinct_ips=2,
            distinct_asns=1,
            score_honeypot=0.1,
            score_asn=0.0,
            score_ua=0.0,
            score_violation=0.4,
        )
        defaults.update(overrides)
        return CellMetrics(**defaults)

    def test_derived_fractions(self):
        metrics = self._metrics()
        assert metrics.bot_deterred_fraction == 0.5
        assert metrics.noise_collateral_fraction == 0.0
        assert metrics.violation_leak_fraction == 0.25

    def test_zero_denominators(self):
        metrics = self._metrics(
            bot_requests=0,
            bot_served=0,
            noise_requests=0,
            noise_served=0,
            disallowed_attempts=0,
            disallowed_served=0,
        )
        assert metrics.bot_deterred_fraction == 0.0
        assert metrics.noise_collateral_fraction == 0.0
        assert metrics.violation_leak_fraction == 0.0
