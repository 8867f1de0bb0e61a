"""Matrix results are byte-identical across every execution mode.

Same discipline as ``tests/test_distributed_parity.py``: canonical
``repr`` bytes of the artifacts must not change with ``--jobs``, the
executor backend, or a warm artifact cache written by a *different*
mode — cache keys ignore execution knobs entirely, so artifacts are
interchangeable across them.
"""

import pytest

from repro.scenarios import ScenarioGrid, deterrence_preset, run_matrix

#: Two cells keep the process/queue variants fast while still
#: exercising multi-shard merges.
GRID = ScenarioGrid(
    bots=("GPTBot",),
    strategies=("honest", "fetch_violate"),
    deterrence=(deterrence_preset("full"),),
    robots=("base",),
    traffic=("steady",),
    days=1,
    accesses_target=80,
)


def _result_bytes(result) -> bytes:
    return repr((result.cells, result.scorecard, result.roc)).encode("utf-8")


@pytest.fixture(scope="module")
def baseline():
    """The sequential, storeless reference run."""
    return _result_bytes(run_matrix(GRID, jobs=1, executor="inline"))


class TestExecutionModeParity:
    def test_jobs_1_matches_jobs_4(self, baseline):
        assert (
            _result_bytes(run_matrix(GRID, jobs=4, executor="inline"))
            == baseline
        )

    def test_process_executor_matches_inline(self, baseline):
        assert (
            _result_bytes(run_matrix(GRID, jobs=2, executor="process"))
            == baseline
        )

    def test_queue_executor_matches_inline(self, baseline, tmp_path):
        result = run_matrix(
            GRID,
            jobs=2,
            executor="queue",
            spool=str(tmp_path / "spool"),
            workers=2,
        )
        assert _result_bytes(result) == baseline


class TestCrossModeCache:
    def test_cache_written_inline_serves_queue_run(self, baseline, tmp_path):
        cache = str(tmp_path / "cache")
        cold = run_matrix(
            GRID, jobs=1, executor="inline", cache_dir=cache
        )
        assert cold.computed == len(GRID)
        warm = run_matrix(
            GRID,
            jobs=4,
            executor="queue",
            spool=str(tmp_path / "spool"),
            workers=0,  # nobody serves the spool; nobody has to
            cache_dir=cache,
        )
        assert warm.computed == 0
        assert warm.stats.misses == 0
        assert _result_bytes(warm) == baseline

    def test_cache_written_at_jobs_4_serves_jobs_1(self, baseline, tmp_path):
        cache = str(tmp_path / "cache")
        run_matrix(GRID, jobs=4, executor="inline", cache_dir=cache)
        warm = run_matrix(GRID, jobs=1, executor="inline", cache_dir=cache)
        assert warm.computed == 0
        assert _result_bytes(warm) == baseline
