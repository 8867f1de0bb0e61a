"""Shard/merge parity: sharded pipelines must equal sequential ones.

The pipeline's headline guarantee is that ``jobs=N`` and ``jobs=1``
produce *identical* artifacts — same Table-5 cells, same per-bot
results, same preprocess report counts — for any input.  A property
test exercises the partition/merge machinery over randomized datasets
(inline executor: the same partition/merge path at ``jobs > 1``, cheap
enough for many hypothesis examples), and an
integration test runs real worker processes over the shared quick
dataset comparing rendered tables byte for byte.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bots.profiles import build_profiles
from repro.logs.schema import LogRecord
from repro.pipeline import PipelineConfig, build_study_pipeline
from repro.reporting.experiments import run_experiment
from repro.reporting.study import StudyAnalysis
from repro.simulation import quick_scenario

SCENARIO = quick_scenario(scale=0.1, seed=11)

#: Sites covering the experiment site, passive sites, and one more.
SITES = tuple(
    dict.fromkeys(
        [SCENARIO.experiment_site]
        + list(SCENARIO.passive_sites)[:3]
        + ["cs.university41.edu"]
    )
)

#: Real bot user agents (registry-identifiable) plus anonymous ones.
_PROFILES = build_profiles()
USER_AGENTS = tuple(
    [profile.user_agent for profile in _PROFILES[:8]]
    + ["Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101 Firefox/115.0"]
)

PATHS = (
    "/",
    "/robots.txt",
    "/page-data/chunk-1",
    "/people/faculty",
    "/wp-admin/setup.php",  # scanner-looking
    "/.env",  # scanner-looking
)

_START = min(phase.start for phase in SCENARIO.phases)
_END = SCENARIO.overview_end


def _record(draw_tuple) -> LogRecord:
    site, ua, ip, asn, path, tick = draw_tuple
    span = _END - _START
    return LogRecord(
        useragent=ua,
        timestamp=_START + (tick % 10_000) / 10_000 * span,
        ip_hash=ip,
        asn=asn,
        sitename=site,
        uri_path=path,
        status_code=200,
        bytes_sent=512,
    )


record_strategy = st.tuples(
    st.sampled_from(SITES),
    st.sampled_from(USER_AGENTS),
    st.sampled_from([f"ip-{i}" for i in range(6)]),
    st.sampled_from([15169, 8075, 4837, 132203]),
    st.sampled_from(PATHS),
    st.integers(min_value=0, max_value=9_999),
).map(_record)


@settings(max_examples=25, deadline=None)
@given(st.lists(record_strategy, min_size=0, max_size=150))
def test_sharded_equals_sequential_on_random_datasets(records):
    sequential = build_study_pipeline(
        source=list(records),
        scenario=SCENARIO,
        config=PipelineConfig(jobs=1),
    )
    sharded = build_study_pipeline(
        source=list(records),
        scenario=SCENARIO,
        config=PipelineConfig(jobs=3, executor="inline"),
    )
    seq_records, seq_report = sequential.get("preprocess")
    shard_records, shard_report = sharded.get("preprocess")
    assert shard_report == seq_report
    assert [r.to_dict() for r in shard_records] == [
        r.to_dict() for r in seq_records
    ]
    assert sharded.get("per_bot") == sequential.get("per_bot")
    assert (
        sharded.get("category_table").cells
        == sequential.get("category_table").cells
    )
    assert sharded.get("skipped_checks") == sequential.get("skipped_checks")
    assert sharded.get("recheck") == sequential.get("recheck")
    assert sharded.get("site_traffic") == sequential.get("site_traffic")


@settings(max_examples=10, deadline=None)
@given(
    st.lists(record_strategy, min_size=0, max_size=120),
    st.integers(min_value=2, max_value=6),
)
def test_parity_holds_for_any_shard_count_and_key(records, jobs):
    sequential = build_study_pipeline(
        source=list(records), scenario=SCENARIO, config=PipelineConfig(jobs=1)
    )
    sharded = build_study_pipeline(
        source=list(records),
        scenario=SCENARIO,
        config=PipelineConfig(jobs=jobs, executor="inline"),
    )
    assert sharded.get("preprocess")[1] == sequential.get("preprocess")[1]
    assert sharded.get("per_bot") == sequential.get("per_bot")
    assert (
        sharded.get("category_table").cells
        == sequential.get("category_table").cells
    )


class TestProcessExecutorParity:
    """Real worker processes over the shared quick dataset."""

    def test_rendered_tables_byte_identical(self, quick_dataset, quick_analysis):
        sharded = StudyAnalysis(quick_dataset, jobs=2, executor="process")
        assert sharded.preprocess_report == quick_analysis.preprocess_report
        assert len(sharded.records) == len(quick_analysis.records)
        for experiment_id in ("T2", "T4", "T5", "T6", "T7", "T9"):
            assert (
                run_experiment(experiment_id, sharded).rendered
                == run_experiment(experiment_id, quick_analysis).rendered
            ), experiment_id
