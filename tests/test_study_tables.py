"""The printed-table stages: one pass, cached, equal to the per-record oracle.

``overview_tables`` (Tables 2-3, Figures 2-4) and ``phase_tables``
(Tables 4 and 9) replace computations the experiment drivers used to
run outside the stage DAG.  The oracle here is that old path: the
``repro.analysis.overview`` functions called without precomputed
sessions, and the facade's per-phase arithmetic over raw slices.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.overview import (
    PhaseTally,
    bytes_cdf_by_category,
    category_session_counts,
    daily_sessions_by_category,
    overview_row,
    top_bots,
)
from repro.analysis.spoofing import partition_records
from repro.bots.profiles import build_profiles
from repro.logs.schema import LogRecord
from repro.pipeline import PipelineConfig, build_study_pipeline
from repro.reporting.experiments import run_all
from repro.reporting.study import StudyAnalysis
from repro.simulation import quick_scenario

SCENARIO = quick_scenario(scale=0.1, seed=11)

SITES = (SCENARIO.experiment_site, *list(SCENARIO.passive_sites)[:2], "other.edu")

#: Registry-identifiable bots plus one anonymous browser.
USER_AGENTS = (
    *[profile.user_agent for profile in build_profiles()[:6]],
    "Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101 Firefox/115.0",
)

#: Every phase start plus the overview start, so records land in each
#: phase slice and in the overview window.
ANCHORS = tuple(
    sorted({phase.start for phase in SCENARIO.phases} | {SCENARIO.overview_start})
)


def _record(draw_tuple) -> LogRecord:
    site, ua, ip, asn, anchor, minute = draw_tuple
    return LogRecord(
        useragent=ua,
        # Minute steps against the 5-minute session timeout, so
        # sessions both merge and split.
        timestamp=anchor + minute * 60.0,
        ip_hash=ip,
        asn=asn,
        sitename=site,
        uri_path=f"/page-{minute % 7}",
        status_code=200,
        bytes_sent=100 + minute % 900,
    )


record_strategy = st.tuples(
    st.sampled_from(SITES),
    st.sampled_from(USER_AGENTS),
    st.sampled_from([f"ip-{i}" for i in range(5)]),
    # Mostly one ASN, so the spoofing heuristic flags the minority.
    st.sampled_from([15169] * 12 + [8075, 4837]),
    st.sampled_from(ANCHORS),
    st.integers(min_value=0, max_value=3 * 24 * 60 - 1),
).map(_record)


def _oracle_phase_tally(records, findings) -> PhaseTally:
    partitions = partition_records(records, findings)
    return PhaseTally(
        visits=len(records),
        bots=len({r.bot_name for r in records if r.bot_name is not None}),
        legitimate=sum(len(part.legitimate) for part in partitions.values()),
        spoofed=sum(len(part.spoofed) for part in partitions.values()),
    )


@settings(max_examples=30, deadline=None)
@given(st.lists(record_strategy, min_size=0, max_size=200))
def test_table_stages_equal_the_per_record_oracle(records):
    pipeline = build_study_pipeline(
        source=records, scenario=SCENARIO, config=PipelineConfig(jobs=1)
    )
    overview = pipeline.get("overview")
    known = [record for record in overview if record.bot_name is not None]
    tables = pipeline.get("overview_tables")
    assert tables.dataset == {
        "All data": overview_row(overview),
        "Known bots": overview_row(known),
    }
    assert tables.top_bots == top_bots(overview, count=20)
    assert tables.category_sessions == category_session_counts(overview)
    assert tables.bytes_cdf == bytes_cdf_by_category(overview, top=5)
    assert tables.daily_sessions == daily_sessions_by_category(overview, top=5)

    findings = pipeline.get("spoof_findings")
    slices = pipeline.get("phase_slices")
    assert pipeline.get("phase_tables") == {
        version: _oracle_phase_tally(phase_records, findings)
        for version, phase_records in slices.items()
    }


def test_run_all_sessionizes_once_cold_and_never_warm(
    quick_dataset, tmp_path, monkeypatch
):
    import repro.analysis.overview as overview

    calls = []
    original = overview.sessionize

    def counting(records, *args, **kwargs):
        calls.append(1)
        return original(records, *args, **kwargs)

    monkeypatch.setattr(overview, "sessionize", counting)

    cold = StudyAnalysis(quick_dataset, cache_dir=tmp_path)
    cold_results = run_all(cold)
    assert len(calls) == 1

    warm = StudyAnalysis(quick_dataset, cache_dir=tmp_path)
    warm_results = run_all(warm)
    assert len(calls) == 1
    events = warm.cache_stats.stage_events
    assert "overview" not in events and "phase_slices" not in events, events
    assert warm.cache_stats.misses == 0
    assert {key: result.rendered for key, result in warm_results.items()} == {
        key: result.rendered for key, result in cold_results.items()
    }
