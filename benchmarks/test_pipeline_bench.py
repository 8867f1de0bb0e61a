"""Wall-clock benchmarks for the sharded analysis pipeline.

Establishes the perf contract of :mod:`repro.pipeline`: on a
multi-site synthetic corpus, the site-sharded executor at ``--jobs 4``
must beat the sequential pipeline by ≥ 2× wall-clock.  The workload is
sharded preprocessing + site tallies over a corpus whose user agents
are mostly unique (the registry-miss path — the CPU-bound enrichment
work production log analysis is dominated by).

Mirroring the matcher bench, the speedup assertion is enforced only
where it is meaningful: off-CI (shared runners make wall-clock ratios
flaky) *and* on hosts with at least 4 usable cores (process-level
parallelism cannot beat sequential on fewer).  The sharded ==
sequential parity cross-checks always run, everywhere — speed must
never drift from semantics.
"""

from __future__ import annotations

import os
import random
import time

from repro.bots.profiles import build_profiles
from repro.logs.schema import LogRecord
from repro.pipeline import PipelineConfig, build_study_pipeline
from repro.simulation import quick_scenario

#: Required speedup of the 4-job sharded pipeline over sequential.
MIN_SPEEDUP = 2.0

BENCH_JOBS = 4


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: Hard gate only off-CI and with enough cores for 4 real workers.
ENFORCE_SPEEDUP = not os.environ.get("CI") and usable_cores() >= BENCH_JOBS


def assert_speedup(speedup: float) -> None:
    if ENFORCE_SPEEDUP:
        assert speedup >= MIN_SPEEDUP


def best_time(fn, repeats: int = 2) -> float:
    """Minimum wall-clock of ``repeats`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def build_multisite_corpus(
    sites: int = 16, per_site: int = 1200, seed: int = 7
) -> list[LogRecord]:
    """A deterministic multi-site corpus shaped like real server logs.

    ~30 % known-bot traffic; the rest carries unique browser UA
    variants, so enrichment takes the registry-miss path (every bot
    regex tried) — the hot loop the sharded preprocess parallelizes.
    """
    rng = random.Random(seed)
    bot_agents = [profile.user_agent for profile in build_profiles()[:12]]
    paths = ("/", "/people/faculty", "/robots.txt", "/docs/paper.pdf")
    asns = (15169, 8075, 4837, 132203, 16509)
    records: list[LogRecord] = []
    base = 1_735_689_600.0
    for site_index in range(sites):
        site = f"dept-{site_index:02d}.university.edu"
        for i in range(per_site):
            if rng.random() < 0.3:
                agent = rng.choice(bot_agents)
            else:
                agent = (
                    f"Mozilla/5.0 (X11; Linux x86_64; rv:{rng.randrange(90, 140)}.0) "
                    f"Gecko/20100101 Custom/{site_index}.{i}"
                )
            records.append(
                LogRecord(
                    useragent=agent,
                    timestamp=base + i * 3.7 + site_index,
                    ip_hash=f"ip-{rng.randrange(4000)}",
                    asn=rng.choice(asns),
                    sitename=site,
                    uri_path=rng.choice(paths),
                    status_code=200,
                    bytes_sent=1000,
                )
            )
    return records


def _run_pipeline(records: list[LogRecord], jobs: int):
    pipeline = build_study_pipeline(
        source=list(records),
        scenario=quick_scenario(),
        config=PipelineConfig(jobs=jobs),
    )
    kept, report = pipeline.get("preprocess")
    traffic = pipeline.get("site_traffic")
    return kept, report, traffic


def test_sharded_pipeline_speedup_and_parity(bench_timings):
    records = build_multisite_corpus()

    # Parity first: sharded output must be byte-identical to sequential.
    kept_seq, report_seq, traffic_seq = _run_pipeline(records, jobs=1)
    kept_par, report_par, traffic_par = _run_pipeline(records, jobs=BENCH_JOBS)
    assert report_par == report_seq
    assert traffic_par == traffic_seq
    assert [r.to_dict() for r in kept_par] == [r.to_dict() for r in kept_seq]

    sequential = best_time(lambda: _run_pipeline(records, jobs=1))
    sharded = best_time(lambda: _run_pipeline(records, jobs=BENCH_JOBS))
    speedup = sequential / sharded
    gate = "enforced" if ENFORCE_SPEEDUP else (
        f"advisory ({usable_cores()} cores, CI={bool(os.environ.get('CI'))})"
    )
    print(
        f"\npipeline preprocess+tallies over {len(records):,} records / "
        f"16 sites: sequential {sequential:.3f}s, "
        f"--jobs {BENCH_JOBS} {sharded:.3f}s, speedup {speedup:.2f}x [{gate}]"
    )
    bench_timings(
        "pipeline/sharded_preprocess",
        sequential_s=sequential,
        sharded_s=sharded,
        speedup=speedup,
        jobs=BENCH_JOBS,
        enforced=ENFORCE_SPEEDUP,
    )
    assert_speedup(speedup)
