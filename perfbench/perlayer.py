"""The per-layer metrics of a traced run, and their summary table.

Every traced run reports every per-layer metric; a layer that does no
work in a workload reports 0.  Each metric is read from one phase of
the workload, the phase whose end-to-end time it should move (see
``PHASE_OF``); metrics without a designated phase sum all phases.
"""

from __future__ import annotations

from perfbench import harness
from perfbench.layers import STUDY_STAGES
from perfbench.tracing import by_layer

DRIVERS = ("T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10",
           "F2", "F3", "F4", "F9", "F10", "F11")
SERVER_P99 = tuple(
    f"service.server_p99_ms.{phase}.{endpoint}"
    for phase in ("warm", "churn")
    for endpoint in ("can_fetch", "can_fetch_many")
)

#: metric -> (unit, how to read it).  A reading is ``("self", key)`` for
#: summed self seconds of span keys, ``("calls", key)``, ``("bytes", key)``
#: (for a generator span: the items it yielded), ``("counter", name)``,
#: or ``("given", name)`` for a figure the workload measured directly.
CATALOGUE: dict[str, tuple[str, tuple]] = {
    "cli.import_s": ("s", ("given", "cli.import_s")),
    "cli.import_scipy_s": ("s", ("given", "cli.import_scipy_s")),
    "simulation.run_s": ("s", ("self", "simulation.run")),
    "simulation.records": ("count", ("counter", "simulation.records")),
    "simulation.agent_emit_s": ("s", ("self", "simulation.agent_emit")),
    "simulation.noise_emit_s": ("s", ("self", "simulation.noise_emit")),
    "simulation.server_handle_s": ("s", ("self", "simulation.server_handle")),
    "logs.write_s": ("s", ("self", "logs.write")),
    "logs.write_bytes": ("bytes", ("bytes", "logs.write")),
    "logs.read_s": ("s", ("self", "logs.read")),
    "logs.records_read": ("count", ("bytes", "logs.read")),
    "logs.preprocess_s": ("s", ("self", "logs.preprocess")),
    "logs.sessionize_calls": ("count", ("calls", "logs.sessionize")),
    "logs.sessionize_s": ("s", ("self", "logs.sessionize")),
    "pipeline.fingerprint_s": ("s", ("self", "pipeline.fingerprint")),
    "pipeline.fingerprint_calls": ("count", ("calls", "pipeline.fingerprint")),
    "pipeline.store_load_s": ("s", ("self", "pipeline.store_load")),
    "pipeline.store_load_bytes": ("bytes", ("bytes", "pipeline.store_load")),
    "pipeline.store_hits": ("count", ("counter", "pipeline.store_hits")),
    "pipeline.store_misses": ("count", ("counter", "pipeline.store_misses")),
    "pipeline.store_hit_ratio": ("ratio", ("given", "pipeline.store_hit_ratio")),
    "pipeline.store_write_s": ("s", ("self", "pipeline.store_write")),
    "pipeline.store_write_bytes": ("bytes", ("bytes", "pipeline.store_write")),
    **{
        f"pipeline.stage_s.{stage}": ("s", ("self", f"pipeline.stage.{stage}"))
        for stage in STUDY_STAGES
    },
    "pipeline.shard_partition_s": ("s", ("self", "pipeline.shard_partition")),
    "pipeline.shard_map_s": ("s", ("self", "pipeline.shard_map")),
    "pipeline.shard_merge_s": ("s", ("self", "pipeline.shard_merge")),
    "pipeline.shard_payload_bytes": ("bytes", ("counter", "pipeline.shard_payload_bytes")),
    "pipeline.shard_result_bytes": ("bytes", ("counter", "pipeline.shard_result_bytes")),
    "pipeline.shard_hits": ("count", ("counter", "pipeline.shard_hits")),
    "pipeline.shard_misses": ("count", ("counter", "pipeline.shard_misses")),
    **{
        f"reporting.driver_s.{driver}": ("s", ("self", f"reporting.driver.{driver}"))
        for driver in DRIVERS
    },
    "analysis.outside_dag_s": ("s", ("self", "analysis.outside_dag")),
    "robots.compile_calls": ("count", ("calls", "robots.compile")),
    "robots.compile_s": ("s", ("self", "robots.compile", "robots.compile_rules")),
    "robots.cache_evictions": ("count", ("given", "robots.cache_evictions")),
    "service.provider_hits": ("count", ("given", "service.provider_hits")),
    "service.provider_misses": ("count", ("given", "service.provider_misses")),
    "service.coalesced": ("count", ("given", "service.coalesced")),
    "service.provider_hit_ratio": ("ratio", ("given", "service.provider_hit_ratio")),
    **{name: ("ms", ("given", name)) for name in SERVER_P99},
    "service.parse_s": ("s", ("self", "service.parse")),
    "service.route_s": ("s", ("self", "service.route")),
    "service.verdict_s": ("s", ("self", "service.verdict")),
    "service.resolve_s": ("s", ("self", "service.resolve")),
    "service.write_s": ("s", ("self", "service.write")),
    "scenarios.cells_computed": ("count", ("counter", "scenarios.cells_computed")),
    "scenarios.cells_cached": ("count", ("counter", "scenarios.cells_cached")),
    "scenarios.cell_s": ("s", ("self", "scenarios.cell")),
    "scenarios.report_s": ("s", ("self", "scenarios.report")),
    "distributed.run_s": ("s", ("self", "distributed.run")),
    "distributed.tasks": ("count", ("counter", "distributed.tasks")),
    "distributed.spool_bytes": ("bytes", ("counter", "distributed.spool_bytes")),
    "trace.overhead_s": ("s", ("given", "trace.overhead_s")),
}


def _study_phases() -> dict[str, str]:
    phase_of = {name: "simulate" for name in CATALOGUE if name.startswith("simulation.")}
    phase_of.update({"logs.write_s": "simulate", "logs.write_bytes": "simulate"})
    for name in CATALOGUE:
        if name.startswith(("logs.read", "logs.records", "logs.preprocess", "logs.sessionize",
                            "pipeline.stage_s.", "reporting.", "analysis.",
                            "pipeline.store_write")):
            phase_of[name] = "cold"
        elif name.startswith(("pipeline.fingerprint", "pipeline.store_load",
                              "pipeline.store_hits", "pipeline.store_misses")):
            phase_of[name] = "warm"
        elif name.startswith(("pipeline.shard_partition", "pipeline.shard_map",
                              "pipeline.shard_merge", "pipeline.shard_payload",
                              "pipeline.shard_result")):
            phase_of[name] = "sharded"
        elif name in ("pipeline.shard_hits", "pipeline.shard_misses"):
            phase_of[name] = "append"
    return phase_of


#: Workload -> metric -> the phase it is read from.
PHASE_OF: dict[str, dict[str, str]] = {
    "study": _study_phases(),
    "verdicts": {
        "service.parse_s": "warm",
        "service.route_s": "warm",
        "service.verdict_s": "warm",
        "service.write_s": "warm",
        "service.resolve_s": "churn",
        "robots.compile_calls": "churn",
        "robots.compile_s": "churn",
    },
    "fleet": {
        "pipeline.store_load_s": "warm",
        "pipeline.store_load_bytes": "warm",
        "pipeline.store_hits": "warm",
        "pipeline.store_misses": "warm",
        "pipeline.store_write_s": "cold",
        "pipeline.store_write_bytes": "cold",
        "pipeline.shard_partition_s": "cold",
        "pipeline.shard_map_s": "cold",
        "pipeline.shard_merge_s": "cold",
        "pipeline.shard_hits": "cold",
        "pipeline.shard_misses": "cold",
        "pipeline.shard_payload_bytes": "cold",
        "pipeline.shard_result_bytes": "cold",
        "scenarios.cells_computed": "cold",
        "scenarios.cells_cached": "warm",
        "scenarios.cell_s": "cold",
        "scenarios.report_s": "cold",
        "distributed.run_s": "queue",
        "distributed.tasks": "queue",
        "distributed.spool_bytes": "queue",
    },
}


def _read(reading: tuple, totals: dict, counters: dict) -> float:
    kind, *names = reading
    if kind == "counter":
        return float(counters.get(names[0], 0.0))
    field = {"self": "self_s", "calls": "calls", "bytes": "bytes"}[kind]
    return float(sum(totals.get(name, {}).get(field, 0) for name in names))


def metrics(workload: str, traced: dict) -> dict[str, tuple[float, str]]:
    """Every catalogue metric for one traced workload run.

    ``traced["phases"]`` maps phase -> (span totals, wall seconds),
    ``traced["counters"]`` maps phase -> tracer counters, and
    ``traced["given"]`` holds figures measured outside the spans.
    """
    phases = traced["phases"]
    counters = traced.get("counters", {})
    given = dict(traced.get("given", {}))
    phase_of = PHASE_OF[workload]
    hits_phase = phase_of.get("pipeline.store_hits")
    scope = [hits_phase] if hits_phase else list(phases)
    hits = sum(counters.get(p, {}).get("pipeline.store_hits", 0) for p in scope)
    misses = sum(counters.get(p, {}).get("pipeline.store_misses", 0) for p in scope)
    given.setdefault(
        "pipeline.store_hit_ratio", hits / (hits + misses) if hits + misses else 0.0
    )
    out = {}
    for name, (unit, reading) in CATALOGUE.items():
        if name in given or reading[0] == "given":
            out[name] = (float(given.get(name, 0.0)), unit)
            continue
        chosen = phase_of.get(name)
        scope = [chosen] if chosen in phases else list(phases)
        value = sum(_read(reading, phases[p][0], counters.get(p, {})) for p in scope)
        out[name] = (value, unit)
    return out


def table(workload: str, traced: dict) -> str:
    """Self time per layer and phase, with its share of the phase wall."""
    phases = traced["phases"]
    layers = sorted({layer for totals, _ in phases.values() for layer in by_layer(totals)})
    header = f"{'layer':14s}" + "".join(f"{name:>22s}" for name in phases)
    lines = [f"-- per-layer self time, {workload} (s, % of phase wall)", header]
    for layer in layers:
        row = f"{layer:14s}"
        for totals, wall in phases.values():
            seconds = by_layer(totals).get(layer, 0.0)
            row += f"{seconds:14.3f} {100 * seconds / wall if wall else 0:5.1f}% "
        lines.append(row)
    lines.append(f"{'phase wall':14s}" + "".join(f"{wall:14.3f}        " for _, wall in phases.values()))
    calls = f"{'calls':14s}" + "".join(
        f"{sum(entry['calls'] for entry in totals.values()):14d}        "
        for totals, _ in phases.values()
    )
    lines.append(calls)
    overhead = traced.get("given", {}).get("trace.overhead_s", 0.0)
    lines.append(f"tracing overhead (traced wall - untraced wall): {overhead:.3f} s")
    return "\n".join(lines)


def import_times(repeats: int = 3) -> dict[str, float]:
    """``import repro.cli`` and ``import scipy.stats``, each in a fresh
    interpreter; medians of ``repeats``."""
    return {
        "cli.import_s": harness.median(
            [harness.python_seconds("import repro.cli") for _ in range(repeats)]
        ),
        "cli.import_scipy_s": harness.median(
            [harness.python_seconds("import scipy.stats") for _ in range(repeats)]
        ),
    }


def finish(report: harness.Report) -> None:
    """Turn a traced report's spans into its metrics and summary table."""
    traced = report.traced
    traced.setdefault("given", {}).update(import_times())
    report.tables.append(table(report.workload, traced))
    report.metrics = {}
    for name, (value, unit) in metrics(report.workload, traced).items():
        report.metric(name, value, unit)
