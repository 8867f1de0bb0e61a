"""Tests of the benchmark's own machinery (no workload is run here)."""

from __future__ import annotations

import inspect
import json

import pytest

from perfbench import fleet, harness, layers, study, tracing, verdicts
from perfbench.tracing import Patcher, Tracer, aggregate, by_layer


def fake_clock(*ticks: int):
    values = iter(ticks)
    return lambda: next(values)


# -- self-time arithmetic --------------------------------------------------------


def test_self_time_of_a_nested_trace():
    # outer [0, 100] holds a [10, 30] (which holds b [12, 18]) and c [40, 45].
    tracer = Tracer(clock=fake_clock(0, 10, 12, 18, 30, 40, 45, 100))
    outer = tracer.begin("layer.outer")
    a = tracer.begin("layer.a")
    b = tracer.begin("other.b")
    tracer.end(b)
    tracer.end(a)
    c = tracer.begin("layer.c")
    tracer.end(c, nbytes=7)
    tracer.end(outer)
    rows = {row[0]: row for row in tracer.snapshot()["spans"]}
    assert rows["layer.outer"][5] == 100 - 20 - 5
    assert rows["layer.a"][5] == 20 - 6
    assert rows["other.b"][5] == 6
    assert rows["layer.c"][5] == 5
    assert (rows["layer.a"][3], rows["other.b"][3]) == (0, 1)  # outer is span 0
    totals = aggregate(tracer.snapshot()["spans"])
    assert totals["layer.c"] == {"self_s": 5e-9, "calls": 1, "bytes": 7}
    assert by_layer(totals) == pytest.approx({"layer": 94e-9, "other": 6e-9})


def test_generator_steps_are_charged_to_the_consumer():
    # consumer [0, 50]; two generator steps of 5 and 3, then exhaustion (2).
    tracer = Tracer(clock=fake_clock(0, 10, 15, 20, 23, 30, 32, 50))
    consumer = tracer.begin("layer.consumer")
    items = list(tracer.generator("logs.read", iter("xy")))
    tracer.end(consumer)
    assert items == ["x", "y"]
    rows = {row[0]: row for row in tracer.snapshot()["spans"]}
    assert rows["logs.read"][5] == 5 + 3 + 2
    assert rows["logs.read"][4] == 2  # items yielded
    assert rows["layer.consumer"][5] == 50 - 10


def test_windowed_aggregate_keeps_spans_started_inside():
    rows = [["s.a", 5, 9, None, 0, 4], ["s.a", 15, 19, None, 0, 4]]
    assert aggregate(rows, window=(0, 10))["s.a"]["calls"] == 1


# -- wrappers ----------------------------------------------------------------------


def _current(owner, attr):
    if isinstance(owner, dict):
        return owner.get(attr)
    return inspect.getattr_static(owner, attr) if attr in vars(owner) else None


def test_uninstall_restores_every_wrapped_attribute():
    tracer = Tracer()
    patcher = layers.install(tracer)
    bindings = patcher.bindings
    try:
        assert len(bindings) > len(layers.WRAPPED)
        for owner, attr, original in bindings:
            assert _current(owner, attr) is not original
        from repro.logs.sessionize import sessionize

        sessionize([])
        assert [span[0] for span in tracer.spans] == ["logs.sessionize"]
    finally:
        patcher.uninstall()
    for owner, attr, original in bindings:
        if original is tracing._ABSENT:
            assert attr not in vars(owner)
        else:
            assert _current(owner, attr) is original


def test_wrapped_static_class_and_async_methods_still_work():
    import asyncio

    class Target:
        @staticmethod
        def double(x):
            return 2 * x

        @classmethod
        def name(cls):
            return cls.__name__

        async def wait(self):
            return "done"

    tracer = Tracer()
    patcher = Patcher(tracer)
    module_path = f"{__name__}:Target"
    globals()["Target"] = Target
    try:
        for attr in ("double", "name", "wait"):
            patcher.wrap(f"{module_path}.{attr}", f"t.{attr}")
        assert Target.double(4) == 8
        assert Target.name() == "Target"
        assert asyncio.run(Target().wait()) == "done"
        assert [span[0] for span in tracer.spans] == ["t.double", "t.name", "t.wait"]
    finally:
        patcher.uninstall()
        del globals()["Target"]
    assert isinstance(vars(Target)["double"], staticmethod)


# -- correctness checkers ----------------------------------------------------------


def finished(stdout: bytes, code: int = 0) -> harness.Finished:
    return harness.Finished(wall_s=1.0, code=code, stdout=stdout, peak_rss_mb=1.0)


def test_study_checker_flags_corrupted_output():
    good = {name: finished(b"table\n") for name in ("cold", "warm", "append", "sharded")}
    report = harness.Report("study", 1)
    study.check_outputs(report, good)
    assert report.failed == 0
    for name in ("warm", "sharded"):
        bad = dict(good, **{name: finished(b"tab1e\n")})
        report = harness.Report("study", 1)
        study.check_outputs(report, bad)
        assert report.failed == 1
    report = harness.Report("study", 1)
    study.check_outputs(report, dict(good, cold=finished(b"table\n", code=1)))
    assert report.failed == 1


def test_fleet_checker_flags_corrupted_output():
    out = b"A|x: 1 req\nB|y: 2 req\n"
    good = {name: finished(out) for name in ("cold", "warm", "warm.2", "queue")}
    report = harness.Report("fleet", 1)
    fleet.check_outputs(report, good, ["A|x", "B|y"])
    assert report.failed == 0
    report = harness.Report("fleet", 1)
    fleet.check_outputs(report, dict(good, queue=finished(b"A|x: 1 req\nB|y: 3 req\n")),
                        ["A|x", "B|y"])
    assert report.failed == 1
    report = harness.Report("fleet", 1)
    fleet.check_outputs(report, good, ["A|x", "B|y", "C|z"])
    assert report.failed == 4


def test_verdict_checker_flags_corrupted_answers():
    texts = {"a.example": "User-agent: *\nDisallow: /private\n"}
    oracle = verdicts.Oracle(texts)
    single = verdicts.Probe("a.example", "GPTBot", ("/private/x",), False)
    batch = verdicts.Probe("a.example", "GPTBot", ("/open", "/private"), True)
    right = [
        (200, json.dumps(oracle.expected(single)).encode()),
        (200, json.dumps(oracle.expected(batch)).encode()),
    ]
    assert oracle.expected(single)["allowed"] is False
    assert oracle.expected(batch)["allowed"] == [True, False]
    report = harness.Report("verdicts", 1)
    verdicts.check_answers(report, oracle, [single, batch], right, "warm")
    assert (report.attempted, report.failed) == (2, 0)
    flipped = dict(oracle.expected(single), allowed=True)
    wrong = [(200, json.dumps(flipped).encode()), (502, right[1][1])]
    report = harness.Report("verdicts", 1)
    verdicts.check_answers(report, oracle, [single, batch], wrong, "warm")
    assert report.failed == 2
    report = harness.Report("verdicts", 1)
    verdicts.check_answers(report, oracle, [single], [None], "churn")
    assert report.failed == 1


# -- seeded inputs -----------------------------------------------------------------


def test_one_seed_yields_identical_inputs():
    assert verdicts.robots_texts(5) == verdicts.robots_texts(5)
    assert verdicts.robots_texts(5) != verdicts.robots_texts(6)
    first = [p.frame() for phase in verdicts.phase_inputs(5, 1).values() for p in phase]
    again = [p.frame() for phase in verdicts.phase_inputs(5, 1).values() for p in phase]
    other = [p.frame() for phase in verdicts.phase_inputs(6, 1).values() for p in phase]
    assert first == again and first != other

    from repro.scenarios import parse_grid

    cells = [spec.fingerprint() for spec in parse_grid(fleet.GRID, seed=5).cells()]
    assert len(cells) == 288
    assert cells == [spec.fingerprint() for spec in parse_grid(fleet.GRID, seed=5).cells()]


def test_one_seed_yields_an_identical_corpus(tmp_path):
    from repro.logs.io import write_jsonl
    from repro.simulation.engine import run_study

    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        write_jsonl(run_study(scale=0.002, seed=9).records, path)
    first, second = (path.read_bytes() for path in paths)
    assert first == second and first
    prefix, suffix = study.split_corpus(first)
    assert prefix + suffix == first
    assert prefix.count(b"\n") == int(first.count(b"\n") * study.PREFIX_SHARE)
