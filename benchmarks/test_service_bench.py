"""Load benchmark: the decision service at wire speed.

Drives the in-process stdlib HTTP server (:mod:`repro.service.http`)
with a deterministic mixed workload over real sockets:

- **single clients** issuing warm-cache ``GET /can_fetch`` probes one
  at a time over keep-alive connections (the sync fast path), and
- **batch clients** POSTing ``can_fetch_many`` frames (how a crawler
  sidecar amortizes round trips).

Every batch path counts as one query, so queries/sec measures policy
*verdicts* delivered, not HTTP frames.  Two gates, enforced always
(this is the blocking ``service-bench`` CI job) but overridable when a
slower box needs headroom:

- ``SERVICE_BENCH_MIN_QPS``  (default 20 000) — total verdicts/sec;
- ``SERVICE_BENCH_MAX_P99_MS`` (default 5.0) — p99 round-trip latency
  across *all* requests, singles and batches alike.

A second leg runs the same mix against a full policy cache: every
request names a distinct cold origin, three times as many origins as
the cache holds, so each one resolves, compiles and evicts.  It checks
bytes and the ``/stats`` eviction count and records its qps, but has no
timing gate (the perfbench ``verdicts`` workload measures churn speed).

The workload is fully deterministic (fixed client counts, fixed probe
rotation, no RNG) and every response is cross-checked against the
service's direct in-process answer so throughput never drifts from
semantics.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from repro.robots.policy import RobotsPolicy
from repro.service import DecisionService, corpus_resolver, static_resolver
from repro.service.http import DecisionHTTPServer
from repro.service.router import encode

#: Gate defaults; override via env on hardware that needs headroom.
MIN_QPS = float(os.environ.get("SERVICE_BENCH_MIN_QPS", "20000"))
MAX_P99_MS = float(os.environ.get("SERVICE_BENCH_MAX_P99_MS", "5.0"))

#: Mixed deterministic workload shape (tuned so the gate has margin:
#: observed locally ~3x the qps floor and ~half the latency ceiling).
SINGLE_CLIENTS = 12
SINGLE_REQUESTS = 400
BATCH_CLIENTS = 4
BATCH_REQUESTS = 120
BATCH_SIZE = 32

#: Cache-full leg: a small cache and three times as many cold origins,
#: split evenly over the same single + batch clients.
CACHE_FULL_CAPACITY = 256
CACHE_FULL_ORIGINS = 3 * CACHE_FULL_CAPACITY

ORIGINS = ["base.example", "v1.example", "v2.example", "v3.example"]
AGENTS = ["GPTBot", "ClaudeBot", "Googlebot", "CCBot", "Unknown/1.0"]
PATHS = [
    "/",
    "/robots.txt",
    "/public/page-1",
    "/news/article-7",
    "/admin/settings",
    "/api/v2/items.json",
    "/page-data/index",
    "/tmp/cache-entry",
]


def single_probe(index: int) -> tuple[str, str, str]:
    """The ``index``-th (origin, agent, path) in the fixed rotation."""
    return (
        ORIGINS[index % len(ORIGINS)],
        AGENTS[index % len(AGENTS)],
        PATHS[index % len(PATHS)],
    )


def batch_probe(index: int) -> tuple[str, str, list[str]]:
    origin = ORIGINS[(index * 3 + 1) % len(ORIGINS)]
    agent = AGENTS[(index * 7 + 2) % len(AGENTS)]
    paths = [
        f"{PATHS[(index + offset) % len(PATHS)]}/{offset}"
        for offset in range(BATCH_SIZE)
    ]
    return origin, agent, paths


async def _read_frame(reader: asyncio.StreamReader) -> bytes:
    """One keep-alive HTTP response body (headers → Content-Length)."""
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.lower().split(b"\r\n"):
        if line.startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    return await reader.readexactly(length)


async def _single_client(
    port: int, probes: list[tuple[str, str, str]], latencies: list[float]
) -> list[tuple[tuple[str, str, str], bytes]]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    seen: list[tuple[tuple[str, str, str], bytes]] = []
    try:
        for probe in probes:
            origin, agent, path = probe
            target = f"/can_fetch?origin={origin}&agent={agent}&path={path}"
            frame = (
                f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
            )
            start = time.perf_counter()
            writer.write(frame)
            body = await _read_frame(reader)
            latencies.append(time.perf_counter() - start)
            seen.append((probe, body))
    finally:
        writer.close()
        await writer.wait_closed()
    return seen


async def _batch_client(
    port: int,
    probes: list[tuple[str, str, list[str]]],
    latencies: list[float],
) -> list[tuple[tuple[str, str, list[str]], bytes]]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    seen: list[tuple[tuple[str, str, list[str]], bytes]] = []
    try:
        for probe in probes:
            origin, agent, paths = probe
            payload = json.dumps(
                {"origin": origin, "agent": agent, "paths": paths}
            ).encode()
            frame = (
                b"POST /can_fetch_many HTTP/1.1\r\nHost: bench\r\n"
                b"Content-Length: " + str(len(payload)).encode() + b"\r\n\r\n"
            ) + payload
            start = time.perf_counter()
            writer.write(frame)
            body = await _read_frame(reader)
            latencies.append(time.perf_counter() - start)
            seen.append((probe, body))
    finally:
        writer.close()
        await writer.wait_closed()
    return seen


async def _drive(
    port: int,
    singles: list[list[tuple[str, str, str]]],
    batches: list[list[tuple[str, str, list[str]]]],
    policy_for,
) -> dict:
    """Run every client concurrently, byte-check every response
    against ``policy_for(origin)``, and summarize the latencies."""
    latencies: list[float] = []
    started = time.perf_counter()
    results = await asyncio.gather(
        *[_single_client(port, probes, latencies) for probes in singles],
        *[_batch_client(port, probes, latencies) for probes in batches],
    )
    elapsed = time.perf_counter() - started

    # Correctness cross-check: every wire response must be the byte-
    # canonical encoding of the in-process verdict.
    for client_seen in results[: len(singles)]:
        for (origin, agent, path), body in client_seen:
            expected = encode(
                DecisionService.can_fetch_payload(
                    policy_for(origin), origin, agent, path, False
                )
            )
            assert body == expected, (origin, agent, path)
    for client_seen in results[len(singles) :]:
        for (origin, agent, paths), body in client_seen:
            verdict = json.loads(body)
            policy = policy_for(origin)
            expected = [policy.can_fetch(agent, path) for path in paths]
            assert verdict["allowed"] == expected, (origin, agent)

    queries = sum(map(len, singles)) + BATCH_SIZE * sum(map(len, batches))
    ordered = sorted(latencies)
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    return {
        "queries": queries,
        "requests": len(latencies),
        "elapsed_s": elapsed,
        "qps": queries / elapsed,
        "p50_ms": ordered[len(ordered) // 2] * 1000.0,
        "p99_ms": p99 * 1000.0,
        "max_ms": ordered[-1] * 1000.0,
    }


async def _run_load() -> dict:
    service = DecisionService(corpus_resolver())
    server = DecisionHTTPServer(service, port=0)
    _, port = await server.start()
    try:
        # Warm the policy cache so the measurement exercises the wire
        # path, not one-time robots.txt compilation.
        for origin in ORIGINS:
            await service.can_fetch(origin, AGENTS[0], "/")

        def warm_policy(origin: str) -> RobotsPolicy:
            policy = service.provider.policy_fast(origin)
            assert policy is not None, origin
            return policy

        return await _drive(
            port,
            [
                [
                    single_probe(client * SINGLE_REQUESTS + request)
                    for request in range(SINGLE_REQUESTS)
                ]
                for client in range(SINGLE_CLIENTS)
            ],
            [
                [
                    batch_probe(client * BATCH_REQUESTS + request)
                    for request in range(BATCH_REQUESTS)
                ]
                for client in range(BATCH_CLIENTS)
            ],
            warm_policy,
        )
    finally:
        await server.stop()


def cold_robots(index: int) -> str:
    """A distinct robots.txt for the ``index``-th cold origin."""
    return (
        f"User-agent: {AGENTS[index % len(AGENTS)]}\n"
        f"Disallow: {PATHS[index % len(PATHS)]}\n\n"
        f"User-agent: *\nAllow: {PATHS[(index + 3) % len(PATHS)]}\n"
        f"Disallow: /{index % 7}\n"
    )


async def _run_cache_full_load() -> tuple[dict, dict]:
    """The mix over distinct cold origins past the cache; returns the
    load report and the server's ``/stats`` afterwards."""
    origins = [f"cold-{index}.example" for index in range(CACHE_FULL_ORIGINS)]
    texts = {
        origin: cold_robots(index) for index, origin in enumerate(origins)
    }
    fresh = {
        origin: RobotsPolicy.from_text(text) for origin, text in texts.items()
    }
    service = DecisionService(
        static_resolver(texts), max_origins=CACHE_FULL_CAPACITY
    )
    server = DecisionHTTPServer(service, port=0)
    _, port = await server.start()
    clients = SINGLE_CLIENTS + BATCH_CLIENTS
    per_client = [origins[client::clients] for client in range(clients)]
    singles = [
        [(origin, *single_probe(index)[1:]) for index, origin in enumerate(mine)]
        for mine in per_client[:SINGLE_CLIENTS]
    ]
    batches = [
        [(origin, *batch_probe(index)[1:]) for index, origin in enumerate(mine)]
        for mine in per_client[SINGLE_CLIENTS:]
    ]
    try:
        report = await _drive(port, singles, batches, fresh.__getitem__)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"GET /stats HTTP/1.1\r\nHost: bench\r\n\r\n")
        stats = json.loads(await _read_frame(reader))
        writer.close()
        await writer.wait_closed()
    finally:
        await server.stop()
    return report, stats


def test_service_load_gate(bench_timings):
    """≥ MIN_QPS verdicts/sec and p99 ≤ MAX_P99_MS over real sockets."""
    report = asyncio.run(_run_load())
    bench_timings(
        "service_load",
        kind="service-load",
        min_qps_gate=MIN_QPS,
        max_p99_ms_gate=MAX_P99_MS,
        **report,
    )
    assert report["qps"] >= MIN_QPS, report
    assert report["p99_ms"] <= MAX_P99_MS, report


def test_service_cache_full_leg(bench_timings):
    """Every request a distinct cold origin past a full cache: verdict
    bytes and eviction count checked, qps recorded, no timing gate."""
    report, stats = asyncio.run(_run_cache_full_load())
    bench_timings("service_load_cache_full", kind="service-load", **report)
    assert report["requests"] == CACHE_FULL_ORIGINS
    assert stats["provider"]["misses"] == CACHE_FULL_ORIGINS
    assert stats["cache"]["entries"] == CACHE_FULL_CAPACITY
    assert stats["cache"]["evictions"] == (
        CACHE_FULL_ORIGINS - CACHE_FULL_CAPACITY
    )
