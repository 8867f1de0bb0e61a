"""The ``verdicts`` workload: the crawler-side decision service under load.

``repro-study serve --port 0 --robots-dir DIR`` runs as a child.  DIR
holds 4 hot origins (the paper's four robots.txt files) and 15,000
generated cold origins, 1.5 times the service's 10,000-origin policy
cache.  Two closed-loop keep-alive connections each send their next
request only when the previous answer arrived, as a scraper blocked on
``can_fetch`` does.  Every eighth request is a ``POST /can_fetch_many``
batch of 32 paths, the rest are ``GET /can_fetch``.

Two phases, each a fixed number of requests:

- *warm*: hot origins only, after touching each once.  The service
  answers from its compiled-policy cache and never compiles.
- *churn*: cold origins in a seeded random order (uniform, without
  repeats).  Untimed priming requests first fill the cache with 10,000
  of them; after that every timed lookup misses, reads and compiles a
  file, and evicts an entry.

Every answer is checked after the phase against the verdict computed
in-process with ``RobotsPolicy.from_text`` on the same file.
"""

from __future__ import annotations

import json
import random
import signal
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import harness
from perfbench.tracing import aggregate

HOT = ("base", "v1", "v2", "v3")
COLD_ORIGINS = 15_000
BATCH_EVERY = 8
BATCH_PATHS = 32
CONNECTIONS = 2
SETUP_REPEATS = 3
SEGMENTS = 8
#: Timed requests per phase for each second of ``--seconds``.
WARM_PER_SECOND = 1_500
CHURN_PER_SECOND = 75
#: The service's policy-cache capacity (``DecisionService`` default).
CACHE_ORIGINS = 10_000

AGENTS = (
    "GPTBot",
    "ClaudeBot",
    "CCBot",
    "Googlebot",
    "Bytespider",
    "PerplexityBot",
    "Amazonbot",
    "Mozilla/5.0",
)
PATH_POOL = 4096
SECTIONS = ("admin", "private", "api", "search", "page-data", "blog", "shop", "tmp")


@dataclass(frozen=True)
class Probe:
    origin: str
    agent: str
    paths: tuple[str, ...]
    batch: bool

    def frame(self) -> bytes:
        if not self.batch:
            target = f"/can_fetch?origin={self.origin}&agent={self.agent}&path={self.paths[0]}"
            return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
        body = json.dumps(
            {"origin": self.origin, "agent": self.agent, "paths": list(self.paths)}
        ).encode()
        head = (
            "POST /can_fetch_many HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        return head.encode() + body


# -- seeded inputs -------------------------------------------------------------


def cold_origin(index: int) -> str:
    return f"cold{index:05d}.example"


def _path(rng: random.Random) -> str:
    section = rng.choice(SECTIONS)
    depth = rng.randrange(0, 3)
    parts = [section] + [f"p{rng.randrange(50)}" for _ in range(depth)]
    suffix = rng.choice(("", "", ".html", ".json", "/"))
    return "/" + "/".join(parts) + suffix


def cold_robots(rng: random.Random, index: int) -> str:
    """One generated robots.txt: 1-3 groups of Allow/Disallow rules."""
    lines = [f"# generated origin {index}"]
    for _group in range(rng.randrange(1, 4)):
        agents = rng.sample(AGENTS[:7] + ("*",), rng.randrange(1, 3))
        lines += [f"User-agent: {agent}" for agent in agents]
        for _rule in range(rng.randrange(1, 7)):
            prefix = "/" + rng.choice(SECTIONS)
            if rng.random() < 0.5:
                prefix += f"/p{rng.randrange(50)}"
            if rng.random() < 0.15:
                prefix += "*.json"
            elif rng.random() < 0.1:
                prefix += "$"
            verb = "Allow" if rng.random() < 0.3 else "Disallow"
            lines.append(f"{verb}: {prefix}")
        if rng.random() < 0.2:
            lines.append(f"Crawl-delay: {rng.randrange(1, 30)}")
        lines.append("")
    return "\n".join(lines) + "\n"


def robots_texts(seed: int) -> dict[str, str]:
    """origin -> robots.txt for every origin the service can resolve."""
    from repro.robots.corpus import RobotsVersion, render_version

    texts = {f"{name}.example": render_version(RobotsVersion(name)) for name in HOT}
    rng = random.Random(f"verdicts-robots-{seed}")
    for index in range(COLD_ORIGINS):
        texts[cold_origin(index)] = cold_robots(rng, index)
    return texts


def probes(seed: int, count: int, origins: list[str], tag: str) -> list[Probe]:
    """The phase's request sequence; origins are taken in order, cycling,
    and paths are drawn from a pool of :data:`PATH_POOL` generated ones."""
    rng = random.Random(f"verdicts-{tag}-{seed}")
    pool = [_path(rng) for _ in range(PATH_POOL)]
    sequence = []
    for index in range(count):
        batch = index % BATCH_EVERY == BATCH_EVERY - 1
        paths = tuple(rng.choices(pool, k=BATCH_PATHS if batch else 1))
        sequence.append(Probe(origins[index % len(origins)], rng.choice(AGENTS), paths, batch))
    return sequence


def phase_inputs(seed: int, seconds: int) -> dict[str, list[Probe]]:
    """The warm, prime (untimed) and churn request sequences."""
    warm_origins = [f"{name}.example" for name in HOT]
    cold = [cold_origin(index) for index in range(COLD_ORIGINS)]
    random.Random(f"verdicts-order-{seed}").shuffle(cold)
    churn = probes(seed, CACHE_ORIGINS + CHURN_PER_SECOND * seconds, cold, "churn")
    return {
        "warm": probes(seed, WARM_PER_SECOND * seconds, warm_origins, "warm"),
        "prime": churn[:CACHE_ORIGINS],
        "churn": churn[CACHE_ORIGINS:],
    }


def write_robots_dir(directory: Path, texts: dict[str, str]) -> None:
    harness.fresh_dir(directory)
    for origin, text in texts.items():
        (directory / f"{origin}.txt").write_text(text, encoding="utf-8")


# -- the server and its clients -------------------------------------------------


class Server:
    """A ``repro-study serve`` child on a free port."""

    def __init__(self, robots_dir: Path, log: Path, trace_out: Path | None = None):
        self.log = log
        argv = harness.cli_argv(
            ["serve", "--port", "0", "--robots-dir", str(robots_dir)], trace_out
        )
        self.process = harness.start(argv, log, traced=trace_out is not None)
        self.port = self._wait_for_port()

    def _wait_for_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log.read_text(encoding="utf-8", errors="replace")
            if "serving on http://" in text:
                address = text.split("serving on http://", 1)[1].split()[0]
                port = int(address.rsplit(":", 1)[1])
                if request(port, b"GET /healthz HTTP/1.1\r\nHost: b\r\n\r\n")[0] == 200:
                    return port
            if self.process.poll() is not None:
                raise RuntimeError(f"serve exited early; see {self.log}")
            time.sleep(0.005)
        self.process.kill()
        harness.reap(self.process)
        raise RuntimeError(f"serve did not become ready; see {self.log}")

    def stats(self) -> dict:
        status, body = request(self.port, b"GET /stats HTTP/1.1\r\nHost: b\r\n\r\n")
        return json.loads(body) if status == 200 else {}

    def stop(self) -> tuple[int, float]:
        """SIGINT the server and reap it: (exit code, peak RSS in MB)."""
        if self.process.returncode is not None:
            return self.process.returncode, 0.0
        self.process.send_signal(signal.SIGINT)
        return harness.reap(self.process, timeout=30)


def _read_response(sock: socket.socket, buffer: bytearray) -> tuple[int, bytes]:
    while True:
        end = buffer.find(b"\r\n\r\n")
        if end >= 0:
            break
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buffer += chunk
    head = bytes(buffer[:end])
    marker = head.lower().find(b"content-length:")
    length = int(head[marker + 15 :].split(b"\r\n", 1)[0]) if marker >= 0 else 0
    total = end + 4 + length
    while len(buffer) < total:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buffer += chunk
    body = bytes(buffer[end + 4 : total])
    del buffer[:total]
    return int(head[9:12]), body


def request(port: int, frame: bytes) -> tuple[int, bytes]:
    """One request on its own connection (probes, /stats)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(frame)
        return _read_response(sock, bytearray())


def drive(port: int, sequence: list[Probe]) -> tuple[float, list[float], list]:
    """Send ``sequence`` over :data:`CONNECTIONS` closed loops.

    Returns (phase wall seconds, per-request latencies, per-request
    ``(status, body)`` in sequence order).
    """
    frames = [probe.frame() for probe in sequence]
    answers: list = [None] * len(sequence)
    latencies: list[list[float]] = [[] for _ in range(CONNECTIONS)]
    errors: list[BaseException] = []
    start = threading.Barrier(CONNECTIONS + 1)

    def loop(lane: int) -> None:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                buffer = bytearray()
                mine = latencies[lane]
                start.wait()
                for index in range(lane, len(frames), CONNECTIONS):
                    sent = time.perf_counter()
                    sock.sendall(frames[index])
                    answers[index] = _read_response(sock, buffer)
                    mine.append(time.perf_counter() - sent)
        except BaseException as exc:  # reported as failed requests below
            errors.append(exc)
            start.abort()

    threads = [threading.Thread(target=loop, args=(lane,)) for lane in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    try:
        start.wait()
    except threading.BrokenBarrierError:
        pass
    began = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    return wall, [value for lane in latencies for value in lane], answers


# -- checking -------------------------------------------------------------------


class Oracle:
    """In-process verdicts from ``RobotsPolicy.from_text`` on the same files."""

    def __init__(self, texts: dict[str, str]):
        from repro.robots.policy import RobotsPolicy

        self._texts = texts
        self._from_text = RobotsPolicy.from_text
        self._policies: dict[str, object] = {}
        self._verdicts: dict[tuple[str, str, str], bool] = {}

    def allowed(self, origin: str, agent: str, path: str) -> bool:
        key = (origin, agent, path)
        verdict = self._verdicts.get(key)
        if verdict is None:
            policy = self._policies.get(origin)
            if policy is None:
                policy = self._policies[origin] = self._from_text(self._texts[origin])
            verdict = self._verdicts[key] = policy.can_fetch(agent, path)
        return verdict

    def expected(self, probe: Probe) -> dict:
        verdicts = [self.allowed(probe.origin, probe.agent, path) for path in probe.paths]
        if probe.batch:
            return {
                "origin": probe.origin,
                "agent": probe.agent,
                "paths": list(probe.paths),
                "allowed": verdicts,
            }
        return {
            "origin": probe.origin,
            "agent": probe.agent,
            "path": probe.paths[0],
            "allowed": verdicts[0],
        }


def check_answers(
    report: harness.Report, oracle: Oracle, sequence: list[Probe], answers: list, phase: str
) -> None:
    for index, (probe, answer) in enumerate(zip(sequence, answers)):
        if answer is None:
            report.check(False, f"{phase} request {index}: no answer")
            continue
        status, body = answer
        try:
            same = status == 200 and json.loads(body) == oracle.expected(probe)
        except ValueError:
            same = False
        report.check(same, f"{phase} request {index} ({probe.origin}): {status} {body[:80]!r}")


# -- the workload -----------------------------------------------------------------


def _verdicts(sequence: list[Probe]) -> int:
    return sum(len(probe.paths) for probe in sequence)


def _provider_delta(before: dict, after: dict) -> dict[str, float]:
    got = {
        name: after.get("provider", {}).get(name, 0) - before.get("provider", {}).get(name, 0)
        for name in ("hits", "misses", "coalesced")
    }
    lookups = got["hits"] + got["misses"] + got["coalesced"]
    got["hit_ratio"] = got["hits"] / lookups if lookups else 0.0
    got["evictions"] = after.get("cache", {}).get("evictions", 0) - before.get(
        "cache", {}
    ).get("evictions", 0)
    return got


def _server_p99(stats: dict, endpoint: str) -> float:
    return stats.get("endpoints", {}).get(endpoint, {}).get("p99_ms", 0.0)


@dataclass
class Phase:
    """One phase's measurements, part by part."""

    walls: list[float]
    ref_walls: list[float]
    verdicts: list[int]
    latencies: list[float]
    answers: list
    window: tuple[int, int]

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    @property
    def verdicts_per_s(self) -> float:
        """Median over the parts of verdicts per reference second."""
        return harness.median(
            [count / wall for count, wall in zip(self.verdicts, self.ref_walls)]
        )


def phase(gauge: harness.Gauge, port: int, sequence: list[Probe]) -> Phase:
    """Drive ``sequence`` in :data:`SEGMENTS` consecutive parts.

    A part lasts about a second, so each is scaled to reference seconds
    by the mean of the host-speed readings just before and after it.
    """
    size = -(-len(sequence) // SEGMENTS)
    parts = [sequence[i : i + size] for i in range(0, len(sequence), size)]
    got = Phase([], [], [], [], [], (time.perf_counter_ns(), 0))
    before = gauge.read()
    for part in parts:
        wall, latencies, answers = drive(port, part)
        after = gauge.read()
        got.walls.append(wall)
        got.ref_walls.append(wall * (before + after) / 2)
        got.verdicts.append(_verdicts(part))
        got.latencies += latencies
        got.answers += answers
        before = after
    got.latencies.sort()
    got.window = (got.window[0], time.perf_counter_ns())
    return got


def session(
    report: harness.Report,
    gauge: harness.Gauge,
    inputs: dict[str, list[Probe]],
    server: Server,
    oracle: Oracle,
) -> dict:
    """Touch the hot origins, run warm, prime and churn, check every answer."""
    got: dict = {}
    try:
        for name in HOT:
            frame = Probe(f"{name}.example", AGENTS[0], ("/",), False).frame()
            report.check(request(server.port, frame)[0] == 200, f"touch {name}")
        got["warm"] = phase(gauge, server.port, inputs["warm"])
        got["warm_stats"] = server.stats()
        _wall, _latencies, prime_answers = drive(server.port, inputs["prime"])
        primed = server.stats()
        got["churn"] = phase(gauge, server.port, inputs["churn"])
        got["churn_stats"] = server.stats()
        got["churn_provider"] = _provider_delta(primed, got["churn_stats"])
    finally:
        code, got["peak_rss_mb"] = server.stop()
    report.check(code == 0, f"serve exited with {code}")
    check_answers(report, oracle, inputs["warm"], got["warm"].answers, "warm")
    check_answers(report, oracle, inputs["prime"], prime_answers, "prime")
    check_answers(report, oracle, inputs["churn"], got["churn"].answers, "churn")
    return got


def setup(gauge: harness.Gauge, work: Path, seed: int, seconds: int, log: Path) -> tuple:
    """Generate the inputs and start the server.

    Returns the raw seconds it took, the robots texts, the request
    sequences, and the server.
    """
    def generate_and_start():
        texts = robots_texts(seed)
        inputs = phase_inputs(seed, seconds)
        write_robots_dir(work / "robots", texts)
        return texts, inputs, Server(work / "robots", log)

    (texts, inputs, server), wall = gauge.timed(generate_and_start)
    return wall, texts, inputs, server


def run(seed: int, seconds: int, trace: bool) -> harness.Report:
    report = harness.Report("verdicts", seed)
    work = harness.fresh_dir(harness.WORK / "verdicts")
    import repro.robots.corpus  # noqa: F401 -- keep import time out of setup_s

    gauge = harness.Gauge()
    setups = []
    repeats = 1 if trace else SETUP_REPEATS
    for attempt in range(repeats):
        log = work / f"serve{attempt}.log"
        elapsed, texts, inputs, server = setup(gauge, work, seed, seconds, log)
        setups.append(elapsed)
        if attempt < repeats - 1:
            report.check(server.stop()[0] == 0, "serve stop after setup")
    oracle = Oracle(texts)
    got = session(report, gauge, inputs, server, oracle)
    warm_phase, churn_phase = got["warm"], got["churn"]
    warm_rate, churn_rate = warm_phase.verdicts_per_s, churn_phase.verdicts_per_s
    report.detail("warm_verdicts_per_s", warm_rate, "1/s")
    report.detail("warm_p50_ms", harness.percentile(warm_phase.latencies, 0.50) * 1e3, "ms")
    report.detail("warm_p99_ms", harness.percentile(warm_phase.latencies, 0.99) * 1e3, "ms")
    report.detail("churn_verdicts_per_s", churn_rate, "1/s")
    report.detail("churn_p99_ms", harness.percentile(churn_phase.latencies, 0.99) * 1e3, "ms")
    report.detail("warm_requests", len(warm_phase.latencies), "count")
    report.detail("churn_requests", len(churn_phase.latencies), "count")
    report.detail("churn_evictions", got["churn_provider"]["evictions"], "count")
    report.detail("phases_raw_s", warm_phase.wall_s + churn_phase.wall_s, "s")

    if not trace:
        report.metric("setup_s", gauge.reference(harness.median(setups)), "s", len(setups))
        report.metric("cold_per_s", churn_rate, "1/s", SEGMENTS)
        report.metric("warm_per_s", warm_rate, "1/s", SEGMENTS)
        work = sum(warm_phase.ref_walls) + sum(churn_phase.ref_walls)
        report.metric("work_s", work, "s", 2 * SEGMENTS)
        report.metric("peak_rss_mb", got["peak_rss_mb"], "MB", 1)
        return report

    # Traced round: the same phases against a traced server.
    trace_out = work / "serve.trace.json"
    server = Server(work / "robots", work / "serve-traced.log", trace_out)
    traced = session(report, gauge, inputs, server, oracle)
    spans = json.loads(trace_out.read_text())
    churn_provider = got["churn_provider"]
    report.traced = {
        "phases": {
            name: (aggregate(spans["spans"], traced[name].window), traced[name].wall_s)
            for name in ("warm", "churn")
        },
        "given": {
            "trace.overhead_s": sum(traced[name].wall_s - got[name].wall_s
                                    for name in ("warm", "churn")),
            "service.provider_hits": churn_provider["hits"],
            "service.provider_misses": churn_provider["misses"],
            "service.coalesced": churn_provider["coalesced"],
            "service.provider_hit_ratio": churn_provider["hit_ratio"],
            "robots.cache_evictions": churn_provider["evictions"],
            **{
                f"service.server_p99_ms.{phase}.{endpoint}": _server_p99(
                    got[f"{phase}_stats"], endpoint
                )
                for phase in ("warm", "churn")
                for endpoint in ("can_fetch", "can_fetch_many")
            },
        },
    }
    return report
