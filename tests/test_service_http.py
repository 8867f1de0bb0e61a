"""Transport tests: stdlib HTTP server, CLI wiring."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path
from urllib.parse import quote

import pytest

from repro.cli import build_parser
from repro.service import (
    DecisionHTTPServer,
    DecisionService,
    ServiceRouter,
    directory_resolver,
    static_resolver,
)

ROBOTS = "User-agent: *\nAllow: /public\nDisallow: /\n"


def make_service(**kwargs) -> DecisionService:
    return DecisionService(
        static_resolver({"s.example": ROBOTS}), clock=lambda: 1000.0, **kwargs
    )


async def read_response(reader: asyncio.StreamReader) -> tuple[int, dict]:
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.lower().split(b"\r\n"):
        if line.startswith(b"content-length:"):
            length = int(line.partition(b":")[2])
    body = await reader.readexactly(length)
    return status, json.loads(body)


async def request(
    reader, writer, method: str, target: str, body: bytes | None = None
) -> tuple[int, dict]:
    frame = f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
    if body is not None:
        frame += f"Content-Length: {len(body)}\r\n"
    payload = frame.encode() + b"\r\n" + (body or b"")
    writer.write(payload)
    await writer.drain()
    return await read_response(reader)


def with_server(scenario):
    """Run ``scenario(host, port, service)`` against a live server."""

    async def runner():
        service = make_service()
        server = DecisionHTTPServer(service, port=0)
        host, port = await server.start()
        try:
            return await scenario(host, port, service)
        finally:
            await server.stop()

    return asyncio.run(runner())


class TestHTTPServer:
    def test_can_fetch_roundtrip(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            status, payload = await request(
                reader,
                writer,
                "GET",
                "/can_fetch?origin=s.example&agent=GPTBot&path=/hidden",
            )
            writer.close()
            return status, payload

        status, payload = with_server(scenario)
        assert status == 200
        assert payload["allowed"] is False

    def test_keep_alive_serves_ordered_responses(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            answers = []
            # First request is cold (async resolve); followups hit the
            # sync fast path on the same connection.
            for path in ("/public/a", "/b", "/public/c", "/d"):
                status, payload = await request(
                    reader,
                    writer,
                    "GET",
                    f"/can_fetch?origin=s.example&agent=Bot&path={path}",
                )
                answers.append((status, payload["path"], payload["allowed"]))
            writer.close()
            return answers

        answers = with_server(scenario)
        assert answers == [
            (200, "/public/a", True),
            (200, "/b", False),
            (200, "/public/c", True),
            (200, "/d", False),
        ]

    def test_pipelined_requests_answered_in_order(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            # Two full frames in one write: the cold first request goes
            # async while the second sits queued behind it.
            raw = (
                b"GET /can_fetch?origin=s.example&agent=B&path=/x HTTP/1.1\r\n"
                b"Host: t\r\n\r\n"
                b"GET /can_fetch?origin=s.example&agent=B&path=/public/y "
                b"HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            writer.write(raw)
            await writer.drain()
            first = await read_response(reader)
            second = await read_response(reader)
            writer.close()
            return first, second

        first, second = with_server(scenario)
        assert first[1]["path"] == "/x"
        assert first[1]["allowed"] is False
        assert second[1]["path"] == "/public/y"
        assert second[1]["allowed"] is True

    def test_post_can_fetch_many(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            body = json.dumps(
                {
                    "origin": "s.example",
                    "agent": "GPTBot",
                    "paths": ["/public/a", "/secret", "/robots.txt"],
                }
            ).encode()
            status, payload = await request(
                reader, writer, "POST", "/can_fetch_many", body
            )
            writer.close()
            return status, payload

        status, payload = with_server(scenario)
        assert status == 200
        assert payload["allowed"] == [True, False, True]

    def test_post_probe_matrix_custom_probes(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            body = json.dumps(
                {
                    "origin": "s.example",
                    "agents": ["GPTBot", "Googlebot"],
                    "paths": ["/public", "/x"],
                }
            ).encode()
            status, payload = await request(
                reader, writer, "POST", "/probe_matrix", body
            )
            writer.close()
            return status, payload

        status, payload = with_server(scenario)
        assert status == 200
        assert payload["matrix"] == [[True, False], [True, False]]

    def test_enforce_and_stats(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            status, verdict = await request(
                reader,
                writer,
                "GET",
                "/enforce?origin=s.example&agent=GPTBot&path=/secret"
                "&ip=8.8.8.8&asn=15169",
            )
            stats_status, stats = await request(
                reader, writer, "GET", "/stats"
            )
            writer.close()
            return status, verdict, stats_status, stats

        status, verdict, stats_status, stats = with_server(scenario)
        assert (status, stats_status) == (200, 200)
        assert verdict["verdict"] == "robots_denied"
        assert stats["gateways"]["s.example"]["robots_denied"] == 1
        assert stats["endpoints"]["enforce"]["requests"] == 1

    def test_healthz(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            result = await request(reader, writer, "GET", "/healthz")
            writer.close()
            return result

        assert with_server(scenario) == (200, {"status": "ok"})

    def test_missing_params_is_400(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            result = await request(
                reader, writer, "GET", "/can_fetch?origin=s.example"
            )
            writer.close()
            return result

        status, payload = with_server(scenario)
        assert status == 400
        assert "agent" in payload["error"]

    def test_bad_json_body_is_400(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            result = await request(
                reader, writer, "POST", "/can_fetch_many", b"{nope"
            )
            writer.close()
            return result

        status, payload = with_server(scenario)
        assert status == 400

    def test_unknown_route_is_404(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            result = await request(reader, writer, "GET", "/whatever")
            writer.close()
            return result

        assert with_server(scenario)[0] == 404

    def test_resolver_failure_is_502(self):
        async def runner():
            def resolver(origin):
                raise OSError("upstream gone")

            service = DecisionService(resolver, clock=lambda: 0.0)
            server = DecisionHTTPServer(service, port=0)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                result = await request(
                    reader,
                    writer,
                    "GET",
                    "/can_fetch?origin=x&agent=a&path=/p",
                )
                writer.close()
                return result
            finally:
                await server.stop()

        status, payload = asyncio.run(runner())
        assert status == 502
        assert "upstream gone" in payload["error"]

    @pytest.mark.parametrize("escape", ["relative", "absolute"])
    def test_robots_dir_origin_escape_is_502(self, tmp_path, escape):
        root = tmp_path / "robots"
        root.mkdir()
        (root / "site.example.txt").write_text(ROBOTS, encoding="utf-8")
        (tmp_path / "outside.txt").write_text(
            "User-agent: *\nDisallow: /secret-rule\n", encoding="utf-8"
        )
        origin = (
            "../outside" if escape == "relative" else str(tmp_path / "outside")
        )

        async def runner():
            service = DecisionService(
                directory_resolver(root), clock=lambda: 0.0
            )
            server = DecisionHTTPServer(service, port=0)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                escaped = await request(
                    reader,
                    writer,
                    "GET",
                    f"/can_fetch?origin={quote(origin)}&agent=x"
                    "&path=/secret-rule/a&explain=1",
                )
                inside = await request(
                    reader,
                    writer,
                    "GET",
                    "/can_fetch?origin=site.example&agent=x&path=/public"
                    "&explain=1",
                )
                stats = await request(reader, writer, "GET", "/stats")
                writer.close()
                return escaped, inside, stats
            finally:
                await server.stop()

        escaped, inside, stats = asyncio.run(runner())
        assert escaped[0] == 502
        assert "single path component" in escaped[1]["error"]
        assert "secret-rule" not in json.dumps(escaped[1])
        assert "reason" not in escaped[1]
        assert inside[0] == 200 and inside[1]["allowed"] is True
        assert inside[1]["reason"]
        assert stats[1]["provider"]["resolve_failures"] == 1

    def test_connection_close_honored(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            status, _ = await read_response(reader)
            trailing = await reader.read()
            writer.close()
            return status, trailing

        status, trailing = with_server(scenario)
        assert status == 200
        assert trailing == b""  # server closed after the response

    def test_fast_path_and_async_path_agree_bytewise(self):
        async def scenario(host, port, service):
            target = "/can_fetch?origin=s.example&agent=GPTBot&path=/p"
            reader, writer = await asyncio.open_connection(host, port)
            cold = await request(reader, writer, "GET", target)
            warm = await request(reader, writer, "GET", target)
            writer.close()
            return cold, warm

        cold, warm = with_server(scenario)
        assert cold == warm

    def test_internal_error_returns_id_not_message(self, capsys):
        class FailingRouter(ServiceRouter):
            async def respond(self, method, target, body):
                if target.startswith("/boom"):
                    raise RuntimeError("secret /etc/detail")
                return await super().respond(method, target, body)

        async def runner():
            service = make_service()
            server = DecisionHTTPServer(service, port=0)
            server.router = FailingRouter(service)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                # Pipelined: each failure must not stall or reorder the
                # requests queued behind it on the same connection.
                writer.write(
                    b"GET /boom HTTP/1.1\r\nHost: t\r\n\r\n"
                    b"GET /can_fetch?origin=s.example&agent=B&path=/public"
                    b" HTTP/1.1\r\nHost: t\r\n\r\n"
                    b"GET /boom HTTP/1.1\r\nHost: t\r\n\r\n"
                    b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                await writer.drain()
                answers = [await read_response(reader) for _ in range(4)]
                writer.close()
                return answers
            finally:
                await server.stop()

        first, verdict, second, stats = asyncio.run(runner())
        assert first == (500, {"error": "internal error", "id": 1})
        assert verdict == (
            200,
            {
                "origin": "s.example",
                "agent": "B",
                "path": "/public",
                "allowed": True,
            },
        )
        assert second == (500, {"error": "internal error", "id": 2})
        assert stats[1]["internal_errors"] == 2
        logged = capsys.readouterr().err
        assert "internal error id=1" in logged
        assert "internal error id=2" in logged
        assert "secret /etc/detail" in logged  # traceback stays server-side


class TestServeCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8041
        assert args.robots == []
        assert args.robots_dir is None

    def test_robots_binding_parsing(self, tmp_path):
        from repro.cli import _serve_resolver

        robots_file = tmp_path / "r.txt"
        robots_file.write_text(ROBOTS, encoding="utf-8")
        args = build_parser().parse_args(
            ["serve", "--robots", f"mine.example={robots_file}"]
        )
        resolver = _serve_resolver(args)
        assert resolver("mine.example") == ROBOTS
        assert resolver("other.example") is None

    def test_bad_robots_binding_is_config_error(self):
        from repro.cli import _serve_resolver
        from repro.exceptions import ConfigError

        args = build_parser().parse_args(["serve", "--robots", "no-equals"])
        with pytest.raises(ConfigError):
            _serve_resolver(args)

    def test_serve_end_to_end_over_real_socket(self, capsys):
        """`repro-study serve --port 0` semantics: bind, answer, stop."""

        async def scenario():
            from repro.service import corpus_resolver, serve

            service = DecisionService(corpus_resolver())
            ready = asyncio.Event()
            bound: dict[str, int] = {}
            task = asyncio.create_task(
                serve(
                    service,
                    host="127.0.0.1",
                    port=0,
                    ready=ready,
                    on_bound=lambda host, port: bound.update(port=port),
                )
            )
            await asyncio.wait_for(ready.wait(), timeout=5.0)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", bound["port"]
            )
            result = await request(
                reader,
                writer,
                "GET",
                "/can_fetch?origin=v3.example&agent=GPTBot&path=/page",
            )
            writer.close()
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            return result

        status, payload = asyncio.run(scenario())
        assert status == 200
        assert payload["allowed"] is False
        assert "serving on http://127.0.0.1:" in capsys.readouterr().out

    def test_sigterm_stops_serve_with_sigint_ignored(self):
        """A ``serve`` started with SIGINT ignored (as from a background
        shell) still shuts down cleanly on SIGTERM."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            banner = server.stdout.readline()
            assert banner.startswith("serving on http://127.0.0.1:"), banner
            port = int(banner.rsplit(":", 1)[1])
            socket.create_connection(("127.0.0.1", port), timeout=5).close()
            server.send_signal(signal.SIGTERM)
            _out, err = server.communicate(timeout=10)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0, err
        assert "shutting down" in err
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()
