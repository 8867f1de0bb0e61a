"""Stdlib asyncio HTTP/1.1 front end for the decision service.

No web framework: a hand-rolled :class:`asyncio.Protocol` whose
per-request budget is a few string primitives.  Design points, in
order of how much throughput they buy:

- **Sync fast path.** A warm-cache ``GET /can_fetch`` is parsed,
  answered, and written inside ``data_received`` — no task, no await,
  no context switch.  Only cold lookups (and POST bodies) allocate a
  task.
- **Keep-alive with strict ordering.** Responses must leave in
  request order, so each connection runs a pump: sync answers stream
  straight through, and when a request goes async the pump parks
  until its task completes, then drains the backlog.
- **Minimal parsing.** The request line is split, the header block is
  scanned only for the two headers that matter (``Content-Length``,
  ``Connection``), and response frames are assembled from a constant
  prefix + body.

This is deliberately *not* a general HTTP server (no chunked bodies,
no TLS, no 100-continue); it is the measurement substrate's policy
sidecar, speaking exactly the dialect its clients and benchmark use.
"""

from __future__ import annotations

import asyncio
from collections import deque

from .core import DecisionService
from .router import CONTENT_TYPE, ServiceRouter

#: Refuse absurd frames rather than buffering them (64 KiB headers,
#: 8 MiB bodies — far above any legitimate probe batch).
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    431: "Request Header Fields Too Large",
    413: "Payload Too Large",
    502: "Bad Gateway",
    500: "Internal Server Error",
}


def frame(status: int, body: bytes, keep_alive: bool = True) -> bytes:
    """One HTTP/1.1 response frame around a JSON body."""
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {CONTENT_TYPE}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n\r\n"
    )
    return head.encode("ascii") + body


class ServiceProtocol(asyncio.Protocol):
    """One keep-alive connection: parse, pump, respond in order."""

    __slots__ = (
        "router",
        "transport",
        "_buffer",
        "_queue",
        "_waiting",
        "_closing",
    )

    def __init__(self, router: ServiceRouter) -> None:
        self.router = router
        self.transport: asyncio.Transport | None = None
        self._buffer = b""
        # Parsed-but-unanswered requests: (method, target, body, keep).
        self._queue: deque[tuple[str, str, bytes | None, bool]] = deque()
        self._waiting = False
        self._closing = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        transport.set_write_buffer_limits(high=1 << 20)

    def connection_lost(self, exc: Exception | None) -> None:
        self.transport = None
        self._queue.clear()

    # -- parsing -----------------------------------------------------

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        while True:
            head_end = self._buffer.find(b"\r\n\r\n")
            if head_end < 0:
                if len(self._buffer) > MAX_HEADER_BYTES:
                    self._fail(431, "header block too large")
                return
            head = self._buffer[:head_end]
            line_end = head.find(b"\r\n")
            request_line = head if line_end < 0 else head[:line_end]
            parts = request_line.split()
            if len(parts) < 2:
                self._fail(400, "malformed request line")
                return
            method = parts[0].decode("latin-1")
            target = parts[1].decode("latin-1")
            headers = head[line_end + 2 :].lower() if line_end >= 0 else b""
            length = _content_length(headers)
            if length is None:
                self._fail(400, "unparseable Content-Length")
                return
            if length > MAX_BODY_BYTES:
                self._fail(413, "request body too large")
                return
            total = head_end + 4 + length
            if len(self._buffer) < total:
                return
            body = self._buffer[head_end + 4 : total] if length else None
            self._buffer = self._buffer[total:]
            keep = b"connection: close" not in headers
            self._queue.append((method, target, body, keep))
            if not self._waiting:
                self._pump()

    # -- ordered response pump ---------------------------------------

    def _pump(self) -> None:
        while self._queue and not self._waiting:
            method, target, body, keep = self._queue.popleft()
            if body is None:
                fast = self.router.respond_fast(method, target)
                if fast is not None:
                    self._write(fast[0], fast[1], keep)
                    continue
            self._waiting = True
            asyncio.get_running_loop().create_task(
                self._respond_async(method, target, body, keep)
            )

    async def _respond_async(
        self, method: str, target: str, body: bytes | None, keep: bool
    ) -> None:
        try:
            status, payload = await self.router.respond(method, target, body)
        except Exception as exc:  # defensive: keep the loop alive
            status, payload = self.router.internal_error(exc)
        self._write(status, payload, keep)
        self._waiting = False
        self._pump()

    # -- writing -----------------------------------------------------

    def _write(self, status: int, body: bytes, keep_alive: bool) -> None:
        if self.transport is None:
            return
        self.transport.write(frame(status, body, keep_alive))
        if not keep_alive:
            self._closing = True
            self.transport.close()

    def _fail(self, status: int, message: str) -> None:
        self._write(
            status,
            b'{"error":"' + message.encode("ascii") + b'"}',
            keep_alive=False,
        )


def _content_length(lowered_headers: bytes) -> int | None:
    """Content-Length from a lowercased header block (0 when absent,
    ``None`` when present but unparseable)."""
    marker = lowered_headers.find(b"content-length:")
    if marker < 0:
        return 0
    value_start = marker + len(b"content-length:")
    value_end = lowered_headers.find(b"\r\n", value_start)
    if value_end < 0:
        value_end = len(lowered_headers)
    try:
        return int(lowered_headers[value_start:value_end].strip())
    except ValueError:
        return None


class DecisionHTTPServer:
    """Lifecycle wrapper: bind, report the bound port, serve, stop."""

    def __init__(
        self,
        service: DecisionService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.router = ServiceRouter(service)
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)
        (the port matters when constructed with port 0)."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: ServiceProtocol(self.router), self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


async def serve(
    service: DecisionService,
    host: str = "127.0.0.1",
    port: int = 8041,
    *,
    ready: asyncio.Event | None = None,
    on_bound: "callable | None" = None,
) -> None:
    """Run the stdlib server until cancelled (the CLI entry point).

    ``on_bound(host, port)`` reports the actual bound address (useful
    with port 0); ``ready`` is set once the listener accepts.
    """
    server = DecisionHTTPServer(service, host, port)
    bound_host, bound_port = await server.start()
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    if on_bound is not None:
        on_bound(bound_host, bound_port)
    if ready is not None:
        ready.set()
    try:
        await server.serve_forever()
    finally:
        await server.stop()
