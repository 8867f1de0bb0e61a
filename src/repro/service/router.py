"""Transport-independent request routing for the decision service.

The stdlib asyncio HTTP server (:mod:`repro.service.http`) dispatches
through one :class:`ServiceRouter`, which keeps framing apart from
routing: a verdict's bytes are decided here, not by the transport.  The
router also owns the **sync fast path**: a warm-cache ``GET
/can_fetch`` (the overwhelming steady-state case) is answered without
creating a task or suspending, which is where the wire-speed budget
goes.

Endpoints:

``GET /can_fetch?origin=&agent=&path=[&explain=1]``
    Single verdict.  ``explain=1`` adds the matched-rule reason and
    crawl delay (off the hot path).
``POST /can_fetch_many``  ``{"origin", "agent", "paths": [...]}``
    Batch verdicts, one rule-set resolution for the whole batch.
``POST /probe_matrix``  ``{"origin", "agents"?, "paths"?}``
    Agent × path verdict matrix (paper probe sets when omitted).
``GET|POST /enforce?origin=&agent=&path=[&ip=][&asn=]``
    Deterrence-gateway verdict (blocklist → robots → rate limit →
    tarpit), stateful across calls like the proxy it models.
``GET /stats``
    Cache hit rates, eviction counters, per-endpoint latency, and the
    count of requests answered with a 500 (``internal_errors``).
``GET /healthz``
    Liveness probe.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from urllib.parse import unquote_plus

from ..exceptions import ServiceError
from .core import DecisionService

#: Response content type for every endpoint.
CONTENT_TYPE = "application/json"

_HEALTH_BODY = b'{"status":"ok"}'


def encode(payload: dict) -> bytes:
    """Canonical JSON encoding (sorted keys, no whitespace) — the
    byte-identity contract the parity tests assert."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _error(status: int, message: str) -> tuple[int, bytes]:
    return status, encode({"error": message})


def parse_query(query: str) -> dict[str, str]:
    """Minimal query-string parser (last value wins, '+' and %XX
    decoded).  Hand-rolled: this sits on the per-request fast path."""
    params: dict[str, str] = {}
    for part in query.split("&"):
        if not part:
            continue
        key, _, value = part.partition("=")
        if "%" in value or "+" in value:
            value = unquote_plus(value)
        if "%" in key or "+" in key:
            key = unquote_plus(key)
        params[key] = value
    return params


class ServiceRouter:
    """Route (method, target, body) onto :class:`DecisionService`.

    One router serves every connection of a server, so it also owns
    the server's ``internal_errors`` counter.
    """

    __slots__ = ("service", "internal_errors")

    def __init__(self, service: DecisionService) -> None:
        self.service = service
        self.internal_errors = 0

    def stats(self) -> dict:
        """The ``/stats`` payload: service stats plus this router's
        500 count."""
        stats = self.service.stats()
        stats["internal_errors"] = self.internal_errors
        return stats

    def internal_error(self, exc: Exception) -> tuple[int, bytes]:
        """The 500 answer for an unexpected exception.

        The body carries only a per-server error id; the traceback
        goes to stderr under the same id, so an operator can match a
        client report to its cause without the exception text (paths,
        internals) ever reaching the client.
        """
        self.internal_errors += 1
        error_id = self.internal_errors
        print(f"repro.service internal error id={error_id}", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)
        return 500, encode({"error": "internal error", "id": error_id})

    # -- fast path ---------------------------------------------------

    def respond_fast(
        self, method: str, target: str
    ) -> tuple[int, bytes] | None:
        """Synchronous answer when no resolve is needed, else ``None``.

        Covers ``/can_fetch`` on a warm cache plus the trivially-sync
        ``/stats`` and ``/healthz``; everything else (and every cold
        lookup) takes the async path.
        """
        if method != "GET":
            return None
        path, _, query = target.partition("?")
        if path == "/can_fetch":
            params = parse_query(query)
            try:
                origin = params["origin"]
                agent = params["agent"]
                probe = params["path"]
            except KeyError:
                return None  # async path produces the 400
            started = time.perf_counter()
            payload = self.service.can_fetch_fast(
                origin, agent, probe, explain=params.get("explain") == "1"
            )
            if payload is None:
                return None
            self.service.counter("can_fetch").observe(
                time.perf_counter() - started
            )
            return 200, encode(payload)
        if path == "/healthz":
            return 200, _HEALTH_BODY
        if path == "/stats":
            return 200, encode(self.stats())
        return None

    # -- full path ---------------------------------------------------

    async def respond(
        self, method: str, target: str, body: bytes | None
    ) -> tuple[int, bytes]:
        """Dispatch one request, returning ``(status, json_bytes)``."""
        path, _, query = target.partition("?")
        try:
            if path == "/can_fetch" and method == "GET":
                return await self._can_fetch(query)
            if path == "/can_fetch_many" and method == "POST":
                return await self._can_fetch_many(body)
            if path == "/probe_matrix" and method == "POST":
                return await self._probe_matrix(body)
            if path == "/enforce" and method in ("GET", "POST"):
                return await self._enforce(query, body)
            if path == "/healthz" and method == "GET":
                return 200, _HEALTH_BODY
            if path == "/stats" and method == "GET":
                return 200, encode(self.stats())
        except ServiceError as exc:
            self.service.counter(path.lstrip("/")).errors += 1
            return _error(502, str(exc))
        return _error(404, f"no route for {method} {path}")

    # -- endpoint handlers -------------------------------------------

    async def _can_fetch(self, query: str) -> tuple[int, bytes]:
        params = parse_query(query)
        missing = [
            key for key in ("origin", "agent", "path") if key not in params
        ]
        if missing:
            return _error(
                400, f"missing query parameter(s): {', '.join(missing)}"
            )
        started = time.perf_counter()
        payload = await self.service.can_fetch(
            params["origin"],
            params["agent"],
            params["path"],
            explain=params.get("explain") == "1",
        )
        self.service.counter("can_fetch").observe(
            time.perf_counter() - started
        )
        return 200, encode(payload)

    async def _can_fetch_many(
        self, body: bytes | None
    ) -> tuple[int, bytes]:
        fields, problem = self._json_body(
            body, required=("origin", "agent", "paths")
        )
        if problem is not None:
            return problem
        paths = fields["paths"]
        if not isinstance(paths, list) or not all(
            isinstance(item, str) for item in paths
        ):
            return _error(400, "'paths' must be a list of strings")
        started = time.perf_counter()
        payload = await self.service.can_fetch_many(
            str(fields["origin"]), str(fields["agent"]), paths
        )
        self.service.counter("can_fetch_many").observe(
            time.perf_counter() - started, queries=max(1, len(paths))
        )
        return 200, encode(payload)

    async def _probe_matrix(self, body: bytes | None) -> tuple[int, bytes]:
        fields, problem = self._json_body(body, required=("origin",))
        if problem is not None:
            return problem
        agents = fields.get("agents")
        paths = fields.get("paths")
        for name, value in (("agents", agents), ("paths", paths)):
            if value is not None and (
                not isinstance(value, list)
                or not all(isinstance(item, str) for item in value)
            ):
                return _error(400, f"{name!r} must be a list of strings")
        started = time.perf_counter()
        payload = await self.service.probe_matrix(
            str(fields["origin"]), agents, paths
        )
        queries = len(payload["agents"]) * len(payload["paths"])
        self.service.counter("probe_matrix").observe(
            time.perf_counter() - started, queries=max(1, queries)
        )
        return 200, encode(payload)

    async def _enforce(
        self, query: str, body: bytes | None
    ) -> tuple[int, bytes]:
        params = parse_query(query)
        if body:
            fields, problem = self._json_body(body, required=())
            if problem is not None:
                return problem
            params.update(
                {key: str(value) for key, value in fields.items()}
            )
        missing = [
            key for key in ("origin", "agent", "path") if key not in params
        ]
        if missing:
            return _error(
                400, f"missing parameter(s): {', '.join(missing)}"
            )
        try:
            asn = int(params.get("asn", "0"))
        except ValueError:
            return _error(400, "'asn' must be an integer")
        started = time.perf_counter()
        payload = await self.service.enforce(
            params["origin"],
            params["agent"],
            params["path"],
            client_ip=params.get("ip", "0.0.0.0"),
            asn=asn,
        )
        self.service.counter("enforce").observe(
            time.perf_counter() - started
        )
        return 200, encode(payload)

    @staticmethod
    def _json_body(
        body: bytes | None, required: tuple[str, ...]
    ) -> tuple[dict, tuple[int, bytes] | None]:
        if not body:
            return {}, _error(400, "request body required")
        try:
            fields = json.loads(body)
        except json.JSONDecodeError as exc:
            return {}, _error(400, f"invalid JSON body: {exc}")
        if not isinstance(fields, dict):
            return {}, _error(400, "JSON body must be an object")
        missing = [key for key in required if key not in fields]
        if missing:
            return {}, _error(
                400, f"missing field(s): {', '.join(missing)}"
            )
        return fields, None
