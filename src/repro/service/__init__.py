"""Async robots decision service: ``can_fetch`` at wire speed.

The long-running policy decision point in front of the compiled
robots engine — see :mod:`repro.service.core` for the design and
:mod:`repro.service.http` for the transport, a stdlib asyncio
HTTP/1.1 server.  ``repro-study serve`` is the CLI entry point;
``benchmarks/test_service_bench.py`` is the load harness that gates
its throughput and tail latency in CI.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "DecisionService": ".core",
    "EndpointCounter": ".core",
    "PolicyProvider": ".core",
    "ProviderStats": ".core",
    "Resolver": ".core",
    "corpus_resolver": ".core",
    "directory_resolver": ".core",
    "static_resolver": ".core",
    "DecisionHTTPServer": ".http",
    "ServiceProtocol": ".http",
    "serve": ".http",
    "ServiceRouter": ".router",
    "encode": ".router",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "DecisionHTTPServer",
    "DecisionService",
    "EndpointCounter",
    "PolicyProvider",
    "ProviderStats",
    "Resolver",
    "ServiceProtocol",
    "ServiceRouter",
    "corpus_resolver",
    "directory_resolver",
    "encode",
    "serve",
    "static_resolver",
]
