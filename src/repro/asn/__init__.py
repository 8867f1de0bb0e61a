"""ASN / whois substrate: static registry plus enrichment client."""

from .._lazy import lazy_exports

_EXPORTS = {
    "AsnInfo": ".database",
    "AsnRegistry": ".database",
    "default_asn_registry": ".database",
    "WhoisClient": ".whois",
    "WhoisResult": ".whois",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AsnInfo",
    "AsnRegistry",
    "WhoisClient",
    "WhoisResult",
    "default_asn_registry",
]
