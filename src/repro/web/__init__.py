"""In-memory web substrate: messages, sites, server, site generator."""

from .._lazy import lazy_exports

_EXPORTS = {
    "SITE_THEMES": ".generator",
    "build_site": ".generator",
    "build_university_sites": ".generator",
    "site_hostnames": ".generator",
    "REASON_PHRASES": ".message",
    "Request": ".message",
    "Response": ".message",
    "make_body_response": ".message",
    "AccessHook": ".server",
    "WebServer": ".server",
    "ROBOTS_PATH": ".site",
    "SITEMAP_PATH": ".site",
    "Page": ".site",
    "Website": ".site",
    "EXPERIMENT_SITE": ".site",
    "PASSIVE_ROBOTS_SITES": ".site",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AccessHook",
    "EXPERIMENT_SITE",
    "PASSIVE_ROBOTS_SITES",
    "Page",
    "REASON_PHRASES",
    "ROBOTS_PATH",
    "Request",
    "Response",
    "SITEMAP_PATH",
    "SITE_THEMES",
    "WebServer",
    "Website",
    "build_site",
    "build_university_sites",
    "make_body_response",
    "site_hostnames",
]
