"""Generator for the 36 university-like websites of the study.

The paper's dataset covers 36 institution-managed sites "from the IT
department to campus dining to a personnel directory and beyond".  The
generator synthesizes an equivalent estate: thematic hostnames, page
trees with realistic section structure (including the Gatsby-style
``/page-data/`` JSON endpoints the paper observed scrapers targeting),
and log-normally distributed page sizes.
"""

from __future__ import annotations

import numpy as np

from .site import EXPERIMENT_SITE, Page, Website
from .site import PASSIVE_ROBOTS_SITES as PASSIVE_ROBOTS_SITES

#: The full estate: 36 subdomain themes.
SITE_THEMES: tuple[str, ...] = (
    "directory",
    "library",
    "registrar",
    "oit",
    "dining",
    "admissions",
    "athletics",
    "calendar",
    "research",
    "gradschool",
    "engineering",
    "medicine",
    "law",
    "business",
    "arts",
    "music",
    "chapel",
    "parking",
    "housing",
    "career",
    "alumni",
    "giving",
    "news",
    "events",
    "sustainability",
    "hr",
    "finance",
    "police",
    "health",
    "recreation",
    "stores",
    "press",
    "magazine",
    "global",
    "community",
    "accessibility",
)


def site_hostnames() -> list[str]:
    """Hostnames of all 36 sites."""
    return [f"{theme}.university.edu" for theme in SITE_THEMES]


def _sample_size(rng: np.random.Generator, median_kib: float = 24.0) -> int:
    """Log-normal page size around ``median_kib`` kibibytes."""
    size = rng.lognormal(mean=np.log(median_kib * 1024), sigma=0.9)
    return max(512, int(size))


def _slugs(rng: np.random.Generator, prefix: str, count: int) -> list[str]:
    """Deterministic readable slugs like ``news-article-017``."""
    return [f"{prefix}-{index:03d}" for index in range(count)]


#: Median transfer size per section, KiB.  Directory (people) pages
#: carry photos; docs are report/PDF-sized — this is what makes the
#: paper's per-bot GB totals diverge (YisouSpider's people crawling
#: nets ~40x AppleBot's JSON-heavy fetches, Table 3).
SECTION_MEDIAN_KIB: dict[str, float] = {
    "home": 30.0,
    "info": 20.0,
    "news": 24.0,
    "events": 16.0,
    "people": 52.0,
    "docs": 200.0,
}


def build_site(
    hostname: str,
    rng: np.random.Generator,
    n_news: int = 40,
    n_events: int = 25,
    n_people: int = 0,
    n_docs: int = 30,
) -> Website:
    """Build one website with the standard university page layout.

    Every HTML page gets a parallel ``/page-data/<slug>/page-data.json``
    resource, reproducing the static-site-generator layout the paper's
    experiment v2 singles out as "a common target for scrapers".
    """
    site = Website(hostname=hostname)
    html_slugs: list[str] = []

    def add_html(path: str, section: str, slug: str) -> None:
        median = SECTION_MEDIAN_KIB.get(section, 24.0)
        site.add_page(
            Page(path=path, size_bytes=_sample_size(rng, median), section=section)
        )
        html_slugs.append(slug)

    add_html("/", "home", "index")
    for path, slug in (("/about", "about"), ("/contact", "contact"), ("/search", "search")):
        add_html(path, "info", slug)
    for slug in _slugs(rng, "article", n_news):
        add_html(f"/news/{slug}", "news", f"news-{slug}")
    for slug in _slugs(rng, "event", n_events):
        add_html(f"/events/{slug}", "events", f"events-{slug}")
    for slug in _slugs(rng, "person", n_people):
        add_html(f"/people/{slug}", "people", f"people-{slug}")
    for slug in _slugs(rng, "doc", n_docs):
        add_html(f"/docs/{slug}", "docs", f"docs-{slug}")

    # Gatsby-style JSON data endpoints, one per HTML page.
    for slug in html_slugs:
        site.add_page(
            Page(
                path=f"/page-data/{slug}/page-data.json",
                size_bytes=max(256, int(rng.lognormal(np.log(4096), 0.7))),
                content_type="application/json",
                section="page-data",
            )
        )

    # Paths the base robots.txt disallows (they exist and serve 200,
    # which is precisely why robots.txt mentions them).
    site.add_page(Page(path="/404", size_bytes=1024, section="meta"))
    site.add_page(Page(path="/dev-404-page", size_bytes=1024, section="meta"))
    for slug in _slugs(rng, "area", 5):
        site.add_page(
            Page(path=f"/secure/{slug}", size_bytes=2048, section="secure")
        )
    return site


def build_university_sites(seed: int = 2025) -> list[Website]:
    """Build the full 36-site estate, deterministically from ``seed``.

    The experiment site (personnel directory) is by far the largest —
    thousands of people pages — matching the paper's observation that
    YisouSpider hammered the institution's people directory.
    """
    rng = np.random.default_rng(seed)
    sites: list[Website] = []
    for hostname in site_hostnames():
        if hostname == EXPERIMENT_SITE:
            site = build_site(
                hostname, rng, n_news=30, n_events=10, n_people=2500, n_docs=20
            )
        elif hostname.startswith(("news.", "events.")):
            site = build_site(hostname, rng, n_news=150, n_events=80)
        else:
            n_news = int(rng.integers(15, 60))
            n_events = int(rng.integers(5, 40))
            site = build_site(hostname, rng, n_news=n_news, n_events=n_events)
        sites.append(site)
    return sites
