"""Website model: a page tree with sizes, robots.txt, and a sitemap.

A :class:`Website` is what the in-memory server serves.  Its
robots.txt body is mutable so the experiment scenario can swap
versions mid-simulation, exactly as the paper's support staff swapped
files on the live site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..robots.corpus import build_base

#: Path of the robots file, shared with :mod:`repro.robots.policy`.
ROBOTS_PATH = "/robots.txt"
SITEMAP_PATH = "/sitemap/sitemap-0.xml"

#: Hostname of the high-bot-traffic site carrying the controlled
#: robots.txt experiment (the paper's personnel directory analog).
EXPERIMENT_SITE = "directory.university.edu"

#: The three passive-observation sites whose fixed robots.txt files
#: feed the §5.1 check-frequency analysis.
PASSIVE_ROBOTS_SITES = (
    "library.university.edu",
    "registrar.university.edu",
    "oit.university.edu",
)


@dataclass(frozen=True)
class Page:
    """One servable resource.

    Attributes:
        path: rooted URI path.
        size_bytes: transfer size used for the log's byte accounting.
        content_type: MIME type.
        section: top-level section (``people``, ``news``, ``page-data``,
            ...) used by traffic models to express bot interests.
    """

    path: str
    size_bytes: int
    content_type: str = "text/html"
    section: str = ""


@dataclass
class Website:
    """A single site: hostname, pages, robots.txt text.

    Attributes:
        hostname: fully qualified site name (the log's ``sitename``).
        pages: path -> :class:`Page`.
        robots_text: current robots.txt body served at ``/robots.txt``.
        robots_status: status code for robots.txt fetches; lets tests
            model sites whose robots.txt 404s or 503s.
    """

    hostname: str
    pages: dict[str, Page] = field(default_factory=dict)
    robots_text: str = field(default_factory=lambda: build_base().render())
    robots_status: int = 200
    robots_schedule: list[tuple[float, str]] = field(default_factory=list)

    def add_page(self, page: Page) -> None:
        self.pages[page.path] = page

    def set_robots(self, text: str, status: int = 200) -> None:
        """Swap the robots.txt body (the experiment's version rotation)."""
        self.robots_text = text
        self.robots_status = status

    def schedule_robots(self, start_epoch: float, text: str) -> None:
        """Register a timed robots.txt deployment.

        When any deployment is scheduled, robots.txt fetches are
        answered according to the fetch timestamp (the simulation's
        virtual clock), so agents generating traffic out of global
        time order still see the historically correct version.
        """
        self.robots_schedule.append((start_epoch, text))
        self.robots_schedule.sort(key=lambda entry: entry[0])

    def robots_at(self, timestamp: float) -> str:
        """The robots.txt body in force at ``timestamp``."""
        active = self.robots_text
        for start, text in self.robots_schedule:
            if start <= timestamp:
                active = text
            else:
                break
        return active

    def lookup(self, path: str) -> Page | None:
        """Find the page at ``path`` (query string ignored)."""
        question = path.find("?")
        if question >= 0:
            path = path[:question]
        page = self.pages.get(path)
        if page is None and path.endswith("/") and len(path) > 1:
            page = self.pages.get(path.rstrip("/"))
        return page

    def all_paths(self) -> list[str]:
        """Every servable path, in insertion order."""
        return list(self.pages)

    def section_index(self) -> dict[str, list[str]]:
        """Section -> paths map, built once and cached.

        The cache is invalidated by :meth:`add_page`, so traffic
        models can call this per request without rescanning the page
        tree.
        """
        index = self.__dict__.get("_section_index")
        if index is None or self.__dict__.get("_section_count") != len(self.pages):
            index = {}
            for page in self.pages.values():
                index.setdefault(page.section, []).append(page.path)
            self.__dict__["_section_index"] = index
            self.__dict__["_section_count"] = len(self.pages)
        return index

    def paths_in_section(self, section: str) -> list[str]:
        return self.section_index().get(section, [])

    def sitemap_xml(self) -> str:
        """Render a sitemap listing every HTML page."""
        urls = "\n".join(
            f"  <url><loc>https://{self.hostname}{page.path}</loc></url>"
            for page in self.pages.values()
            if page.content_type == "text/html"
        )
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">\n'
            f"{urls}\n</urlset>\n"
        )

    @property
    def total_bytes(self) -> int:
        return sum(page.size_bytes for page in self.pages.values())

    def __len__(self) -> int:
        return len(self.pages)
