"""Data model for parsed robots.txt documents.

The model mirrors the structure of RFC 9309: a document is a sequence of
*groups*, each group headed by one or more ``User-agent`` lines and
containing ``Allow``/``Disallow`` rules.  ``Crawl-delay`` is not part of
RFC 9309 but is honoured by many crawlers and used by the paper's
experiment v1, so groups carry an optional crawl delay.  ``Sitemap``
lines are document-scoped, not group-scoped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class RuleType(enum.Enum):
    """Kind of a path rule inside a group."""

    ALLOW = "allow"
    DISALLOW = "disallow"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Rule:
    """A single ``Allow``/``Disallow`` rule.

    Attributes:
        type: whether the rule allows or disallows.
        path: the raw path pattern, possibly containing ``*`` wildcards
            and a trailing ``$`` anchor.  An empty Disallow path means
            "allow everything" per RFC 9309 and never matches.
        line_number: 1-based source line, ``0`` for synthesized rules.
    """

    type: RuleType
    path: str
    line_number: int = 0

    @property
    def is_allow(self) -> bool:
        return self.type is RuleType.ALLOW

    @property
    def is_empty(self) -> bool:
        """True for rules with an empty pattern (they match nothing)."""
        return self.path == ""

    def render(self) -> str:
        """Render the rule as a robots.txt line."""
        keyword = "Allow" if self.is_allow else "Disallow"
        return f"{keyword}: {self.path}"


@dataclass
class Group:
    """A user-agent group: one or more agent tokens plus their rules."""

    user_agents: list[str] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
    crawl_delay: float | None = None

    @property
    def is_catch_all(self) -> bool:
        """True if this group applies to every bot (``User-agent: *``)."""
        return any(agent == "*" for agent in self.user_agents)

    def match_specificity(self, product_token: str) -> int:
        """Length of the longest group token matching ``product_token``.

        Returns ``-1`` when no non-wildcard token matches.  Longer
        matches are more specific and win group selection.
        """
        token = product_token.lower()
        best = -1
        for agent in self.user_agents:
            candidate = agent.lower()
            if candidate == "*":
                continue
            if (token == candidate or token.startswith(candidate)) and len(
                candidate
            ) > best:
                best = len(candidate)
        return best

    def render(self) -> str:
        """Render the group as robots.txt text."""
        lines = [f"User-agent: {agent}" for agent in self.user_agents]
        lines.extend(rule.render() for rule in self.rules)
        if self.crawl_delay is not None:
            delay = self.crawl_delay
            rendered = int(delay) if float(delay).is_integer() else delay
            lines.append(f"Crawl-delay: {rendered}")
        return "\n".join(lines)


@dataclass
class RobotsFile:
    """A parsed robots.txt document.

    Attributes:
        groups: the user-agent groups in document order.
        sitemaps: absolute sitemap URLs found anywhere in the document.
        invalid_lines: count of lines the parser skipped.
        source_bytes: size of the (possibly truncated) parsed body.
        truncated: True if the body exceeded the parser size cap and was
            truncated rather than rejected.
    """

    groups: list[Group] = field(default_factory=list)
    sitemaps: list[str] = field(default_factory=list)
    invalid_lines: int = 0
    source_bytes: int = 0
    truncated: bool = False

    @property
    def is_empty(self) -> bool:
        """True when no group carries any restriction."""
        return all(not group.rules and group.crawl_delay is None for group in self.groups)

    def select_group(self, product_token: str) -> Group | None:
        """Pick the group governing ``product_token`` per RFC 9309.

        The most specific matching group wins; if several groups tie
        (e.g. the document repeats the same token), their rules are
        merged by the caller via :meth:`matching_groups`.  Falls back to
        the catch-all (``*``) group, then ``None`` (no restrictions).
        """
        groups = self.matching_groups(product_token)
        return groups[0] if groups else None

    def matching_groups(self, product_token: str) -> list[Group]:
        """All groups that govern ``product_token``, most specific first.

        RFC 9309 says rules from multiple groups with the same matched
        token must be combined.  We return every group whose
        specificity equals the best specificity; if no named group
        matches, every catch-all group is returned.
        """
        best = -1
        for group in self.groups:
            specificity = group.match_specificity(product_token)
            if specificity > best:
                best = specificity
        if best >= 0:
            return [
                group
                for group in self.groups
                if group.match_specificity(product_token) == best
            ]
        return [group for group in self.groups if group.is_catch_all]

    def render(self) -> str:
        """Serialize back to robots.txt text (normalized formatting)."""
        blocks = [group.render() for group in self.groups]
        if self.sitemaps:
            blocks.append(
                "\n".join(f"Sitemap: {url}" for url in self.sitemaps)
            )
        return "\n\n".join(block for block in blocks if block) + "\n"
