"""High-level access-policy API over a parsed robots.txt.

:class:`RobotsPolicy` is the object crawlers actually consult: it binds
a parsed :class:`~repro.robots.model.RobotsFile` (or a fetch-failure
disposition) to the two questions that matter — *may I fetch this
path?* and *how long must I wait between fetches?*

All access queries route through a lazily-built
:class:`~repro.robots.compiled.CompiledPolicy`: groups are resolved
and rules normalized/compiled once per user-agent token instead of on
every call, and the batch entry points (:meth:`RobotsPolicy.can_fetch_many`,
:meth:`RobotsPolicy.probe_matrix`) amortize path normalization across
whole probe matrices.  See :mod:`repro.robots.compiled` for the
engine's design notes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .compiled import CompiledPolicy
from .matcher import MatchResult
from .model import Group, RobotsFile, Rule
from .parser import parse

#: Path of the robots file itself; always fetchable per RFC 9309.
ROBOTS_PATH = "/robots.txt"


@dataclass(frozen=True)
class AccessDecision:
    """Full explanation of an allow/deny decision.

    Attributes:
        allowed: the verdict.
        matched_rule: the winning rule, ``None`` for default-allow.
        group_agents: user-agent tokens of the governing group(s);
            empty when no group applied.
        reason: short human-readable explanation for logs and debugging.
    """

    allowed: bool
    matched_rule: Rule | None
    group_agents: tuple[str, ...]
    reason: str


@dataclass
class RobotsPolicy:
    """Access policy for one origin derived from its robots.txt.

    Construct via :meth:`from_text`, :meth:`from_robots`,
    :meth:`allow_all` or :meth:`disallow_all`.  The latter two model
    RFC 9309 fetch-failure semantics (4xx -> allow all, 5xx ->
    disallow all) without a document.
    """

    robots: RobotsFile | None = None
    _forced_allow: bool | None = field(default=None, repr=False)
    _compiled: CompiledPolicy | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- constructors ------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "RobotsPolicy":
        """Parse ``text`` and wrap it in a policy."""
        return cls(robots=parse(text))

    @classmethod
    def from_robots(cls, robots: RobotsFile) -> "RobotsPolicy":
        return cls(robots=robots)

    @classmethod
    def allow_all(cls) -> "RobotsPolicy":
        """Policy allowing every path (e.g. robots.txt returned 404)."""
        return cls(robots=None, _forced_allow=True)

    @classmethod
    def disallow_all(cls) -> "RobotsPolicy":
        """Policy denying every path (e.g. robots.txt returned 503)."""
        return cls(robots=None, _forced_allow=False)

    # -- compilation -------------------------------------------------

    def compiled(self) -> CompiledPolicy:
        """The memoizing compiled engine backing this policy.

        Built on first use and cached; per-agent-token rule sets are
        then reused across every subsequent query.
        """
        if self._compiled is None:
            self._compiled = CompiledPolicy(
                robots=self.robots, forced_allow=self._forced_allow
            )
        return self._compiled

    # -- queries -----------------------------------------------------

    def decide(self, user_agent: str, path: str) -> AccessDecision:
        """Explainable access decision for ``user_agent`` on ``path``."""
        if path.startswith(ROBOTS_PATH):
            return AccessDecision(
                allowed=True,
                matched_rule=None,
                group_agents=(),
                reason="robots.txt itself is always fetchable",
            )
        if self._forced_allow is True:
            return AccessDecision(
                allowed=True,
                matched_rule=None,
                group_agents=(),
                reason="no robots.txt available: default allow",
            )
        if self._forced_allow is False:
            return AccessDecision(
                allowed=False,
                matched_rule=None,
                group_agents=(),
                reason="robots.txt unavailable (server error): assume disallow",
            )
        assert self.robots is not None
        ruleset, agents = self.compiled().ruleset_for(user_agent)
        if not agents:
            return AccessDecision(
                allowed=True,
                matched_rule=None,
                group_agents=(),
                reason="no group governs this agent: default allow",
            )
        result: MatchResult = ruleset.decide(path)
        if result.rule is None:
            reason = "no rule matched: default allow"
        else:
            verdict = "allows" if result.allowed else "disallows"
            reason = f"rule {result.rule.render()!r} {verdict} {path!r}"
        return AccessDecision(
            allowed=result.allowed,
            matched_rule=result.rule,
            group_agents=agents,
            reason=reason,
        )

    def can_fetch(self, user_agent: str, path: str) -> bool:
        """Boolean access check (the common fast path).

        Skips :class:`AccessDecision` construction entirely and hits
        the compiled engine's memoized rule set directly.
        """
        return self.compiled().can_fetch(user_agent, path)

    def can_fetch_many(
        self, user_agent: str, paths: Sequence[str]
    ) -> list[bool]:
        """Batch access checks for one agent; aligns with ``paths``."""
        return self.compiled().can_fetch_many(user_agent, paths)

    def probe_matrix(
        self, agents: Sequence[str], paths: Sequence[str]
    ) -> list[list[bool]]:
        """Verdict rows per agent over a shared probe-path set.

        Row ``i`` aligns with ``agents[i]``, column ``j`` with
        ``paths[j]``; paths are normalized once for all agents.
        """
        return self.compiled().probe_matrix(agents, paths)

    def crawl_delay(self, user_agent: str) -> float | None:
        """Crawl delay in seconds for ``user_agent``, if any is set."""
        if self.robots is None:
            return None
        return self.compiled().crawl_delay(user_agent)

    def governing_group(self, user_agent: str) -> Group | None:
        """The single most-specific group for ``user_agent`` (or None)."""
        if self.robots is None:
            return None
        return self.robots.select_group(user_agent)

    def allowed_paths(self, user_agent: str, paths: list[str]) -> list[str]:
        """Filter ``paths`` down to those fetchable by ``user_agent``."""
        verdicts = self.can_fetch_many(user_agent, paths)
        return [path for path, ok in zip(paths, verdicts) if ok]
