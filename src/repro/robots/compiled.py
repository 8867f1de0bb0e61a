"""Compiled robots-policy evaluation engine.

The naive evaluation path (:func:`~repro.robots.matcher.evaluate_rules`
driven by :meth:`~repro.robots.policy.RobotsPolicy.decide`) re-resolves
the governing groups, re-normalizes the request path once *per rule*,
and re-derives each rule's specificity on every call — O(rules × |path|)
of redundant work on a hot path the paper's measurement hits millions
of times (one ``can_fetch`` per logged access, multiplied by
agents × probe paths × snapshots × sites for longitudinal series).

This module compiles that work out of the loop:

:class:`CompiledRuleSet`
    Rules are normalized and pattern-compiled **once**, then sorted by
    descending octet specificity with Allow ordered before Disallow on
    ties.  Evaluation walks the sorted list and returns at the *first*
    match — equivalent to the legacy full scan because the first
    matching rule in priority order is exactly the most-specific /
    Allow-tie-broken winner.  Wildcard-free patterns (the overwhelming
    majority in real corpora) take a literal ``str.startswith`` /
    equality fast path and never touch the regex engine.

:class:`CompiledPolicy`
    Binds rule sets to a parsed :class:`~repro.robots.model.RobotsFile`
    (or a fetch-failure disposition), memoizing one
    :class:`CompiledRuleSet` per user-agent token — keyed by the
    *resolved group set*, so distinct tokens governed by the same
    groups share a compilation.  Offers single-shot ``can_fetch`` /
    ``decide`` plus the batch entry points ``can_fetch_many`` and
    ``probe_matrix`` that normalize each path exactly once.

:class:`~repro.robots.policy.RobotsPolicy` constructs a
:class:`CompiledPolicy` lazily and routes all queries through it, so
every existing caller gets the compiled path transparently.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .matcher import MatchResult, compile_pattern_body, normalize_path
from .model import Group, RobotsFile, Rule

#: Path of the robots file itself; always fetchable per RFC 9309.
ROBOTS_PATH = "/robots.txt"


@dataclass(frozen=True)
class CompiledRule:
    """One rule with all per-call derivable state precomputed.

    Attributes:
        rule: the original model rule (reported in match results).
        body: normalized pattern with any trailing ``$`` anchor
            stripped; for literal rules this is the exact prefix to
            compare against.
        prefix: literal head of ``body`` up to the first wildcard
            (all of it for literal rules) — a cheap ``startswith``
            prefilter that rejects most paths before any regex runs.
        specificity: octet length of the full normalized pattern
            (including metacharacters), the RFC 9309 precedence key.
        is_allow: cached rule-type test.
        anchored: pattern ended with ``$`` (must match the whole path).
        regex: compiled matcher for wildcard patterns, ``None`` for
            literal ones (the fast path).
        result: the :class:`~repro.robots.matcher.MatchResult` this
            rule yields when it wins, built once so matching allocates
            nothing.
    """

    rule: Rule
    body: str
    prefix: str
    specificity: int
    is_allow: bool
    anchored: bool
    regex: re.Pattern[str] | None
    result: MatchResult

    @classmethod
    def compile(cls, rule: Rule) -> "CompiledRule":
        normalized = normalize_path(rule.path)
        specificity = len(normalized.encode("utf-8"))
        anchored = normalized.endswith("$")
        body = normalized[:-1] if anchored else normalized
        regex: re.Pattern[str] | None = None
        prefix = body
        if "*" in body:
            prefix = body[: body.index("*")]
            regex = compile_pattern_body(body, anchored)
        return cls(
            rule=rule,
            body=body,
            prefix=prefix,
            specificity=specificity,
            is_allow=rule.is_allow,
            anchored=anchored,
            regex=regex,
            result=MatchResult(allowed=rule.is_allow, rule=rule),
        )

    def matches(self, normalized_path: str) -> bool:
        """Whether this rule matches an already-normalized path."""
        if self.regex is not None:
            return normalized_path.startswith(self.prefix) and (
                self.regex.match(normalized_path) is not None
            )
        if self.anchored:
            return normalized_path == self.body
        return normalized_path.startswith(self.body)


def _priority(compiled: CompiledRule) -> tuple[int, int]:
    """Sort key: most octets first, Allow before Disallow on ties."""
    return (-compiled.specificity, 0 if compiled.is_allow else 1)


#: Shared default-allow result for paths no rule matches.
_DEFAULT_ALLOW = MatchResult(allowed=True, rule=None)

#: Rule count at which first-segment bucketing activates.  Small rule
#: sets scan faster than they dict-lookup; thousand-rule corpora are
#: where skipping non-candidate rules pays.
BUCKET_THRESHOLD = 16


def _bucket_key(compiled: CompiledRule) -> str | None:
    """The first literal path segment this rule can match, if provable.

    A rule may be bucketed only when every path it matches is known to
    share one exact first segment:

    - its literal prefix contains a *complete* first segment (a second
      ``/`` appears inside the prefix), or
    - it is an anchored literal (whole-path equality), whose single
      segment is the rest of the body.

    Everything else — prefixes without a terminating slash (``/foo``
    also matches ``/foobar/x``), patterns with a wildcard inside the
    first segment, patterns not starting with ``/`` — stays in the
    generic bucket, checked for every path.  Conservative by
    construction: a bucketed rule is *skipped* only for paths whose
    first segment provably differs.
    """
    prefix = compiled.prefix
    if not prefix.startswith("/"):
        return None
    slash = prefix.find("/", 1)
    if slash >= 0:
        return prefix[1:slash]
    if compiled.regex is None and compiled.anchored:
        return prefix[1:]
    return None


def _first_segment(path: str) -> str:
    """First path segment of a normalized request path."""
    start = 1 if path.startswith("/") else 0
    end = path.find("/", start)
    return path[start:] if end < 0 else path[start:end]


class CompiledRuleSet:
    """An ordered, pre-compiled rule list with first-match evaluation.

    Rules are sorted by :func:`_priority` (stable, so original order
    breaks any remaining ties exactly as the legacy scan's
    first-strict-improvement bookkeeping does); evaluation early-exits
    on the first match, which is by construction the most-specific
    match with the Allow tie-break applied.

    The evaluation loop runs over ``_table`` — a flat tuple of
    ``(prefix, body_or_none, regex, result)`` rows — rather than the
    :class:`CompiledRule` objects, so the per-rule cost is a tuple
    unpack plus one string/regex primitive, with no attribute or
    method dispatch and no per-match allocation (each rule's
    :class:`~repro.robots.matcher.MatchResult` is prebuilt).

    At :data:`BUCKET_THRESHOLD` rules and above, rules whose match set
    provably shares one first path segment (see :func:`_bucket_key`)
    are additionally indexed by that segment: evaluation looks up the
    request path's first segment and scans only that bucket's rules
    merged (in priority order) with the generic bucket, so thousand-
    rule corpora skip non-candidate rules before any ``startswith`` or
    regex runs.  Bucketing never changes verdicts — each bucket table
    is a priority-ordered superset of the rules that can match its
    paths, and paths without a bucket fall back to the generic table.
    """

    __slots__ = ("rules", "_table", "_buckets", "_generic")

    def __init__(
        self, rules: Iterable[Rule], bucket_threshold: int | None = None
    ) -> None:
        threshold = (
            BUCKET_THRESHOLD if bucket_threshold is None else bucket_threshold
        )
        compiled = [
            CompiledRule.compile(rule) for rule in rules if not rule.is_empty
        ]
        compiled.sort(key=_priority)
        self.rules: tuple[CompiledRule, ...] = tuple(compiled)
        # Row layout: (prefix, exact_body_or_None, regex, result).
        # exact_body is only set for anchored literal rules (whole-path
        # equality); prefix carries the startswith test for everything
        # else and the regex prefilter for wildcard rules.
        self._table = tuple(
            (
                entry.prefix,
                entry.body if entry.anchored and entry.regex is None else None,
                entry.regex,
                entry.result,
            )
            for entry in compiled
        )
        self._buckets: dict[str, tuple] | None = None
        self._generic: tuple = ()
        keyed: dict[str, list[int]] = {}
        generic: list[int] = []
        for position, entry in enumerate(compiled):
            key = _bucket_key(entry)
            if key is None:
                generic.append(position)
            else:
                keyed.setdefault(key, []).append(position)
        if len(compiled) >= threshold and keyed:
            table = self._table
            self._generic = tuple(table[i] for i in generic)
            self._buckets = {
                key: tuple(
                    table[i] for i in sorted(positions + generic)
                )
                for key, positions in keyed.items()
            }

    def __len__(self) -> int:
        return len(self.rules)

    def first_match_normalized(
        self, normalized_path: str
    ) -> MatchResult | None:
        """The winning rule's prebuilt result, ``None`` if no rule
        matches.  The hot inner loop: callers pass an
        already-normalized path and no object is constructed."""
        table = self._table
        buckets = self._buckets
        if buckets is not None:
            table = buckets.get(_first_segment(normalized_path), self._generic)
        startswith = normalized_path.startswith
        for prefix, exact, regex, result in table:
            if regex is not None:
                if startswith(prefix) and regex.match(normalized_path):
                    return result
            elif exact is not None:
                if normalized_path == exact:
                    return result
            elif startswith(prefix):
                return result
        return None

    def allows_normalized(self, normalized_path: str) -> bool:
        """Boolean verdict for an already-normalized path."""
        winner = self.first_match_normalized(normalized_path)
        return True if winner is None else winner.allowed

    def decide_normalized(self, normalized_path: str) -> MatchResult:
        """Match an already-normalized path (the batch inner loop)."""
        winner = self.first_match_normalized(normalized_path)
        return _DEFAULT_ALLOW if winner is None else winner

    def decide(self, path: str) -> MatchResult:
        """Match a raw request path (normalized exactly once)."""
        return self.decide_normalized(normalize_path(path))

    def allows(self, path: str) -> bool:
        return self.allows_normalized(normalize_path(path))


#: Sentinel rule set for agents no group governs (default allow).
_EMPTY_RULESET = CompiledRuleSet(())


@dataclass
class CompiledPolicy:
    """Compiled access policy for one origin.

    Mirrors :class:`~repro.robots.policy.RobotsPolicy` semantics —
    including the always-fetchable ``/robots.txt`` carve-out and the
    RFC 9309 fetch-failure dispositions — while memoizing one
    :class:`CompiledRuleSet` and one crawl delay per user-agent token
    (the wrapped :class:`RobotsFile` is never mutated).  The rule-set
    memo is keyed by the resolved group set, so ``GPTBot`` and
    ``ClaudeBot`` falling through to the same catch-all group share one
    compilation.
    """

    robots: RobotsFile | None = None
    forced_allow: bool | None = None
    _by_token: dict[str, tuple[CompiledRuleSet, tuple[str, ...]]] = field(
        default_factory=dict, repr=False
    )
    _by_groups: dict[tuple[int, ...], CompiledRuleSet] = field(
        default_factory=dict, repr=False
    )
    # Made on the first crawl_delay call: most policies are never asked.
    _delay_by_token: dict[str, float | None] | None = field(default=None, repr=False)

    # -- compilation -------------------------------------------------

    def ruleset_for(self, user_agent: str) -> tuple[CompiledRuleSet, tuple[str, ...]]:
        """The compiled rule set governing ``user_agent`` plus the
        agent tokens of its governing groups (for explanations)."""
        cached = self._by_token.get(user_agent)
        if cached is not None:
            return cached
        if self.robots is None:
            entry = (_EMPTY_RULESET, ())
        else:
            groups = self.robots.matching_groups(user_agent)
            entry = (self._compile_groups(groups), _group_agents(groups))
        self._by_token[user_agent] = entry
        return entry

    def crawl_delay(self, user_agent: str) -> float | None:
        """Crawl delay of the first governing group that sets one,
        resolved once per user-agent token."""
        if self._delay_by_token is None:
            self._delay_by_token = {}
        elif user_agent in self._delay_by_token:
            return self._delay_by_token[user_agent]
        delay = None
        if self.robots is not None:
            for group in self.robots.matching_groups(user_agent):
                if group.crawl_delay is not None:
                    delay = group.crawl_delay
                    break
        self._delay_by_token[user_agent] = delay
        return delay

    def _compile_groups(self, groups: Sequence[Group]) -> CompiledRuleSet:
        assert self.robots is not None
        selected = {id(group) for group in groups}
        key = tuple(
            index
            for index, group in enumerate(self.robots.groups)
            if id(group) in selected
        )
        ruleset = self._by_groups.get(key)
        if ruleset is None:
            ruleset = CompiledRuleSet(
                rule for group in groups for rule in group.rules
            )
            self._by_groups[key] = ruleset
        return ruleset

    # -- single-shot queries ----------------------------------------

    def can_fetch(self, user_agent: str, path: str) -> bool:
        """Boolean access check (the hot path: no decision object)."""
        if path.startswith(ROBOTS_PATH):
            return True
        if self.forced_allow is not None:
            return self.forced_allow
        ruleset, _ = self.ruleset_for(user_agent)
        return ruleset.allows_normalized(normalize_path(path))

    # -- batch queries ----------------------------------------------

    def can_fetch_many(
        self, user_agent: str, paths: Sequence[str]
    ) -> list[bool]:
        """Access verdicts for many paths of one agent.

        The rule set is resolved once and each path normalized once;
        results align with ``paths``.
        """
        if self.forced_allow is not None:
            forced = self.forced_allow
            return [
                True if path.startswith(ROBOTS_PATH) else forced
                for path in paths
            ]
        ruleset, _ = self.ruleset_for(user_agent)
        allows = ruleset.allows_normalized
        return [
            path.startswith(ROBOTS_PATH) or allows(normalize_path(path))
            for path in paths
        ]

    def probe_matrix(
        self, agents: Sequence[str], paths: Sequence[str]
    ) -> list[list[bool]]:
        """Verdict rows per agent over a shared path probe set.

        Paths are normalized once and reused across every agent row;
        row ``i`` aligns with ``agents[i]``, column ``j`` with
        ``paths[j]``.  Agents resolving to the same memoized rule set
        (e.g. everyone under the catch-all group) share one evaluated
        row, so a 9-agent probe over a two-group file costs two rule
        sweeps, not nine.
        """
        robots_flags = [path.startswith(ROBOTS_PATH) for path in paths]
        if self.forced_allow is not None:
            forced = self.forced_allow
            row = [flag or forced for flag in robots_flags]
            return [list(row) for _ in agents]
        normalized = [normalize_path(path) for path in paths]
        matrix: list[list[bool]] = []
        row_cache: dict[int, list[bool]] = {}
        for agent in agents:
            ruleset, _ = self.ruleset_for(agent)
            row = row_cache.get(id(ruleset))
            if row is None:
                allows = ruleset.allows_normalized
                row = [
                    flag or allows(norm)
                    for flag, norm in zip(robots_flags, normalized)
                ]
                row_cache[id(ruleset)] = row
            matrix.append(list(row))
        return matrix


def _group_agents(groups: Sequence[Group]) -> tuple[str, ...]:
    return tuple(agent for group in groups for agent in group.user_agents)
