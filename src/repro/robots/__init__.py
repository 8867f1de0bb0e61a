"""RFC 9309 robots.txt engine.

The public surface of this package:

- :func:`parse` / :func:`parse_bytes` — text -> :class:`RobotsFile`;
- :class:`RobotsPolicy` — the access-decision API crawlers consult
  (single-shot and batch, backed by the compiled engine);
- :class:`CompiledPolicy` / :class:`CompiledRuleSet` — the
  normalize-once, sort-once, early-exit evaluation engine
  (:mod:`~repro.robots.compiled`);
- :class:`RobotsBuilder` — programmatic document construction;
- :func:`validate` / :func:`is_valid` — linting;
- :class:`RobotsCache` — TTL caching as real crawlers do it;
- :mod:`~repro.robots.corpus` — the paper's four experiment files.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "RobotsBuilder": ".builder",
    "DEFAULT_TTL_SECONDS": ".cache",
    "RobotsCache": ".cache",
    "CompiledPolicy": ".compiled",
    "CompiledRule": ".compiled",
    "CompiledRuleSet": ".compiled",
    "EXEMPT_SEO_BOTS": ".corpus",
    "RobotsVersion": ".corpus",
    "all_versions": ".corpus",
    "build_version": ".corpus",
    "policy_for_version": ".corpus",
    "render_version": ".corpus",
    "AccessChange": ".diff",
    "AccessDelta": ".diff",
    "RobotsDiff": ".diff",
    "diff_policies": ".diff",
    "diff_robots": ".diff",
    "render_diff": ".diff",
    "FetchDisposition": ".fetchstate",
    "RobotsFetchResult": ".fetchstate",
    "classify_status": ".fetchstate",
    "resolve_fetch": ".fetchstate",
    "evaluate_rules": ".matcher",
    "pattern_matches": ".matcher",
    "pattern_specificity": ".matcher",
    "Group": ".model",
    "RobotsFile": ".model",
    "Rule": ".model",
    "RuleType": ".model",
    "DEFAULT_MAX_BYTES": ".parser",
    "ParserOptions": ".parser",
    "parse": ".parser",
    "parse_bytes": ".parser",
    "AccessDecision": ".policy",
    "RobotsPolicy": ".policy",
    "Finding": ".validator",
    "Severity": ".validator",
    "is_valid": ".validator",
    "validate": ".validator",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AccessChange",
    "AccessDecision",
    "AccessDelta",
    "CompiledPolicy",
    "CompiledRule",
    "CompiledRuleSet",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_TTL_SECONDS",
    "EXEMPT_SEO_BOTS",
    "RobotsDiff",
    "diff_policies",
    "diff_robots",
    "render_diff",
    "FetchDisposition",
    "Finding",
    "Group",
    "ParserOptions",
    "RobotsBuilder",
    "RobotsCache",
    "RobotsFetchResult",
    "RobotsFile",
    "RobotsPolicy",
    "RobotsVersion",
    "Rule",
    "RuleType",
    "Severity",
    "all_versions",
    "build_version",
    "classify_status",
    "evaluate_rules",
    "is_valid",
    "parse",
    "parse_bytes",
    "pattern_matches",
    "pattern_specificity",
    "policy_for_version",
    "render_version",
    "resolve_fetch",
    "validate",
]
