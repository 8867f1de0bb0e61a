"""TTL blocklists and an escalation rule.

The paper notes IP blocking is easily recycled around via VPNs; the
blocklist here therefore supports ASN- and UA-level entries too, plus
an escalation rule that converts repeated throttling into temporary
blocks (the pattern real WAFs apply).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BlockEntry:
    """One active block."""

    reason: str
    expires_at: float  # inf for permanent


@dataclass
class Blocklist:
    """TTL blocklist over IPs, ASNs and user agents."""

    _ips: dict[str, BlockEntry] = field(default_factory=dict, repr=False)
    _asns: dict[int, BlockEntry] = field(default_factory=dict, repr=False)
    _agents: dict[str, BlockEntry] = field(default_factory=dict, repr=False)
    blocked_requests: int = 0

    # -- management -----------------------------------------------------

    def block_ip(self, ip: str, now: float, ttl: float | None = None, reason: str = "") -> None:
        self._ips[ip] = _entry(now, ttl, reason)

    def block_asn(self, asn: int, now: float, ttl: float | None = None, reason: str = "") -> None:
        self._asns[asn] = _entry(now, ttl, reason)

    def block_agent(self, user_agent_fragment: str, now: float, ttl: float | None = None, reason: str = "") -> None:
        self._agents[user_agent_fragment.lower()] = _entry(now, ttl, reason)

    def unblock_ip(self, ip: str) -> None:
        self._ips.pop(ip, None)

    # -- checking ----------------------------------------------------------

    def is_blocked(self, ip: str, asn: int, user_agent: str, now: float) -> str | None:
        """Reason string when blocked, else ``None`` (expired entries
        are purged on the way)."""
        entry = self._check(self._ips, ip, now)
        if entry is None:
            entry = self._check(self._asns, asn, now)
        if entry is None:
            lowered = user_agent.lower()
            for fragment, agent_entry in list(self._agents.items()):
                if agent_entry.expires_at <= now:
                    del self._agents[fragment]
                elif fragment in lowered:
                    entry = agent_entry
                    break
        if entry is None:
            return None
        self.blocked_requests += 1
        return entry.reason or "blocked"

    def _check(self, table: dict, key, now: float) -> BlockEntry | None:
        entry = table.get(key)
        if entry is None:
            return None
        if entry.expires_at <= now:
            del table[key]
            return None
        return entry


def _entry(now: float, ttl: float | None, reason: str) -> BlockEntry:
    expires = float("inf") if ttl is None else now + ttl
    return BlockEntry(reason=reason, expires_at=expires)


@dataclass
class EscalationRule:
    """Escalate repeated throttling into a temporary IP block.

    Args:
        strikes: throttle events before blocking.
        window_seconds: strikes must land within this window.
        block_ttl: duration of the resulting block.
    """

    strikes: int = 10
    window_seconds: float = 600.0
    block_ttl: float = 3600.0
    _history: dict[str, list[float]] = field(default_factory=dict, repr=False)
    escalations: int = 0

    def record_throttle(self, ip: str, now: float, blocklist: Blocklist) -> bool:
        """Register a throttle event; returns True if ``ip`` got blocked."""
        history = self._history.setdefault(ip, [])
        history.append(now)
        cutoff = now - self.window_seconds
        while history and history[0] < cutoff:
            history.pop(0)
        if len(history) >= self.strikes:
            blocklist.block_ip(
                ip, now, ttl=self.block_ttl, reason="rate-limit escalation"
            )
            history.clear()
            self.escalations += 1
            return True
        return False
