"""Bot population: behaviour model, calibrated profiles, agents."""

from .._lazy import lazy_exports

_EXPORTS = {
    "BotAgent": ".agent",
    "agent_seed": ".agent",
    "AdversarialTraits": ".behavior",
    "BotProfile": ".behavior",
    "CheckPolicy": ".behavior",
    "ComplianceProfile": ".behavior",
    "NEVER_CHECKS": ".behavior",
    "ROTATION_UA_POOL": ".profiles",
    "adversarial_profiles": ".profiles",
    "build_profiles": ".profiles",
    "paper_profiles": ".profiles",
    "profile_by_name": ".profiles",
    "SPOOF_COMPLIANCE_OVERRIDES": ".spoofer",
    "SPOOF_DEFAULT_COMPLIANCE": ".spoofer",
    "build_spoof_agents": ".spoofer",
    "spoof_compliance_for": ".spoofer",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AdversarialTraits",
    "BotAgent",
    "BotProfile",
    "ROTATION_UA_POOL",
    "adversarial_profiles",
    "CheckPolicy",
    "ComplianceProfile",
    "NEVER_CHECKS",
    "SPOOF_COMPLIANCE_OVERRIDES",
    "SPOOF_DEFAULT_COMPLIANCE",
    "agent_seed",
    "build_profiles",
    "build_spoof_agents",
    "paper_profiles",
    "profile_by_name",
    "spoof_compliance_for",
]
