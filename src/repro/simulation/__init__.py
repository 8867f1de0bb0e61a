"""Simulation: clock, anonymization, scenario, noise, engine."""

from .._lazy import lazy_exports

_EXPORTS = {
    "SECONDS_PER_DAY": ".clock",
    "add_days": ".clock",
    "day_range": ".clock",
    "days_between": ".clock",
    "epoch": ".clock",
    "iso_day": ".clock",
    "SimulationEngine": ".engine",
    "StudyDataset": ".engine",
    "run_study": ".engine",
    "ObservedGateway": ".hooks",
    "RequestObservation": ".hooks",
    "IpAnonymizer": ".iphash",
    "generate_ip_pool": ".iphash",
    "NoiseModel": ".noise",
    "Phase": ".scenario",
    "StudyScenario": ".scenario",
    "default_scenario": ".scenario",
    "quick_scenario": ".scenario",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "IpAnonymizer",
    "NoiseModel",
    "ObservedGateway",
    "Phase",
    "RequestObservation",
    "SECONDS_PER_DAY",
    "SimulationEngine",
    "StudyDataset",
    "StudyScenario",
    "add_days",
    "day_range",
    "days_between",
    "default_scenario",
    "epoch",
    "generate_ip_pool",
    "iso_day",
    "quick_scenario",
    "run_study",
]
