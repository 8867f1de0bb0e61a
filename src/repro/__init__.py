"""repro: reproduction of "Scrapers Selectively Respect robots.txt
Directives: Evidence From a Large-Scale Empirical Study" (IMC 2025).

The package provides, as importable layers:

- :mod:`repro.robots` — a full RFC 9309 robots.txt engine (parser,
  matcher, builder, validator, cache, fetch-failure semantics);
- :mod:`repro.uaparse` — a known-bot registry that identifies
  User-Agent values by regex, and the Dark Visitors category taxonomy;
- :mod:`repro.asn` — ASN registry and whois-style enrichment;
- :mod:`repro.web` — an in-memory web substrate (sites + server);
- :mod:`repro.bots` — a calibrated population of crawler agents;
- :mod:`repro.simulation` — the study simulator producing access logs;
- :mod:`repro.logs` — log schema, IO, preprocessing, sessionization;
- :mod:`repro.analysis` — the paper's compliance metrics and tests;
- :mod:`repro.pipeline` — the sharded, streaming analysis pipeline
  (Stage/Pipeline contract, site-sharded executor, record sources);
- :mod:`repro.reporting` — per-table/figure experiment drivers.

Quickstart::

    from repro import run_study, StudyAnalysis, run_experiment

    dataset = run_study(scale=0.02)
    analysis = StudyAnalysis(dataset)
    print(run_experiment("T5", analysis).rendered)

The top-level names resolve on first access (PEP 562): ``import
repro`` loads none of the layers above, and ``repro.run_study`` is
what imports the simulator (and numpy with it).
"""

from ._lazy import lazy_exports

_EXPORTS = {
    "Directive": ".analysis.compliance",
    "LogRecord": ".logs.schema",
    "RobotsObservatory": ".observatory",
    "RobotsPolicy": ".robots.policy",
    "RobotsVersion": ".robots.corpus",
    "StudyAnalysis": ".reporting.study",
    "StudyDataset": ".simulation.engine",
    "analyze": ".reporting.study",
    "default_scenario": ".simulation.scenario",
    "diff_robots": ".robots.diff",
    "parse": ".robots.parser",
    "render_scorecard": ".reporting.scorecard",
    "run_all": ".reporting.experiments",
    "run_experiment": ".reporting.experiments",
    "run_study": ".simulation.engine",
    "sessionize": ".logs.sessionize",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    "Directive",
    "LogRecord",
    "RobotsObservatory",
    "RobotsPolicy",
    "RobotsVersion",
    "StudyAnalysis",
    "StudyDataset",
    "analyze",
    "default_scenario",
    "diff_robots",
    "parse",
    "render_scorecard",
    "run_all",
    "run_experiment",
    "run_study",
    "sessionize",
    "__version__",
]
