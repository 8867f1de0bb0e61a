"""Tests for the package's public API surface."""

import importlib
import inspect

import pytest

import repro


class TestTopLevelApi:
    def test_version_string(self):
        major, *_ = repro.__version__.split(".")
        assert major.isdigit()

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_path_works(self):
        """The README's three-line quickstart must execute as written."""
        dataset = repro.run_study(scale=0.003, seed=1)
        analysis = repro.StudyAnalysis(dataset)
        result = repro.run_experiment("T4", analysis)
        assert "Table 4" in result.rendered

    def test_robots_policy_reachable(self):
        policy = repro.RobotsPolicy.from_text("User-agent: *\nDisallow: /x\n")
        assert not policy.can_fetch("bot", "/x/y")

    def test_diff_reachable(self):
        diff = repro.diff_robots(
            "User-agent: *\nAllow: /\n", "User-agent: *\nDisallow: /\n"
        )
        assert diff.is_stricter

    def test_observatory_reachable(self):
        observatory = repro.RobotsObservatory()
        observatory.record("s", 0.0, "User-agent: *\nAllow: /\n")
        assert observatory.latest("s") is not None

    def test_subpackages_import_cleanly(self):
        import repro.analysis
        import repro.asn
        import repro.bots
        import repro.deterrence
        import repro.logs
        import repro.reporting
        import repro.robots
        import repro.simulation
        import repro.uaparse
        import repro.web

        assert repro.analysis.Directive is repro.Directive


LAZY_PACKAGES = [
    "repro",
    "repro.simulation",
    "repro.web",
    "repro.bots",
    "repro.scenarios",
    "repro.pipeline",
    "repro.logs",
    "repro.analysis",
    "repro.robots",
    "repro.reporting",
    "repro.uaparse",
    "repro.asn",
    "repro.deterrence",
    "repro.service",
    "repro.distributed",
]


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
class TestLazyExports:
    """The PEP 562 exports behave like the eager imports they replace."""

    def test_names_are_the_defining_submodules_objects(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            if name == "__version__":
                continue
            module = importlib.import_module(package._EXPORTS[name], package_name)
            # Through the lazy hook even when an earlier access cached it.
            assert package.__getattr__(name) is getattr(module, name), name
            assert getattr(package, name) is getattr(module, name), name
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name

    def test_star_import_binds_every_name(self, package_name):
        namespace: dict = {}
        exec(f"from {package_name} import *", namespace)
        package = importlib.import_module(package_name)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name), name

    def test_dir_lists_all(self, package_name):
        package = importlib.import_module(package_name)
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_is_an_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export
        assert not hasattr(package, "no_such_export")
