"""Public-API surface checks.

Every name a subpackage exports via ``__all__`` must resolve, and the
load-bearing entry points must stay importable from the documented
locations — guards against export drift as modules evolve.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.common",
    "repro.simulation",
    "repro.bayes",
    "repro.services",
    "repro.core",
    "repro.experiments",
    "repro.analysis",
    "repro.services.aio",
    "repro.store",
    "repro.obs",
    "repro.runtime",
    "repro.pipeline",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_entries_unique(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    assert len(exported) == len(set(exported))


def test_documented_quickstart_imports():
    # The README/tutorial import paths.
    from repro.bayes import (  # noqa: F401
        GridSpec,
        JointCounts,
        TruncatedBeta,
        WhiteBoxAssessor,
        WhiteBoxPrior,
        plan_managed_upgrade,
    )
    from repro.core import (  # noqa: F401
        CriterionOne,
        CriterionThree,
        CriterionTwo,
        ManagementSubsystem,
        MonitoringSubsystem,
        UpgradeController,
        UpgradeMiddleware,
        upgrade_report,
    )
    from repro.services import (  # noqa: F401
        RequestMessage,
        ServiceEndpoint,
        UddiRegistry,
        default_wsdl,
    )
    from repro.simulation import Exponential, Simulator  # noqa: F401


def test_version_is_set():
    import repro

    assert repro.__version__ == "1.0.0"


def test_cli_entry_point_resolves():
    from repro.experiments.cli import main  # noqa: F401

    assert callable(main)
