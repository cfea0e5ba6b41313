"""Shared fixtures and Hypothesis settings for the test suite."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings

from repro.bayes.beta import TruncatedBeta
from repro.bayes.priors import GridSpec, WhiteBoxPrior
from repro.common.seeding import SeedSequenceFactory

#: Property tests draw the same examples on every run and keep no
#: example database, so a Tier-1 result is reproducible.  CI sets
#: ``HYPOTHESIS_PROFILE=randomized`` in one step that runs the property
#: tests again on fresh examples.  Hypothesis's own caches (constants
#: read from the code under test, unicode tables) are written while test
#: modules are collected, so their directory is set here, outside the
#: checkout, before any test module is imported.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY",
    os.path.join(tempfile.gettempdir(), "repro-hypothesis"),
)
settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("randomized", derandomize=False, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the on-disk result cache at a per-test directory.

    Keeps the suite from reading or polluting the user's real cache
    (``~/.cache/repro-dsn2004``) through CLI/report code paths that
    enable caching by default.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def rng():
    """A deterministic generator for stochastic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def seeds():
    """A seed factory rooted at a fixed seed."""
    return SeedSequenceFactory(12345)


@pytest.fixture
def small_grid():
    """A coarse posterior grid adequate for unit-level assertions."""
    return GridSpec(48, 48, 16)


@pytest.fixture
def scenario1_prior():
    """The paper's Scenario 1 white-box prior."""
    return WhiteBoxPrior(
        TruncatedBeta(20, 20, upper=0.002),
        TruncatedBeta(2, 3, upper=0.002),
    )
