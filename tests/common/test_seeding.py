"""Unit tests for repro.common.seeding."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.seeding import SeedSequenceFactory, spawn_generator


class TestSpawnGenerator:
    def test_seeded_generators_are_reproducible(self):
        a = spawn_generator(7).random(5)
        b = spawn_generator(7).random(5)
        assert np.array_equal(a, b)

    def test_unseeded_generator_works(self):
        assert 0.0 <= spawn_generator().random() < 1.0


class TestSeedSequenceFactory:
    def test_same_name_same_stream(self):
        factory = SeedSequenceFactory(42)
        a = factory.generator("workload").random(10)
        b = factory.generator("workload").random(10)
        assert np.array_equal(a, b)

    def test_different_names_different_streams(self):
        factory = SeedSequenceFactory(42)
        a = factory.generator("alpha").random(10)
        b = factory.generator("beta").random(10)
        assert not np.array_equal(a, b)

    def test_different_roots_different_streams(self):
        a = SeedSequenceFactory(1).generator("x").random(10)
        b = SeedSequenceFactory(2).generator("x").random(10)
        assert not np.array_equal(a, b)

    def test_streams_stable_across_creation_order(self):
        # Requesting extra streams first must not perturb existing ones.
        f1 = SeedSequenceFactory(42)
        direct = f1.generator("target").random(5)
        f2 = SeedSequenceFactory(42)
        f2.generator("other-1")
        f2.generator("other-2")
        indirect = f2.generator("target").random(5)
        assert np.array_equal(direct, indirect)

    def test_rejects_bad_root_seed(self):
        with pytest.raises(ConfigurationError):
            SeedSequenceFactory("42")
        with pytest.raises(ConfigurationError):
            SeedSequenceFactory(True)

    @pytest.mark.parametrize("seed", [-1, -5, np.int64(-2)])
    def test_rejects_negative_root_seed(self, seed):
        with pytest.raises(ConfigurationError, match="root_seed must be >= 0"):
            SeedSequenceFactory(seed)

    def test_accepts_root_seed_zero(self):
        assert SeedSequenceFactory(0).root_seed == 0

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            SeedSequenceFactory(1).generator("")

    def test_issued_streams_audit(self):
        factory = SeedSequenceFactory(1)
        factory.generator("a")
        factory.generator("b")
        assert set(factory.issued_streams()) == {"a", "b"}

    def test_root_seed_property(self):
        assert SeedSequenceFactory(99).root_seed == 99
