"""Deterministic random-stream management.

Every stochastic component of the library draws from its own
``numpy.random.Generator``.  A :class:`SeedSequenceFactory` hands out
independent child streams from one root seed so that

* a whole experiment is reproducible from a single integer, and
* adding a new consumer of randomness does not perturb the draws seen by
  existing consumers (streams are keyed by name, not by creation order).
"""

from typing import Dict, Optional

import numpy as np

from repro.common.errors import ConfigurationError

#: Root seed used by components whose caller supplied no generator
#: (``SimulatedTransport``, ``PoissonWorkload``, ``SimulatedAcceptanceTest``).
#: A *fixed* fallback keeps even exploratory, no-arguments usage
#: reproducible — an OS-entropy default would be exactly the silent
#: nondeterminism repro.lint rule REPRO101 exists to ban.
DEFAULT_COMPONENT_SEED = 0


def spawn_generator(seed: Optional[int] = None) -> np.random.Generator:
    """Return a fresh :class:`numpy.random.Generator` for *seed*.

    ``None`` yields OS-entropy seeding, which is appropriate only for
    exploratory use; all experiment entry points pass explicit seeds,
    and library components default to :data:`DEFAULT_COMPONENT_SEED`
    rather than ``None``.
    """
    return np.random.default_rng(seed)


class SeedSequenceFactory:
    """Derive named, independent random streams from one root seed.

    Streams are derived with ``numpy.random.SeedSequence(root, spawn_key)``
    where the spawn key is a stable hash of the stream name.  Requesting the
    same name twice returns generators with identical state histories, which
    the test suite relies on.  The root seed must be an integer >= 0 (a
    seed sequence takes no negative entropy); anything else is a
    :class:`~repro.common.errors.ConfigurationError`.

    Example
    -------
    >>> factory = SeedSequenceFactory(42)
    >>> workload_rng = factory.generator("workload")
    >>> release_rng = factory.generator("release/1.1")
    """

    def __init__(self, root_seed: int):
        if not isinstance(root_seed, (int, np.integer)) or isinstance(
            root_seed, bool
        ):
            raise ConfigurationError(
                f"root_seed must be an integer, got {root_seed!r}"
            )
        if root_seed < 0:
            raise ConfigurationError(
                f"root_seed must be >= 0, got {root_seed!r}"
            )
        self._root_seed = int(root_seed)
        self._issued: Dict[str, int] = {}

    @property
    def root_seed(self) -> int:
        """The root seed this factory was created with."""
        return self._root_seed

    def _key_for(self, name: str) -> int:
        # A stable, platform-independent 63-bit key derived from the name.
        # (Python's built-in hash() is salted per process, so roll our own.)
        key = 0
        for ch in name:
            key = (key * 1000003 + ord(ch)) & 0x7FFFFFFFFFFFFFFF
        return key

    def seed_sequence(self, name: str) -> np.random.SeedSequence:
        """Return the :class:`numpy.random.SeedSequence` for stream *name*."""
        if not name:
            raise ConfigurationError("stream name must be non-empty")
        key = self._key_for(name)
        self._issued[name] = key
        return np.random.SeedSequence(self._root_seed, spawn_key=(key,))

    def generator(self, name: str) -> np.random.Generator:
        """Return a generator for the independent stream called *name*."""
        return np.random.default_rng(self.seed_sequence(name))

    def child_seed(self, name: str) -> int:
        """A derived integer root seed for an independent child cell.

        The parallel experiment runtime gives every grid cell its own
        root seed, derived deterministically from (root seed, cell name).
        A cell seeded this way is reproducible in isolation — the same
        cell re-run alone, inline, or in any worker of a process pool
        draws identical streams.  The value is a stable 63-bit integer
        (platform-independent, like the stream keys).
        """
        state = self.seed_sequence(name).generate_state(1, dtype=np.uint64)
        return int(state[0] & 0x7FFFFFFFFFFFFFFF)

    def issued_streams(self) -> Dict[str, int]:
        """Mapping of stream names to spawn keys issued so far (for audit)."""
        return dict(self._issued)
