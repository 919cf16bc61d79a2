"""Shared fixtures: the invariant registry's lattice matrix, the frozen seed
list and the allocation tracer of the memory pins."""
import tracemalloc

import numpy as np
import pytest

from ncgabor import lattice_from_generators
from ncgabor.selftest import LATTICE_MATRIX

# Fixed seeds: every randomized check draws from these, so failures replay.
SEEDS = (101, 202, 303, 404, 505)


def matrix_lattices(max_n: int = 24):
    return [lattice_from_generators(n, gens) for n, gens in LATTICE_MATRIX if n <= max_n]


@pytest.fixture
def rng():
    return np.random.default_rng(SEEDS[0])


@pytest.fixture
def lattices():
    return matrix_lattices()


class traced_memory:
    """Trace Python allocations in a with block.  On leaving it, `current` is
    the bytes still allocated at its end and `peak` the most held at once."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.current, self.peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
