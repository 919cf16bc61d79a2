"""Shared fixtures: the invariant registry's lattice matrix and the frozen seed list."""
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
