"""The shift kernel and every shift sum built on it, against the loop oracles.

Runs over every subgroup for N in {4, 6, 8, 9, 12} plus sheared lattices at
N in {48, 96}, at 1e-12 relative to the largest oracle entry.
"""
import numpy as np

from ncgabor import (
    CoeffSeq,
    GaborSystem,
    TFPoint,
    act_left,
    act_right,
    adjoint_lattice,
    coefficients_of,
    random_signal,
    reconstruct,
    represent,
    right_operator,
    shift_matrix,
    tf_shift,
)
from ncgabor.core import _shifted
from ncgabor.frames import _system_columns
import oracles
from oracles import oracle_cases

REL = 1e-12


def assert_close(got, expect):
    assert got.shape == expect.shape
    assert np.abs(got - expect).max() <= REL * max(1.0, np.abs(expect).max())


def rand_seq(lat, rng):
    return CoeffSeq(lat, rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size))


def test_shifted_matches_loop_oracle(rng):
    for lat in oracle_cases():
        pts = lat.as_array()
        g = random_signal(lat.n, rng)
        assert_close(_shifted(pts, g.values), oracles.shifted(pts, g.values))
        assert_close(_shifted(-pts, g.values), oracles.shifted(-pts, g.values))
        # several windows stack along the leading axis
        h = random_signal(lat.n, rng)
        both = _shifted(pts, np.stack([g.values, h.values]))
        assert_close(both[1], oracles.shifted(pts, h.values))
        k, l = (int(x) for x in rng.integers(lat.n, size=2))
        assert_close(tf_shift(TFPoint(lat.n, k, l), g).values, oracles.shift(k, l, g.values))
        assert_close(shift_matrix(TFPoint(lat.n, k, l)), oracles.shift_matrix(k, l, lat.n))


def test_system_columns_and_reconstruct_match_loop_oracles(rng):
    for lat in oracle_cases():
        sys = GaborSystem((random_signal(lat.n, rng), random_signal(lat.n, rng)), lat)
        assert_close(_system_columns(sys), oracles.system_columns(sys))
        f = random_signal(lat.n, rng)
        duals = [random_signal(lat.n, rng), random_signal(lat.n, rng)]
        assert_close(reconstruct(f, sys, duals).values, oracles.reconstruct(f, sys, duals))


def test_module_actions_match_loop_oracles(rng):
    for lat in oracle_cases():
        adj = adjoint_lattice(lat)
        g = random_signal(lat.n, rng)
        a, b = rand_seq(lat, rng), rand_seq(adj, rng)
        assert_close(act_left(a, g).values, oracles.act_left(a, g))
        assert_close(act_right(g, b, lat).values, oracles.act_right(g, b))
        assert_close(right_operator(b).entries, oracles.right_operator(b))


def test_represent_and_coefficients_of_match_loop_oracles(rng):
    for lat in oracle_cases():
        a = rand_seq(lat, rng)
        assert_close(represent(a).entries, oracles.represent(a))
        mat = rng.standard_normal((lat.n, lat.n)) + 1j * rng.standard_normal((lat.n, lat.n))
        seq, residual = coefficients_of(mat, lat)
        assert_close(seq.coeffs, oracles.coefficients_of(mat, lat))
        expect = np.linalg.norm(mat - oracles.represent(seq))
        assert abs(residual - expect) <= REL * np.linalg.norm(mat)
