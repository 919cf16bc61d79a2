"""The shift kernel and every shift sum built on it, against the loop oracles.

Runs over every subgroup for N in {4, 6, 8, 9, 12} plus sheared lattices at
N in {48, 96}, at 1e-12 relative to the largest oracle entry.  The fiber
routes of the frame computations (frame designs on the sectors of the frame
element, per-shift analysis, tiled synthesis) are checked against the dense
G G^H route with one and two windows, and those of the lattice algebra
(product, inversion, spectrum on the sectors of represent) against dense
matrix products, inverses, SVDs and eigenvalues of the loop-built shift sums.
The sectors themselves are pinned to the matrix bundle over the centre
L ∩ L°: for X = L and X = L°, with basis (a, s), (0, b) and M = N/a, they are
a*K sectors of size c x c with c^2 |L ∩ L°| = |X| and K = M/c, and in their
basis represent(x) acts on vectors as the sectors do.  Each lattice's cached
band index gathers the windows' translates to the fiber points bit for bit.
"""
import math

import numpy as np
import pytest

from ncgabor import (
    CoeffSeq,
    GaborSystem,
    NotAFrame,
    SingularElement,
    TFPoint,
    act_left,
    act_right,
    adjoint_lattice,
    analysis_coefficients,
    canonical_dual,
    canonical_tight,
    coefficients_of,
    frame_bounds,
    frame_operator,
    invert_in_algebra,
    random_signal,
    reconstruct,
    represent,
    right_operator,
    shift_matrix,
    spectrum,
    tf_shift,
    twisted_conv,
    unit,
)
from ncgabor.algebra import (
    INVERTIBILITY_TOL,
    _band_index,
    _coeffs_of_sectors,
    _fiber_points,
    _fiber_windows,
    _sector_vectors,
    _sectors,
    _vectors_of_sectors,
)
from ncgabor.core import _shifted, _translates
from ncgabor.frames import FRAME_DECISION_TOL
import oracles
from oracles import oracle_cases

REL = 1e-12


def assert_close(got, expect, rel=REL):
    assert got.shape == expect.shape
    assert np.abs(got - expect).max() <= rel * max(1.0, np.abs(expect).max())


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
        # translates by negative shifts and shifts >= N, one window and two
        ks = np.concatenate([pts[:, 0], -pts[:, 0] - 1, pts[:, 0] + lat.n, [-3 * lat.n - 1]])
        translates = np.stack([ks, np.zeros_like(ks)], axis=1)
        assert_close(_translates(ks, g.values), oracles.shifted(translates, g.values))
        assert_close(_translates(ks, np.stack([g.values, h.values]))[1],
                     oracles.shifted(translates, h.values))
        # the windows at the fiber points (i*a, i*s mod b), the first point per time shift
        fiber = pts[:: lat.n // lat.basis[2]]
        assert_close(_fiber_windows(lat, g.values), oracles.shifted(fiber, g.values))
        assert_close(_fiber_windows(lat, np.stack([g.values, h.values]))[1],
                     oracles.shifted(fiber, h.values))
        k, l = (int(x) for x in rng.integers(lat.n, size=2))
        assert_close(tf_shift(TFPoint(lat.n, k, l), g).values, oracles.shift(k, l, g.values))
        assert_close(shift_matrix(TFPoint(lat.n, k, l)), oracles.shift_matrix(k, l, lat.n))


def test_band_index_rows_are_the_fiber_translates(rng):
    # the cached index of represent and coefficients_of gathers the windows'
    # translates to the fiber points, the rows _fiber_windows takes
    for base in oracle_cases():
        for lat in (base, adjoint_lattice(base)):
            index = _band_index(lat)
            assert index.shape == (lat.n // lat.basis[0], lat.n)
            assert index.dtype == np.intp and not index.flags.writeable
            assert index is _band_index(lat)
            ks = _fiber_points(lat)[:, 0]
            g = np.stack([random_signal(lat.n, rng).values for _ in range(2)])
            for windows in (g[0], g):
                assert np.array_equal(windows[..., index], _translates(ks, windows))


def systems(lat, rng):
    for count in (1, 2):
        yield GaborSystem(tuple(random_signal(lat.n, rng) for _ in range(count)), lat)


def test_system_columns_and_reconstruct_match_loop_oracles(rng):
    for lat in oracle_cases():
        for sys in systems(lat, rng):
            assert_close(frame_operator(sys).entries, oracles.frame_operator(sys))
            f = random_signal(lat.n, rng)
            duals = [random_signal(lat.n, rng) for _ in sys.windows]
            assert_close(reconstruct(f, sys, duals).values, oracles.reconstruct(f, sys, duals))
            assert_close(
                analysis_coefficients(f, duals[-1], lat),
                oracles.analysis_coefficients(f, duals[-1], lat),
            )


def test_frame_designs_match_dense_oracle(rng):
    # bounds, verdict, dual and tight windows from the sectors against one eigh of G G^H;
    # both routes perturb S^power g by up to eps * (B/A)^|power|, so the window
    # tolerance scales with the frame's condition number
    for lat in oracle_cases():
        for sys in systems(lat, rng):
            eigs = np.linalg.eigvalsh(oracles.frame_operator(sys))
            bounds = frame_bounds(sys)
            assert abs(bounds.lower - eigs[0]) <= REL * eigs[-1]
            assert abs(bounds.upper - eigs[-1]) <= REL * eigs[-1]
            assert bounds.is_frame == (eigs[0] > FRAME_DECISION_TOL * eigs[-1])
            for design, power in ((canonical_dual, -1.0), (canonical_tight, -0.5)):
                if not bounds.is_frame:
                    with pytest.raises(NotAFrame):
                        design(sys)
                    continue
                got = np.stack([w.values for w in design(sys)])
                cond = (bounds.upper / bounds.lower) ** -power
                assert_close(got, oracles.frame_power(sys, power), REL * cond)


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


def test_algebra_fiber_routes_match_dense_oracles(rng):
    # the inverse is perturbed by up to eps * cond(A), so its tolerance scales with cond(A);
    # a - lambda * 1, lambda an eigenvalue of represent(a), is singular up to rounding
    for lat in oracle_cases():
        a, b = rand_seq(lat, rng), rand_seq(lat, rng)
        A, B = oracles.represent(a), oracles.represent(b)
        assert_close(twisted_conv(a, b).coeffs, oracles.coefficients_of(A @ B, lat))
        eigs = np.linalg.eigvals(A)
        assert_close(np.sort_complex(spectrum(a)), np.sort_complex(eigs))
        svals = np.linalg.svd(A, compute_uv=False)
        assert svals[-1] > INVERTIBILITY_TOL * svals[0]
        inverse = oracles.coefficients_of(np.linalg.inv(A), lat)
        assert_close(invert_in_algebra(a).coeffs, inverse, REL * svals[0] / svals[-1])
        singular = CoeffSeq(lat, a.coeffs - eigs[0] * unit(lat).coeffs)
        svals = np.linalg.svd(oracles.represent(singular), compute_uv=False)
        assert svals[-1] <= INVERTIBILITY_TOL * svals[0]
        with pytest.raises(SingularElement) as raised:
            invert_in_algebra(singular)
        assert raised.value.smallest_singular_value <= INVERTIBILITY_TOL * svals[0]


def test_sectors_are_the_matrix_bundle_over_the_centre(rng):
    # c comes from the centre counted on the two point sets, not from the sector code
    for lat in oracle_cases():
        adj = adjoint_lattice(lat)
        centre = set(map(tuple, lat.as_array().tolist())) & set(map(tuple, adj.as_array().tolist()))
        for x in (lat, adj):
            c = math.isqrt(x.size // len(centre))
            assert c * c * len(centre) == x.size
            seq = rand_seq(x, rng)
            sectors = _sectors(seq)
            assert sectors.shape == (x.basis[0], x.n // x.basis[0] // c, c, c)
            v = np.stack([random_signal(x.n, rng).values for _ in range(2)])
            acted = _vectors_of_sectors(sectors @ _sector_vectors(v, x), x)
            assert_close(acted, (oracles.represent(seq) @ v.T).T)
            # the way back, read off the forward gather, returns the coefficients
            assert_close(_coeffs_of_sectors(sectors, x), seq.coeffs)
