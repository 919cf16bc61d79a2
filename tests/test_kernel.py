"""Shifts, and every shift sum computed in the sectors, against the loop oracles.

Runs over every subgroup for N in {4, 6, 8, 9, 12} plus sheared lattices at
N in {48, 96}, at 1e-12 relative to the largest oracle entry.  The sector
routes of the frame computations (frame designs on the sectors of the frame
element; analysis, inner products, actions and reconstruction in the sectors
of L and L°) are checked against the dense G G^H route and the loop sums with
one and two windows, and those of the lattice algebra (product, inversion,
spectrum on the sectors of represent) against dense matrix products,
inverses, SVDs and eigenvalues of the loop-built shift sums.
The sectors themselves are pinned to the matrix bundle over the centre
L ∩ L°: for X = L and X = L°, with basis (a, s), (0, b) and M = N/a, the
a*K sectors of size c x c, c^2 |L ∩ L°| = |X| and K = M/c, are q' = N*c/|X|
copies of |L ∩ L°| distinct ones; the closed-form copies rebuild every
sector of a dense oracle, in their basis represent(x) acts on vectors as the
distinct sectors do, and the mean over the copies of a Gram's diagonal
blocks is its orthogonal projection onto the span.  Each lattice's cached
band index gathers a window's translates at its time shifts bit for bit.
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
    inner_left,
    inner_right,
    invert_in_algebra,
    janssen_representation,
    multiwindow_parseval_residual,
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
    _sector_vectors,
    _sectors,
    _vectors_of_sectors,
)
from ncgabor.core import _tables, _translates
from ncgabor.frames import FRAME_DECISION_TOL, _pairing
import oracles
from oracles import oracle_cases

REL = 1e-12


def assert_close(got, expect, rel=REL):
    assert got.shape == expect.shape
    assert np.abs(got - expect).max() <= rel * max(1.0, np.abs(expect).max())


def rand_seq(lat, rng):
    return CoeffSeq(lat, rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size))


def test_shift_matches_loop_oracle(rng):
    for lat in oracle_cases():
        n = lat.n
        g, pts = random_signal(n, rng), lat.as_array()
        # every point, its negation and the point plus N, which TFPoint reduces
        for k, l in np.concatenate([pts, -pts, pts + n]).tolist():
            p = TFPoint(n, k, l)
            assert_close(tf_shift(p, g).values, oracles.shift(k, l, g.values))
            assert_close(shift_matrix(p), oracles.shift_matrix(k, l, n))
        # row k mod N of the translate view is the translate by k, also for
        # negative shifts and shifts >= N
        ks = np.concatenate([pts[:, 0], -pts[:, 0] - 1, pts[:, 0] + n, [-3 * n - 1]])
        translates = np.stack([ks, np.zeros_like(ks)], axis=1)
        assert_close(_translates(g.values)[ks % n], oracles.shifted(translates, g.values))


def test_band_index_rows_are_the_translates_at_the_time_shifts(rng):
    # the flat index of represent and coefficients_of, t*N + column, names
    # row t of the matrix, and its columns gather a window's translates to the
    # lattice's time shifts i*a
    for base in oracle_cases():
        for lat in (base, adjoint_lattice(base)):
            index = _tables(_band_index, lat.n, lat.basis[0])
            assert index.shape == (lat.n // lat.basis[0], lat.n)
            assert index.dtype == np.intp
            assert not index.flags.writeable
            rows, columns = np.divmod(index, lat.n)
            assert np.array_equal(rows, np.broadcast_to(np.arange(lat.n), index.shape))
            ks = np.arange(0, lat.n, lat.basis[0])
            g = random_signal(lat.n, rng).values
            assert np.array_equal(g[columns], _translates(g)[ks])


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
            # the frame-type operator of two different windows
            pts, g, h = lat.as_array(), sys.windows[0], duals[-1]
            assert_close(
                represent(janssen_representation(g, h, lat)).entries,
                oracles.shifted(pts, h.values).T @ oracles.shifted(pts, g.values).conj(),
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
    # the analysis, both inner products and both actions run in the sectors of
    # the lattice they live on, so check them on every lattice and on its
    # adjoint, for each of one and two windows, and the multi-window Parseval
    # residual against the loop sum of the squared samples
    for lat in (x for base in oracle_cases() for x in (base, adjoint_lattice(base))):
        adj = adjoint_lattice(lat)
        f = random_signal(lat.n, rng)
        for count in (1, 2):
            windows = [random_signal(lat.n, rng) for _ in range(count)]
            samples = [oracles.analysis_coefficients(f, g, lat) for g in windows]
            for g, expect in zip(windows, samples):
                assert_close(analysis_coefficients(f, g, lat), expect)
                assert_close(inner_left(f, g, lat).coeffs, expect)
                assert_close(inner_right(f, g, lat).coeffs, oracles.analysis_coefficients(f, g, adj).conj())
                a, b = rand_seq(lat, rng), rand_seq(adj, rng)
                assert_close(act_left(a, g).values, oracles.act_left(a, g))
                assert_close(act_right(g, b).values, oracles.act_right(g, b))
            norm_sq = np.linalg.norm(f.values) ** 2
            expect = abs(norm_sq - sum(np.sum(np.abs(c) ** 2) for c in samples)) / (1.0 + norm_sq)
            assert abs(multiwindow_parseval_residual(windows, lat, f) - expect) <= REL * max(1.0, expect)
        assert_close(right_operator(b).entries, oracles.right_operator(b))


def test_figa_pairings_match_the_loop_sums(rng):
    # each side of the fundamental identity pairs two Grams in the sectors of
    # one lattice, L's or L°'s: the sum over it of one sample times the
    # conjugate of another
    for lat in (x for base in oracle_cases() for x in (base, adjoint_lattice(base))):
        x0, x1, y0, y1 = (random_signal(lat.n, rng) for _ in range(4))
        expect = np.sum(oracles.analysis_coefficients(x0, y0, lat)
                        * oracles.analysis_coefficients(x1, y1, lat).conj())
        got = _pairing(np.stack([x0.values, x1.values]), np.stack([y0.values, y1.values]), lat)
        assert abs(got - expect) <= REL * max(1.0, abs(expect))


def test_represent_and_coefficients_of_match_loop_oracles(rng):
    for lat in oracle_cases():
        a = rand_seq(lat, rng)
        assert_close(represent(a).entries, oracles.represent(a))
        mat = rng.standard_normal((lat.n, lat.n)) + 1j * rng.standard_normal((lat.n, lat.n))
        seq, residual = coefficients_of(mat, lat)
        assert_close(seq.coeffs, oracles.coefficients_of(mat, lat))
        expect = np.linalg.norm(mat - oracles.represent(seq))
        assert abs(residual - expect) <= REL * np.linalg.norm(mat)


def test_algebra_sector_routes_match_dense_oracles(rng):
    # the inverse is perturbed by up to eps * cond(A), so its tolerance scales with cond(A);
    # a - lambda * 1, lambda an eigenvalue of represent(a), is singular up to rounding
    for lat in (x for base in oracle_cases() for x in (base, adjoint_lattice(base))):
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
            copies = x.n * c // x.size
            seq = rand_seq(x, rng)
            sectors = _sectors(seq.coeffs, x)
            assert sectors.shape == (x.basis[0] // copies, x.n // x.basis[0] // c, c, c)
            v = np.stack([random_signal(x.n, rng).values for _ in range(2)])
            y = _sector_vectors(v, x)
            assert y.shape == (copies, *sectors.shape[:-1], 2)
            acted = _vectors_of_sectors(sectors @ y, x)
            assert_close(acted, (oracles.represent(seq) @ v.T).T)
            # the way back, the inverse gather, returns the coefficients of any sectors,
            # and the mean over the copies of a Gram's diagonal blocks is its orthogonal
            # projection onto the span: a rank-one matrix lies off it
            assert_close(_coeffs_of_sectors(sectors, x), seq.coeffs)
            assert_close(
                _coeffs_of_sectors((y[..., :1] @ y[..., 1:].conj().swapaxes(-1, -2)).mean(axis=0), x),
                oracles.coefficients_of(np.outer(v[0], v[1].conj()), x),
            )


def test_distinct_sectors_and_their_copies_reproduce_every_sector(rng):
    # On X and X°, the |X|/c^2 distinct sectors, one per character of the centre,
    # and the closed-form copies rebuild all N/c sectors of the dense bundle:
    # copy j of (r, d) is the sector (r + j*a/q', d + j*s/q') mod (a, K), and
    # the basis change between the two is monomial (a cyclic shift in rho
    # times a phase), so each old sector is the representative conjugated by it.
    for lat in oracle_cases():
        adj = adjoint_lattice(lat)
        centre = set(map(tuple, lat.as_array().tolist())) & set(map(tuple, adj.as_array().tolist()))
        for x in (lat, adj):
            (a, s, _), n = x.basis, x.n
            seq = rand_seq(x, rng)
            every = oracles.all_sectors(seq)
            _, k, c = every.shape[:3]
            copies = n * c // x.size
            sectors = _sectors(seq.coeffs, x)
            assert sectors.shape[0] * sectors.shape[1] == len(centre) == x.size // (c * c)
            basis, _ = oracles.sector_basis(x)
            change = basis.conj().T @ _sector_vectors(np.eye(n), x).reshape(n, n).conj().T
            found = np.abs(change) > 1e-9
            assert (found.sum(axis=0) == 1).all() and (found.sum(axis=1) == 1).all()
            assert_close(np.abs(change[found]), np.ones(n))
            j, r, d = np.unravel_index(np.arange(n // c), (copies, a // copies, k))
            target = np.argmax(found.reshape(a * k, c, n // c, c).any(axis=(1, 3)), axis=0)
            assert np.array_equal(target, (r + j * (a // copies)) * k + (d + j * (s // copies)) % k)
            blocks = change.reshape(a * k, c, n // c, c).transpose(2, 0, 1, 3)[np.arange(n // c), target]
            shift = (np.argmax(np.abs(blocks) > 1e-9, axis=1) - np.arange(c)) % c  # [block, rho]
            assert (shift == shift[:, :1]).all()  # a cyclic shift in rho
            rebuilt = blocks @ sectors[r, d] @ blocks.conj().swapaxes(-1, -2)
            assert_close(rebuilt, every.reshape(a * k, c, c)[target])
