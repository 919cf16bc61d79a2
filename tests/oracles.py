"""Loop oracles for the shift kernel and every shift sum built on it.

Each oracle takes one time-frequency shift at a time, built from np.roll and
a directly evaluated exponential, and shares no code with the library
routine it checks.  Inputs are library objects; outputs are plain arrays.
Each dense oracle has one home, the invariant registry, and is imported from
there: the shift matrix (shift_matrix, ncgabor.selftest._shift_matrix), the
direct STFT sum (stft_direct, _stft_direct), the frame-type operator summed
from its definition (frame_type, _frame_type_by_definition) and the
commutant scanned over Z_N^2 (commutant, _commutant_by_scan).
"""
import math

import numpy as np

from ncgabor import TFPoint, enumerate_subgroups, lattice_from_generators
from ncgabor.selftest import (
    _commutant_by_scan as commutant,
    _frame_type_by_definition as frame_type,
    _shift_matrix as shift_matrix,
    _stft_direct as stft_direct,
)


def tf_points(lat):
    """The lattice's points as TFPoints, in canonical order."""
    return [TFPoint(lat.n, k, l) for k, l in lat.as_array().tolist()]


def shift(k, l, g):
    """pi(k, l) g by direct evaluation: exp(2 pi i l t / N) g(t - k), with
    l t taken mod N so the phases stay exact at large N."""
    n = len(g)
    return np.exp(2j * np.pi * (l * np.arange(n) % n) / n) * np.roll(g, k)


def shifted(points, g):
    return np.array([shift(k, l, g) for k, l in points])


def is_hermitian(mat, tol=1e-12):
    """mat equals its conjugate transpose to tol relative to its Frobenius norm."""
    return bool(np.linalg.norm(mat - mat.conj().T) <= tol * max(np.linalg.norm(mat), 1e-300))


def frame_operator(sys):
    """The dense route: the sum over the windows of their frame operators."""
    return sum(frame_type(w, w, sys.lattice) for w in sys.windows)


def frame_power(sys, power):
    """S^power applied to every window (rows), from one eigh of the dense S."""
    eigs, vecs = np.linalg.eigh(frame_operator(sys))
    windows = np.stack([w.values for w in sys.windows])
    return windows @ ((vecs * eigs**power) @ vecs.conj().T).T


def analysis_coefficients(f, g, lat):
    """The STFT samples <f, pi(lam) g> at the lattice's points."""
    return np.array([np.vdot(shift(k, l, g.values), f.values) for k, l in lat.as_array()])


def reconstruct(f, sys, duals):
    out = np.zeros(sys.n, dtype=complex)
    for w, d in zip(sys.windows, duals):
        for c, (k, l) in zip(analysis_coefficients(f, d, sys.lattice), sys.lattice.as_array()):
            out += c * shift(k, l, w.values)
    return out


def act_left(a, g):
    out = np.zeros(g.n, dtype=complex)
    for c, (k, l) in zip(a.coeffs, a.lattice.as_array()):
        out += c * shift(k, l, g.values)
    return out


def act_right(g, b):
    """vol^{-1} sum b(mu) pi(mu)^H g, with pi(p)^H = cocycle(p, p) pi(-p)."""
    n = g.n
    out = np.zeros(n, dtype=complex)
    for c, (k, l) in zip(b.coeffs, b.lattice.as_array()):
        coc = np.exp(-2j * np.pi * ((k * l) % n) / n)
        out += c * coc * shift(-k, -l, g.values)
    return n / b.lattice.size * out


def represent(a):
    n = a.lattice.n
    out = np.zeros((n, n), dtype=complex)
    for c, p in zip(a.coeffs, tf_points(a.lattice)):
        out += c * shift_matrix(p)
    return out


def coefficients_of(mat, lat):
    """a(lam) = trace(A pi(lam)^H) / N, one point at a time."""
    return np.array([np.vdot(shift_matrix(p), mat) / lat.n for p in tf_points(lat)])


def sector_basis(x):
    """The matrix bundle's N/c sectors of size c x c, every copy on its own, as a
    unitary N x N basis with columns in (r, d, rho) order, and the sector grid
    (a, K, c).  Column (r, d, rho) lives on the times t = r + a*(c*u + rho),
    u < K, where it is exp(pi i s a c (2 u rho + c u (u - K)) / N) times
    exp(2 pi i d u / K) / sqrt(K).  In this basis represent(x) of an element
    on x is block diagonal with c x c blocks."""
    n, (a, s, b) = x.n, x.basis
    m = n // a
    c = m // math.gcd(m, b)
    k = m // c
    basis = np.zeros((n, n), dtype=complex)
    for r in range(a):
        for d in range(k):
            for rho in range(c):
                for u in range(k):
                    turn = s * a * c * (2 * u * rho + c * u * (u - k)) / n
                    basis[r + a * (c * u + rho), (r * k + d) * c + rho] = (
                        np.exp(1j * np.pi * turn + 2j * np.pi * d * u / k) / np.sqrt(k)
                    )
    return basis, (a, k, c)


def all_sectors(seq):
    """Every one of the N/c sectors of represent(seq), copies included, read off
    the dense matrix in sector_basis: (a, K, c, c)."""
    basis, (a, k, c) = sector_basis(seq.lattice)
    blocks = (basis.conj().T @ represent(seq) @ basis).reshape(a * k, c, a * k, c)
    return np.einsum("icid->icd", blocks).reshape(a, k, c, c)


# Lattices the oracles run over: every subgroup for small N, plus sheared
# (non-separable) lattices at larger N.
SHEARED = (
    (48, [(4, 1), (0, 12)]),
    (48, [(6, 5)]),
    (48, [(8, 2), (12, 30), (0, 16)]),
    (96, [(8, 3), (0, 6)]),
    (96, [(3, 5)]),
    (96, [(12, 7), (0, 48)]),
)


def oracle_cases():
    for n in (4, 6, 8, 9, 12):
        yield from enumerate_subgroups(n)
    for n, gens in SHEARED:
        yield lattice_from_generators(n, gens)
