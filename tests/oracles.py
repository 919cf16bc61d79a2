"""Loop oracles for the shift kernel and every shift sum built on it.

Each oracle takes one time-frequency shift at a time, built from np.roll and
a directly evaluated exponential, and shares no code with the library
routine it checks.  Inputs are library objects; outputs are plain arrays.
"""
import numpy as np

from ncgabor import TFPoint, adjoint_lattice, enumerate_subgroups, lattice_from_generators, volume


def tf_points(lat):
    """The lattice's points as TFPoints, in canonical order."""
    return [TFPoint(lat.n, k, l) for k, l in lat.as_array().tolist()]


def shift(k, l, g):
    """pi(k, l) g by direct evaluation: exp(2 pi i l t / N) g(t - k)."""
    n = len(g)
    return np.exp(2j * np.pi * l * np.arange(n) / n) * np.roll(g, k)


def shift_matrix(k, l, n):
    rows = np.arange(n)
    mat = np.zeros((n, n), dtype=complex)
    mat[rows, (rows - k) % n] = np.exp(2j * np.pi * l * rows / n)
    return mat


def shifted(points, g):
    return np.array([shift(k, l, g) for k, l in points])


def is_hermitian(mat, tol=1e-12):
    """mat equals its conjugate transpose to tol relative to its Frobenius norm."""
    return bool(np.linalg.norm(mat - mat.conj().T) <= tol * max(np.linalg.norm(mat), 1e-300))


def system_columns(sys):
    return np.stack(
        [shift(k, l, w.values) for w in sys.windows for k, l in sys.lattice.as_array()], axis=1
    )


def frame_operator(sys):
    """The dense route: G G^H, the shifted windows as the columns of G."""
    G = system_columns(sys)
    return G @ G.conj().T


def frame_power(sys, power):
    """S^power applied to every window (rows), from one eigh of the dense S."""
    eigs, vecs = np.linalg.eigh(frame_operator(sys))
    windows = np.stack([w.values for w in sys.windows])
    return windows @ ((vecs * eigs**power) @ vecs.conj().T).T


def frame_operator_direct(sys):
    """Rank-one terms accumulated in canonical order."""
    S = np.zeros((sys.n, sys.n), dtype=complex)
    for w in sys.windows:
        for k, l in sys.lattice.as_array():
            col = shift(k, l, w.values)
            S += np.outer(col, col.conj())
    return S


def stft_direct(f, g):
    """STFT by direct summation in canonical (k, l, t) order."""
    n = f.n
    t = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(t, t) / n)  # kernel[l, t]
    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        out[k, :] = kernel @ (f.values * np.conj(np.roll(g.values, k)))
    return out


def stft_sample(f, g, k, l):
    """Single STFT sample <f, pi(k, l) g>."""
    return complex(np.vdot(shift(k, l, g.values), f.values))


def analysis_coefficients(f, g, lat):
    return np.array([stft_sample(f, g, k, l) for k, l in lat.as_array()])


def figa_residual(f1, f2, g1, g2, lat):
    adj = adjoint_lattice(lat)
    lhs = np.sum(analysis_coefficients(f1, g1, lat) * np.conj(analysis_coefficients(f2, g2, lat)))
    rhs = np.sum(analysis_coefficients(f1, f2, adj) * np.conj(analysis_coefficients(g1, g2, adj)))
    rhs /= float(volume(lat))
    return float(abs(lhs - rhs) / (1.0 + abs(lhs)))


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


def right_operator(b):
    n = b.lattice.n
    out = np.zeros((n, n), dtype=complex)
    for c, (k, l) in zip(b.coeffs, b.lattice.as_array()):
        out += c * shift_matrix(k, l, n).conj().T
    return n / b.lattice.size * out


def represent(a):
    n = a.lattice.n
    out = np.zeros((n, n), dtype=complex)
    for c, (k, l) in zip(a.coeffs, a.lattice.as_array()):
        out += c * shift_matrix(k, l, n)
    return out


def coefficients_of(mat, lat):
    """a(lam) = trace(A pi(lam)^H) / N, one point at a time."""
    n = lat.n
    return np.array([np.vdot(shift_matrix(k, l, n), mat) / n for k, l in lat.as_array()])


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
