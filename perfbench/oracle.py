"""Dense numpy oracles for every identity the benchmark checks.

Nothing here imports ncgabor: each check recomputes its expected value from
the definitions (tf_shift modulates after translating, counting measure, the
adjoint lattice is the commutant), so a wrong library route cannot vouch for
itself.  Tolerances are those of tests/test_acceptance.py.
"""
from __future__ import annotations

import numpy as np

TOL_RECONSTRUCT = 1e-9   # reconstruction and Parseval
TOL_IDENTITY = 1e-10     # Janssen expansion, FIGA, associativity, STFT, norms
TOL_SUPPORT = 1e-9       # an inverse stays in the span of its lattice


def lattice_points(n: int, gens) -> np.ndarray:
    """Subgroup of Z_N x Z_N generated by gens, as a lexicographic (|L|, 2) array."""
    codes = np.zeros(1, dtype=np.int64)
    steps = np.arange(n, dtype=np.int64)
    for k, l in gens:
        multiples = np.unique((steps * k) % n * n + (steps * l) % n)
        k_sum = (codes[:, None] // n + multiples[None, :] // n) % n
        l_sum = (codes[:, None] % n + multiples[None, :] % n) % n
        codes = np.unique(k_sum * n + l_sum)
    return np.stack([codes // n, codes % n], axis=1)


def adjoint_points(n: int, pts: np.ndarray) -> np.ndarray:
    """All (m, q) with m*l - k*q = 0 mod N for every (k, l) in the lattice."""
    m = np.arange(n)[:, None]
    q = np.arange(n)[None, :]
    keep = np.ones((n, n), dtype=bool)
    for k, l in np.unique(pts, axis=0):
        keep &= (m * int(l) - int(k) * q) % n == 0
    return np.argwhere(keep)


def shifted(pts: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Columns pi(k, l) g for every point: out[t, j] = e^{2 pi i l t/N} g[t - k]."""
    n = g.shape[0]
    t = np.arange(n)[:, None]
    k, l = pts[:, 0][None, :], pts[:, 1][None, :]
    return np.exp(2j * np.pi * ((l * t) % n) / n) * g[(t - k) % n]


def system_matrix(windows, pts: np.ndarray) -> np.ndarray:
    return np.concatenate([shifted(pts, np.asarray(w)) for w in windows], axis=1)


def frame_operator(windows, pts: np.ndarray) -> np.ndarray:
    G = system_matrix(windows, pts)
    return G @ G.conj().T


def shift_sum(coeffs: np.ndarray, pts: np.ndarray, n: int) -> np.ndarray:
    """Dense matrix sum_p c_p pi(p), built entry by entry from the definition."""
    t = np.arange(n)[None, :]
    k, l = pts[:, 0][:, None], pts[:, 1][:, None]
    vals = coeffs[:, None] * np.exp(2j * np.pi * ((l * t) % n) / n)
    flat = (t * n + (t - k) % n).ravel()
    size = n * n
    re = np.bincount(flat, weights=vals.real.ravel(), minlength=size)
    im = np.bincount(flat, weights=vals.imag.ravel(), minlength=size)
    return (re + 1j * im).reshape(n, n)


def stft(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """V_g f[k, l] = sum_t f[t] conj(g[t - k]) e^{-2 pi i l t / N}, by a dense DFT."""
    n = f.shape[0]
    t = np.arange(n)
    products = f[None, :] * np.conj(g[(t[None, :] - t[:, None]) % n])
    dft = np.exp(-2j * np.pi * np.outer(t, t) / n)
    return products @ dft.T


def lifted(n: int) -> np.ndarray:
    r = np.arange(n)
    return np.where(r <= n // 2, r, r - n)


def weight_table(n: int, family: str, s: float = 0.0, b: float = 1.0, beta: float = 0.5) -> np.ndarray:
    x = lifted(n).astype(float)
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    if family == "polynomial":
        return (1.0 + r2) ** (s / 2.0)
    if family == "subexponential":
        return np.exp(b * r2 ** (beta / 2.0))
    return np.exp(b * np.sqrt(r2))


def mixed_norm(values: np.ndarray, p: float, q: float) -> float:
    def lp(v, e, axis):
        return v.max(axis=axis) if e == np.inf else (v**e).sum(axis=axis) ** (1.0 / e)

    return float(lp(lp(values, p, 0), q, 0))


def rel(a, b) -> float:
    """Frobenius distance relative to the reference b."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def reconstruction_residual(f, windows, duals, pts) -> float:
    """||f - sum_i G_i G~_i^H f|| / ||f|| for windows g_i and duals g~_i."""
    out = sum(
        shifted(pts, np.asarray(w)) @ (shifted(pts, np.asarray(d)).conj().T @ f)
        for w, d in zip(windows, duals)
    )
    return rel(out, f)


def parseval_residual(windows, pts) -> float:
    """Frobenius distance of the system's frame operator from the identity."""
    S = frame_operator(windows, pts)
    return float(np.linalg.norm(S - np.eye(S.shape[0])))


def figa_residual(f1, f2, g1, g2, pts, adj) -> float:
    """|LHS - RHS| / (1 + |LHS|) of the fundamental identity of Gabor analysis."""
    n = f1.shape[0]
    a1 = shifted(pts, g1).conj().T @ f1
    a2 = shifted(pts, g2).conj().T @ f2
    b1 = shifted(adj, f2).conj().T @ f1
    b2 = shifted(adj, g2).conj().T @ g1
    lhs = complex(np.sum(a1 * np.conj(a2)))
    rhs = complex(np.sum(b1 * np.conj(b2))) * len(pts) / n
    return abs(lhs - rhs) / (1.0 + abs(lhs))
