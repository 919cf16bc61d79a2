"""The twisted group algebra of a phase-space lattice.

Coefficient sequences on a lattice multiply by twisted convolution,

    (a # b)(lam) = sum_mu a(mu) b(lam - mu) cocycle(mu, lam - mu),

carry the involution  a*(lam) = cocycle(lam, lam) conj(a(-lam)),  and act on
signals through the matrix sum  represent(a) = sum a(lam) pi(lam).  The
representation is a faithful *-homomorphism: products go to products,
involution to the conjugate transpose.  Because the shift matrices are
orthogonal in the trace pairing, trace(pi(lam) pi(mu)^H) = N [lam == mu],
coefficients are recoverable from any matrix in the span, which is what makes
inversion inside the algebra (support preservation) observable here.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DimensionMismatch, TFPoint, _frozen
from .lattice import Lattice
from .weights import Weight

__all__ = [
    "CoeffSeq",
    "OperatorMatrix",
    "SingularElement",
    "twisted_conv",
    "involution",
    "weighted_norm",
    "represent",
    "coefficients_of",
    "invert_in_algebra",
    "trace_tau",
    "spectrum",
    "unit",
    "delta_seq",
]

HERMITIAN_TOL = 1e-12
INVERTIBILITY_TOL = 1e-10


class SingularElement(ArithmeticError):
    """Inversion requested for an element whose matrix is numerically singular."""

    def __init__(self, smallest_singular_value: float):
        super().__init__(
            f"element is not invertible (smallest singular value {smallest_singular_value:.3e})"
        )
        self.smallest_singular_value = smallest_singular_value


@dataclass(frozen=True)
class CoeffSeq:
    """Complex coefficients indexed by the canonical order of a lattice."""

    lattice: Lattice
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        vals = _frozen(self.coeffs)
        if vals.shape != (self.lattice.size,):
            raise ValueError(
                f"expected {self.lattice.size} coefficients, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficients contain non-finite entries")
        object.__setattr__(self, "coeffs", vals)

    def __getitem__(self, p: TFPoint) -> complex:
        return complex(self.coeffs[self.lattice.index_of(p)])


@dataclass(frozen=True)
class OperatorMatrix:
    """An N x N complex matrix with a cached Hermitian flag."""

    n: int
    entries: np.ndarray
    is_hermitian: bool = False

    def __post_init__(self) -> None:
        mat = _frozen(self.entries)
        if mat.shape != (self.n, self.n):
            raise ValueError(f"expected shape ({self.n}, {self.n}), got {mat.shape}")
        object.__setattr__(self, "entries", mat)
        scale = np.linalg.norm(mat)
        herm = np.linalg.norm(mat - mat.conj().T) <= HERMITIAN_TOL * max(scale, 1e-300)
        object.__setattr__(self, "is_hermitian", bool(herm))


def unit(lat: Lattice) -> CoeffSeq:
    coeffs = np.zeros(lat.size, dtype=complex)
    coeffs[lat.index_of(TFPoint(lat.n, 0, 0))] = 1.0
    return CoeffSeq(lat, coeffs)


def delta_seq(lat: Lattice, p: TFPoint, value: complex = 1.0) -> CoeffSeq:
    coeffs = np.zeros(lat.size, dtype=complex)
    coeffs[lat.index_of(p)] = value
    return CoeffSeq(lat, coeffs)


@lru_cache(maxsize=64)
def _conv_tables(lat: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Difference-index and cocycle tables driving twisted convolution.

    sub[i, j] is the canonical index of points[i] - points[j];
    coc[i, j] = cocycle(points[j], points[i] - points[j]).
    """
    pts = lat.as_array()
    n = lat.n
    diff_k = (pts[:, None, 0] - pts[None, :, 0]) % n
    diff_l = (pts[:, None, 1] - pts[None, :, 1]) % n
    sub = lat.indices(diff_k, diff_l)
    coc = np.exp(-2j * np.pi * ((pts[None, :, 0] * diff_l) % n) / n)
    return sub, coc


@lru_cache(maxsize=64)
def _involution_tables(lat: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Negation-index table and diagonal cocycle values."""
    pts = lat.as_array()
    n = lat.n
    neg = lat.indices(-pts[:, 0], -pts[:, 1])
    diag = np.exp(-2j * np.pi * ((pts[:, 0] * pts[:, 1]) % n) / n)
    return neg, diag


def _require_same_lattice(a: CoeffSeq, b: CoeffSeq) -> Lattice:
    if a.lattice != b.lattice:
        raise DimensionMismatch("coefficient sequences live on different lattices")
    return a.lattice


def twisted_conv(a: CoeffSeq, b: CoeffSeq) -> CoeffSeq:
    """Twisted convolution; matches operator composition under represent()."""
    lat = _require_same_lattice(a, b)
    sub, coc = _conv_tables(lat)
    out = (coc * b.coeffs[sub]) @ a.coeffs
    return CoeffSeq(lat, out)


def involution(a: CoeffSeq) -> CoeffSeq:
    """The algebra involution; represent(involution(a)) = represent(a)^H."""
    neg, diag = _involution_tables(a.lattice)
    return CoeffSeq(a.lattice, diag * np.conj(a.coeffs[neg]))


def weighted_norm(a: CoeffSeq, v: Weight, s: float) -> float:
    """Weighted l1 norm sum |a(lam)| v(lift(lam))^s."""
    if s < 0:
        raise ValueError("weight exponent s must be >= 0")
    vs = v.power(s)
    lifts = [p.lift() for p in a.lattice.points]
    return float(sum(abs(c) * vs(p) for c, p in zip(a.coeffs, lifts)))


def _bands(lat: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Index of the diagonal bands at the lattice's time shifts k_i = i*a.

    mat[_bands(lat)][i, t] = mat[t, (t - k_i) mod N]; a point (k, l) of the
    lattice sits in row k // a.
    """
    t = np.arange(lat.n)
    ks = np.arange(0, lat.n, lat.basis[0])
    return t[None, :], (t[None, :] - ks[:, None]) % lat.n


def represent(a: CoeffSeq) -> OperatorMatrix:
    """Assemble the matrix sum of shift matrices weighted by the coefficients.

    The band mat[t, (t - k) mod N] of pi(k, l) carries exp(2*pi*i*l*t/N), so
    each band of the sum is an inverse FFT along l of the coefficients at k,
    one per time shift of the lattice; the other bands are zero.
    """
    lat = a.lattice
    n, pts = lat.n, lat.as_array()
    mat = np.zeros((n, n), dtype=complex)  # before the temporaries, so they free from the heap top
    grid = np.zeros((n // lat.basis[0], n), dtype=complex)
    grid[pts[:, 0] // lat.basis[0], pts[:, 1]] = a.coeffs
    mat[_bands(lat)] = np.fft.ifft(grid, axis=1) * n
    mat.setflags(write=False)  # handed over: OperatorMatrix shares it rather than copying
    return OperatorMatrix(n, mat)


def _as_matrix(A) -> np.ndarray:
    if isinstance(A, OperatorMatrix):
        return A.entries
    return np.asarray(A, dtype=complex)


def coefficients_of(A, lat: Lattice) -> tuple[CoeffSeq, float]:
    """Recover lattice coefficients of a matrix by the trace pairing.

    a(lam) = trace(A pi(lam)^H) / N.  The returned residual is the Frobenius
    distance between A and the reassembled span element; it vanishes exactly
    when A lies in the span of the lattice shifts.
    """
    mat = _as_matrix(A)
    n = lat.n
    if mat.shape != (n, n):
        raise DimensionMismatch(f"matrix shape {mat.shape} does not match order {n}")
    pts = lat.as_array()
    grid = np.fft.fft(mat[_bands(lat)], axis=1) / n
    seq = CoeffSeq(lat, grid[pts[:, 0] // lat.basis[0], pts[:, 1]])
    residual = float(np.linalg.norm(mat - represent(seq).entries))
    return seq, residual


def invert_in_algebra(a: CoeffSeq) -> CoeffSeq:
    """Invert an element within the span of its lattice's shifts.

    The inverse of an invertible span element lies back in the span, so the
    coefficient recovery of the matrix inverse has vanishing residual; that
    is the finite shadow of spectral invariance and is enforced by the tests.
    """
    A = represent(a).entries
    svals = np.linalg.svd(A, compute_uv=False)
    if svals[-1] <= INVERTIBILITY_TOL * svals[0]:
        raise SingularElement(float(svals[-1]))
    inv, _residual = coefficients_of(np.linalg.inv(A), a.lattice)
    return inv


def trace_tau(a: CoeffSeq) -> complex:
    """The canonical trace: the coefficient at the origin."""
    return a[TFPoint(a.lattice.n, 0, 0)]


def spectrum(a: CoeffSeq) -> np.ndarray:
    """Eigenvalues (with multiplicity) of the represented matrix."""
    return np.linalg.eigvals(represent(a).entries)
