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

The algebra works in the lattice's fibers.  With the normal-form basis
(a, s), (0, b), the points at time shift i*a are (i*a, sigma_i + j*b),
sigma_i = i*s mod b, and (i*a, sigma_i) are the fiber points.  One transform
pair carries every lattice route between coefficients and time: the tile
takes c[i, j] to rows[i, t] * sum_j c[i, j] exp(2*pi*i*j*t/(N/b)), one
inverse FFT of length N/b per time shift repeated b times along t, and the
fold, its adjoint without the rows, sums over t mod N/b and takes one FFT of
length N/b.  With the band phase exp(2*pi*i*sigma_i*t/N) as rows the tile
gives the bands band[i, t] = represent(c)[t, (t - i*a) mod N], and the fold
of the bands times the conjugate phase, over N, recovers c; with the windows
shifted to the fiber points as rows they are Gabor synthesis and analysis
(frames.py), the Zak-domain factorization of Gabor frames: _fiber_windows
is the windows' translates times the phase that _phase_tables caches.

In the order t = r + a*q, M = N/a, represent(x) is block diagonal: a blocks
of size M x M, block_r[q, q'] = band[(q - q') mod M, r + a*q] (the rational
noncommutative torus as a matrix bundle).  Up to the phase each band repeats
with period N/b in t, so the first h = ceil((N/b)/a) rows of each block, the
times t < N/b, determine an element, and their fold gives it back.  Products
multiply those rows of one element's blocks by the other's blocks, inversion
is a batched inverse after a values-only SVD of the blocks (whose singular
values are the whole matrix's), and the spectrum is the blocks' eigenvalues.
Only represent and coefficients_of build N x N arrays.

A product takes a*h*M^2, about (N/b + a)*M^2, multiply-adds, against the
|L|^2 = M^2 (N/b)^2 of summing over pairs of lattice points, but its blocks
hold N^2/a entries for N^2/(a*b) coefficients: for large b, e.g. (1, 0),
(0, N/2), building them dominates, and splitting the blocks by the lattice's
centre would remove that b-fold redundancy.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DimensionMismatch, TFPoint, _frozen, _lifted, _shifted, _translates
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


@dataclass(frozen=True)
class OperatorMatrix:
    """An N x N complex matrix."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = _frozen(self.entries)
        if mat.shape != (self.n, self.n):
            raise ValueError(f"expected shape ({self.n}, {self.n}), got {mat.shape}")
        object.__setattr__(self, "entries", mat)


def unit(lat: Lattice) -> CoeffSeq:
    coeffs = np.zeros(lat.size, dtype=complex)
    coeffs[0] = 1.0  # the origin is the first point in canonical order
    return CoeffSeq(lat, coeffs)


def delta_seq(lat: Lattice, p: TFPoint, value: complex = 1.0) -> CoeffSeq:
    i = int(lat.indices(p.k, p.l))
    if i < 0:
        raise KeyError(f"point ({p.k},{p.l}) not in lattice")
    coeffs = np.zeros(lat.size, dtype=complex)
    coeffs[i] = value
    return CoeffSeq(lat, coeffs)


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
    return CoeffSeq(lat, _coeffs_of_blocks(_blocks(a, _head_rows(lat)) @ _blocks(b), lat))


def involution(a: CoeffSeq) -> CoeffSeq:
    """The algebra involution; represent(involution(a)) = represent(a)^H."""
    neg, diag = _involution_tables(a.lattice)
    return CoeffSeq(a.lattice, diag * np.conj(a.coeffs[neg]))


def weighted_norm(a: CoeffSeq, v: Weight, s: float) -> float:
    """Weighted l1 norm sum |a(lam)| v(lift(lam))^s."""
    if s < 0:
        raise ValueError("weight exponent s must be >= 0")
    lifts = _lifted(a.lattice.as_array(), a.lattice.n)
    return float(np.abs(a.coeffs) @ v.power(s)._grid(lifts[:, 0], lifts[:, 1]))


def _head_rows(lat: Lattice) -> int:
    """h = ceil((N/b) / a): the rows q < h of the blocks hold every time t < N/b."""
    a, _, b = lat.basis
    return -(-(lat.n // b) // a)


def _fiber_points(lat: Lattice) -> np.ndarray:
    """(i*a, sigma_i), sigma_i = i*s mod b: the first point at each time shift."""
    return lat.as_array()[:: lat.n // lat.basis[2]]


def _tile(coeffs: np.ndarray, lat: Lattice, rows: np.ndarray) -> np.ndarray:
    """rows[..., i, t] * sum_j c[..., i, j] exp(2*pi*i*j*t/(N/b)) as [..., i, t]
    for coefficients [..., |L|] in canonical order: one inverse FFT of length
    N/b per time shift, repeated b times along t."""
    p = lat.n // lat.basis[2]
    spec = np.fft.ifft(coeffs.reshape(*coeffs.shape[:-1], -1, 1, p), axis=-1, norm="forward")
    out = rows.reshape(*rows.shape[:-1], -1, p) * spec
    return out.reshape(*out.shape[:-2], -1)


def _fold(bands: np.ndarray, lat: Lattice) -> np.ndarray:
    """The tile's adjoint without its rows: sum_t bands[..., i, t]
    exp(-2*pi*i*j*t/(N/b)) as [..., |L|] in canonical order, for any width of
    t that N/b divides: a sum over t mod N/b, then one FFT of length N/b."""
    p = lat.n // lat.basis[2]
    if bands.shape[-1] > p:
        bands = bands.reshape(*bands.shape[:-1], -1, p).sum(axis=-2)
    return np.fft.fft(bands, axis=-1).reshape(*bands.shape[:-2], -1)


@lru_cache(maxsize=64)
def _phase_tables(lat: Lattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The band phase exp(2*pi*i*sigma_i*t/N) (N/a, N), its conjugate over N/b
    at the times t < N/b, and where band[i, t] (t < N/b) sits in the
    flattened head rows of the blocks (_coeffs_of_blocks)."""
    n, a = lat.n, lat.basis[0]
    m, p, h = n // a, n // lat.basis[2], _head_rows(lat)
    phase = _shifted(_fiber_points(lat), np.ones(n, dtype=complex))
    i, t = np.arange(m)[:, None], np.arange(p)[None, :]
    return phase, phase[:, :p].conj() / p, ((t % a) * h + t // a) * m + (t // a - i) % m


def _fiber_windows(lat: Lattice, g: np.ndarray) -> np.ndarray:
    """The windows g [..., N] shifted to the fiber points, [..., N/a, N]: their
    translates by i*a times the cached band phase."""
    out = _translates(_fiber_points(lat)[:, 0], g)
    out *= _phase_tables(lat)[0]
    return out


def _bands(lat: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Index of the diagonal bands at the lattice's time shifts k_i = i*a.

    mat[_bands(lat)][i, t] = mat[t, (t - k_i) mod N].
    """
    t = np.arange(lat.n)
    ks = np.arange(0, lat.n, lat.basis[0])
    return t[None, :], (t[None, :] - ks[:, None]) % lat.n


@lru_cache(maxsize=64)
def _block_index(m: int, a: int) -> np.ndarray:
    """idx[r, q, q'] = ((q - q') mod M) * N + r + a*q: where block entry
    [q, q'] of block r sits in the flattened bands.  Read-only."""
    q = np.arange(m)
    idx = (q[:, None] - q[None, :]) % m * (m * a) + a * q[:, None] + np.arange(a)[:, None, None]
    idx.setflags(write=False)
    return idx


def _blocks(x: CoeffSeq, rows: int | None = None) -> np.ndarray:
    """The a diagonal blocks (a, N/a, N/a) of represent(x) in the order
    t = r + a*q, or only their first rows."""
    lat, a = x.lattice, x.lattice.basis[0]
    bands = _tile(x.coeffs, lat, _phase_tables(lat)[0])
    return bands.reshape(-1)[_block_index(lat.n // a, a)[:, :rows]]


def _coeffs_of_blocks(head: np.ndarray, lat: Lattice) -> np.ndarray:
    """Coefficients of the span element whose blocks begin with the rows head,
    shape (a, _head_rows(lat), N/a): the fold of its bands at the times
    t < N/b with their phase and scale taken off."""
    _, head_conj, where = _phase_tables(lat)
    return _fold(head.reshape(-1)[where] * head_conj, lat)


def represent(a: CoeffSeq) -> OperatorMatrix:
    """Assemble the matrix sum of shift matrices weighted by the coefficients.

    Its bands at the lattice's time shifts are the tile of the coefficients
    with the band phase; the other bands are zero.
    """
    lat, n = a.lattice, a.lattice.n
    mat = np.zeros((n, n), dtype=complex)  # before the temporaries, so they free from the heap top
    mat[_bands(lat)] = _tile(a.coeffs, lat, _phase_tables(lat)[0])
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
    seq = CoeffSeq(lat, _fold(mat[_bands(lat)] * _phase_tables(lat)[0].conj(), lat) / n)
    residual = float(np.linalg.norm(mat - represent(seq).entries))
    return seq, residual


def invert_in_algebra(a: CoeffSeq) -> CoeffSeq:
    """Invert an element within the span of its lattice's shifts.

    The fiber blocks' singular values together are those of the whole
    represented matrix, so they give the verdict; the inverse is then taken
    block by block.  It lands back in the span: the finite shadow of
    spectral invariance, which the tests check against the dense inverse.
    """
    blocks = _blocks(a)
    svals = np.linalg.svd(blocks, compute_uv=False)
    smallest = float(svals.min())
    if smallest <= INVERTIBILITY_TOL * svals.max():
        raise SingularElement(smallest)
    head = np.linalg.inv(blocks)[:, : _head_rows(a.lattice)]
    return CoeffSeq(a.lattice, _coeffs_of_blocks(head, a.lattice))


def trace_tau(a: CoeffSeq) -> complex:
    """The canonical trace: the coefficient at the origin."""
    return complex(a.coeffs[0])


def spectrum(a: CoeffSeq) -> np.ndarray:
    """Eigenvalues (with multiplicity) of the represented matrix, block by block."""
    return np.linalg.eigvals(_blocks(a)).ravel()
