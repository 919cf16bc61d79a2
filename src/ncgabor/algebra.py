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
is the windows' translates times the phase that _band_phase caches.
represent scatters the bands through the band index (t - i*a) mod N and
coefficients_of gathers them; _band_index caches it, read-only, per lattice.

In the order t = r + a*q, M = N/a, represent(x) is block diagonal: a blocks
of size M x M, block_r[q, q'] = band[(q - q') mod M, r + a*q].  Up to its
phase each band has period N/b in t, so moving q and q' on by c = M/gcd(M, b),
the least step with a*c = 0 mod N/b, multiplies block entry [q, q'] by
exp(2*pi*i*s*a*c*(q - q')/N).  Write q = rho + c*u with rho < c, u < K = M/c.
The twist tw[q] = exp(pi*i*s*a*c*(2*u*rho + c*u*(u - K))/N) takes that factor
off (the sum of the steps' turns up to u, less their mean over the K steps,
so that tw has period M), which leaves each block block-circulant with K x K
blocks of c x c, and a length-K DFT over u splits it into K sectors.  So
represent(x) is unitarily equivalent to a*K = N/c sectors of size c x c: the
rational noncommutative torus as a matrix bundle over its centre L ∩ L°, with
c^2 = |L| / |L ∩ L°|.  _sectors gathers the sector entries from the band
spectra (one length-N/b inverse FFT per time shift, not the tile) and takes
one length-K FFT; _coeffs_of_sectors inverts the FFT, gathers the bands at the
times t < N/b and folds them.  The way back is read off the forward gather,
which names every band entry: it takes the first copy of each and undoes its
phase, so the two directions cannot disagree.  Products multiply sectors,
inversion is a batched inverse after a values-only SVD of the sectors (whose
singular values are the whole matrix's), the spectrum is their eigenvalues,
and frames.py runs every frame design on the sectors of the frame element,
where c = 1 at integer redundancy.  Only represent and coefficients_of build N x N arrays.

A product takes N*c^2 multiply-adds besides the FFTs, against the
|L|^2 = (N/a)^2 (N/b)^2 of summing over pairs of lattice points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DimensionMismatch, TFPoint, _check_same_n, _frozen, _lifted, _shifted, _translates
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
    _check_same_n(lat.n, p.n)
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
    return CoeffSeq(lat, _coeffs_of_sectors(_sectors(a) @ _sectors(b), lat))


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
def _band_phase(lat: Lattice) -> np.ndarray:
    """The band phase exp(2*pi*i*sigma_i*t/N), (N/a, N)."""
    return _shifted(_fiber_points(lat), np.ones(lat.n, dtype=complex))


def _fiber_windows(lat: Lattice, g: np.ndarray) -> np.ndarray:
    """The windows g [..., N] shifted to the fiber points, [..., N/a, N]: their
    translates by i*a times the cached band phase."""
    out = _translates(_fiber_points(lat)[:, 0], g)
    out *= _band_phase(lat)
    return out


@lru_cache(maxsize=64)
def _band_index(lat: Lattice) -> np.ndarray:
    """The band index (t - i*a) mod N, (N/a, N) intp, read-only."""
    t = np.arange(lat.n, dtype=np.intp)
    index = (t - t[:: lat.basis[0], None]) % lat.n
    index.setflags(write=False)
    return index


def _bands(lat: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Index of the diagonal bands at the lattice's time shifts k_i = i*a.

    mat[_bands(lat)][i, t] = mat[t, (t - k_i) mod N].
    """
    return np.arange(lat.n), _band_index(lat)


@lru_cache(maxsize=64)
def _sector_tables(lat: Lattice) -> tuple[np.ndarray, ...]:
    """The twist tw (K, c); where sector entry [r, d, rho, rho'] sits in the
    flattened band spectra (a, K, c, c), with its band phase times
    conj(tw[d, rho]); and the way back, read off that forward gather: where
    the first copy of each band entry [i, t < N/b] sits in it, (N/a, N/b),
    with the conjugate of its phase over N/b.  The forward phases are
    exp(pi*i*e/N) for integers e mod 2N.  Read-only."""
    n, (a, s, b) = lat.n, lat.basis
    m, p = n // a, n // b
    c = m // math.gcd(m, b)
    k = m // c
    u, rho = np.divmod(np.arange(m), c)
    turn = (s * a * c) % (2 * n) * ((2 * u * rho + c * u * (u - k)) % (2 * n)) % (2 * n)
    q = np.arange(m).reshape(1, k, c, 1)
    i, t = (q - np.arange(c)) % m, np.arange(a).reshape(-1, 1, 1, 1) + a * q
    fwd_at, fwd_phase = i * p + t % p, 2 * ((i * s % b) * t % n) - turn[q]
    back_at = np.unique(fwd_at, return_index=True)[1].reshape(m, p)
    tables = (
        np.exp(1j * np.pi * turn / n).reshape(k, c),
        fwd_at,
        np.exp(1j * np.pi * (fwd_phase % (2 * n)) / n),
        back_at,
        np.exp(1j * np.pi * (-fwd_phase.reshape(-1)[back_at] % (2 * n)) / n) / p,
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _sectors(x: CoeffSeq) -> np.ndarray:
    """The a*K sectors of represent(x), (a, K, c, c): the twisted length-K DFT
    of its blocks, gathered from the band spectra."""
    lat = x.lattice
    _, at, phase, _, _ = _sector_tables(lat)
    spec = np.fft.ifft(x.coeffs.reshape(-1, lat.n // lat.basis[2]), axis=-1, norm="forward")
    return np.fft.fft(spec.reshape(-1)[at] * phase, axis=1)


def _coeffs_of_sectors(sectors: np.ndarray, lat: Lattice) -> np.ndarray:
    """Coefficients of the span element with the given sectors (a, K, c, c):
    the fold of its bands at the times t < N/b."""
    _, _, _, at, phase = _sector_tables(lat)
    return _fold(np.fft.ifft(sectors, axis=1).reshape(-1)[at] * phase, lat)


def _sector_vectors(v: np.ndarray, lat: Lattice) -> np.ndarray:
    """Vectors v [w, N] in the sectors' basis, [a, K, c, w]: represent(x) @ v.T
    there is _sectors(x) @ _sector_vectors(v, lat)."""
    tw = _sector_tables(lat)[0]
    fibered = v.reshape(len(v), -1, lat.basis[0]).T.reshape(-1, *tw.shape, len(v))
    return np.fft.fft(fibered * tw[..., None].conj(), axis=1, norm="ortho")


def _vectors_of_sectors(y: np.ndarray, lat: Lattice) -> np.ndarray:
    """The inverse of _sector_vectors: [a, K, c, w] to [w, N]."""
    out = np.fft.ifft(y, axis=1, norm="ortho") * _sector_tables(lat)[0][..., None]
    return out.reshape(lat.basis[0], -1, y.shape[-1]).T.reshape(y.shape[-1], lat.n)


def represent(a: CoeffSeq) -> OperatorMatrix:
    """Assemble the matrix sum of shift matrices weighted by the coefficients.

    Its bands at the lattice's time shifts are the tile of the coefficients
    with the band phase; the other bands are zero.
    """
    lat, n = a.lattice, a.lattice.n
    mat = np.zeros((n, n), dtype=complex)  # before the temporaries, so they free from the heap top
    mat[_bands(lat)] = _tile(a.coeffs, lat, _band_phase(lat))
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
    seq = CoeffSeq(lat, _fold(mat[_bands(lat)] * _band_phase(lat).conj(), lat) / n)
    residual = float(np.linalg.norm(mat - represent(seq).entries))
    return seq, residual


def invert_in_algebra(a: CoeffSeq) -> CoeffSeq:
    """Invert an element within the span of its lattice's shifts.

    The sectors' singular values together are those of the whole represented
    matrix, so they give the verdict; the inverse is then taken sector by
    sector.  It lands back in the span: the finite shadow of spectral
    invariance, which the tests check against the dense inverse.
    """
    sectors = _sectors(a)
    svals = np.linalg.svd(sectors, compute_uv=False)
    smallest = float(svals.min())
    if smallest <= INVERTIBILITY_TOL * svals.max():
        raise SingularElement(smallest)
    return CoeffSeq(a.lattice, _coeffs_of_sectors(np.linalg.inv(sectors), a.lattice))


def trace_tau(a: CoeffSeq) -> complex:
    """The canonical trace: the coefficient at the origin."""
    return complex(a.coeffs[0])


def spectrum(a: CoeffSeq) -> np.ndarray:
    """Eigenvalues (with multiplicity) of the represented matrix, sector by sector."""
    return np.linalg.eigvals(_sectors(a)).ravel()
