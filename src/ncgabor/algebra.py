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
sigma_i = i*s mod b.  The band band[i, t] = represent(c)[t, (t - i*a) mod N]
is sum_l c(i*a, l) exp(2*pi*i*l*t/N), the inverse DFT of the lattice's
frequencies at that time shift; the other bands are zero.  represent places
the coefficients on the (N/a, N) grid of time shifts by frequencies, point
(i*a, l) at row i, column l, and takes one length-N inverse FFT per row;
coefficients_of takes the forward FFT of the bands and reads the grid back,
over N.  Both move the bands through the flat index t*N + (t - i*a) mod N
and place the points by their grid positions, which the lattice carries
like its involution and sector tables (lattice.py).  The index depends only
on (N, a) and comes from lattice._tables while it fits its 2 MiB cap: it
has (N/a)*N entries, so with a = 1 it is built on each call past N = 512.
There is no phase table.  Along j each band is the band phase
exp(2*pi*i*sigma_i*t/N) times the length-N/b inverse FFT of c[i, :],
repeated b times along t: the band spectra (N/a, N/b) that the sectors
below gather from.
Every other route, on coefficients or on signals, runs in the sectors below.

In the order t = r + a*q, M = N/a, represent(x) is block diagonal: a blocks of
size M x M, block_r[q, q'] = band[(q - q') mod M, r + a*q].  Up to its phase
each band has period N/b in t, so moving q and q' on by c = M/gcd(M, b), the
least step with a*c = 0 mod N/b, multiplies block entry [q, q'] by
exp(2*pi*i*s*a*c*(q - q')/N).  Write q = rho + c*u with rho < c, u < K = M/c.
The twist tw[q] = exp(pi*i*s*a*c*(2*u*rho + c*u*(u - K))/N) takes that factor
off (the sum of the steps' turns up to u, less their mean over the K steps, so
that tw has period M), which leaves each block block-circulant with K x K
blocks of c x c, and a length-K DFT over u splits it into K sectors.  So
represent(x) is unitarily equivalent to a*K = N/c sectors of size c x c: the
rational noncommutative torus as a matrix bundle over its centre L ∩ L°, with
c^2 = |L| / |L ∩ L°|.  They are q' = N*c/|L| = b/gcd(M, b) copies of the
|L|/c^2 distinct sectors, one per character of the centre (Rieffel 1988), and
the commutant A(L°) intertwines the copies: mu = h*(N/b, (N/b)*s/a) in L°, h
the inverse of M/gcd(M, b) mod q', has time a/q' mod a, and pi(j*mu) carries
sector (r, d), r < a/q', to copy j at (r + j*a/q', d + j*s/q') mod (a, K), by
a cyclic shift in rho times a phase.  The sectors' basis takes copy j as the
image under pi(j*mu) of its representative's, so represent(x) acts on every
copy as on the representative: _sector_vectors reads v at t + j*h*N/b (mu's
time) times the twist and pi(j*mu)'s phase, then takes one length-K FFT, to
coordinates [q', a/q', K, c, w].  The element's sectors are the distinct ones,
r < a/q', and they name each entry of the band spectra (N/a, N/b) once:
_sectors takes one length-N/b inverse FFT per time shift of the coefficients,
the gather and one length-K FFT, and _coeffs_of_sectors inverts it through the
inverse index.  In this basis A(L) is each sector repeated over its copies, so
the orthogonal projection of a matrix onto the span is the mean over the
copies of its diagonal blocks: frames.py builds the frame element and
reconstruction's mixed element so, with no FFT, and the samples
<f, pi(lam) g> as N times the coefficients of the projection of f g^H.
Products multiply sectors, and so does an action on signals (module.py);
inversion is a batched inverse after a values-only SVD (the matrix's singular
values up to multiplicity), and the spectrum is their eigenvalues repeated q'
times.  Only represent and coefficients_of build N x N arrays.

A product takes |L|*c multiply-adds besides the FFTs, against the
|L|^2 = (N/a)^2 (N/b)^2 of summing over pairs of lattice points.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .core import _frozen, _lifted, _translates
from .lattice import DimensionMismatch, Lattice, TFPoint, _check_same_n, _Frozen, _group_order, _set, _tables

if TYPE_CHECKING:
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


class CoeffSeq(_Frozen):
    """Complex coefficients indexed by the canonical order of a lattice."""

    __slots__ = _fields = ("lattice", "coeffs")
    lattice: Lattice
    coeffs: np.ndarray

    def __init__(self, lattice: Lattice, coeffs: np.ndarray) -> None:
        if not isinstance(lattice, Lattice):
            raise TypeError(f"the lattice must be a Lattice, got {type(lattice).__name__}")
        vals = _frozen(coeffs)
        if vals.shape != (lattice.size,):
            raise ValueError(f"expected {lattice.size} coefficients, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficients contain non-finite entries")
        _set(self, "lattice", lattice)
        _set(self, "coeffs", vals)


class OperatorMatrix(_Frozen):
    """An N x N complex matrix."""

    __slots__ = _fields = ("n", "entries")
    n: int
    entries: np.ndarray

    def __init__(self, n: int, entries: np.ndarray) -> None:
        n = _group_order(n)
        mat = _frozen(entries)
        if mat.shape != (n, n):
            raise ValueError(f"expected shape ({n}, {n}), got {mat.shape}")
        _set(self, "n", n)
        _set(self, "entries", mat)


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


def _require_same_lattice(a: CoeffSeq, b: CoeffSeq) -> Lattice:
    if a.lattice != b.lattice:
        raise DimensionMismatch("coefficient sequences live on different lattices")
    return a.lattice


def twisted_conv(a: CoeffSeq, b: CoeffSeq) -> CoeffSeq:
    """Twisted convolution; matches operator composition under represent()."""
    lat = _require_same_lattice(a, b)
    return CoeffSeq(lat, _coeffs_of_sectors(_sectors(a.coeffs, lat) @ _sectors(b.coeffs, lat), lat))


def involution(a: CoeffSeq) -> CoeffSeq:
    """The algebra involution; represent(involution(a)) = represent(a)^H."""
    neg, diag = a.lattice._involution_tables
    return CoeffSeq(a.lattice, diag * np.conj(a.coeffs[neg]))


def weighted_norm(a: CoeffSeq, v: Weight, s: float) -> float:
    """Weighted l1 norm sum |a(lam)| v(lift(lam))^s."""
    if s < 0:
        raise ValueError("weight exponent s must be >= 0")
    lifts = _lifted(a.lattice.as_array(), a.lattice.n)
    return float(np.abs(a.coeffs) @ v.power(s)._grid(lifts[:, 0], lifts[:, 1]))


def _band_index(n: int, a: int) -> np.ndarray:
    """The bands' flat index t*N + (t - i*a) mod N into an N x N matrix,
    (N/a, N) intp: the translates of 0 .. N-1 at the time shifts i*a."""
    return _translates(np.arange(n))[::a] + n * np.arange(n)


def _sector_tables_of(lat: Lattice) -> tuple[np.ndarray, ...]:
    """Copy j's coordinates: the times t + j*h*N/b (q', a/q', K, c) and the
    twist times pi(j*mu)'s phase, over sqrt(K), and its inverse.  The distinct
    sectors' entries [r, u, rho, rho'] (a/q', K, c, c) before the FFT over u:
    where each sits in the flattened band spectra (N/a, N/b), once, its band
    phase times conj(tw[u, rho]), the inverse's, over N/b and K, and the
    inverse index.  The inverse FFTs take norm="forward", which skips their
    scaling; phases are exp(pi*i*e/N), e integer mod 2N.  The lattice keeps
    them, read-only, as Lattice._sector_tables."""
    n, (a, s, b) = lat.n, lat.basis
    m, p, g = n // a, n // b, math.gcd(n // a, b)
    c, copies = m // g, b // g
    k = m // c
    u, rho = np.divmod(np.arange(m).reshape(k, c), c)
    turn = (s * a * c) % (2 * n) * ((2 * u * rho + c * u * (u - k)) % (2 * n)) % (2 * n)
    h = pow(m // g, -1, copies)  # mu = h*(N/b, (N/b)*s/a), N/b = (m/g)*(a/q')
    j = np.arange(copies).reshape(-1, 1, 1, 1)
    t = np.arange(a // copies).reshape(-1, 1, 1) + a * np.arange(m).reshape(k, c)
    times = (t + j * (h * p % n)) % n
    twist = (-turn - 2 * (j * (h * p * s // a) % n) * times) % (2 * n)
    i = (np.arange(m).reshape(k, c, 1) - np.arange(c)) % m
    at = i * p + t[..., None] % p
    phase = (2 * ((i * s % b) * t[..., None] % n) - turn[..., None]) % (2 * n)
    back = np.empty(at.size, dtype=np.intp)
    back[at.ravel()] = np.arange(at.size)
    twist, phase = np.exp(1j * np.pi * twist / n) / math.sqrt(k), np.exp(1j * np.pi * phase / n)
    return times, twist, twist.conj(), at, phase, phase.conj() / (p * k), back


def _sectors(coeffs: np.ndarray, lat: Lattice) -> np.ndarray:
    """The distinct sectors (a/q', K, c, c) of the element with these
    coefficients, gathered from its band spectra (N/a, N/b): one inverse FFT
    over N/b, the gather, one over K."""
    at, phase = lat._sector_tables[3:5]
    spec = np.fft.ifft(coeffs.reshape(-1, lat.n // lat.basis[2]), norm="forward")
    return np.fft.fft(spec.reshape(-1)[at] * phase, axis=-3)


def _coeffs_of_sectors(sectors: np.ndarray, lat: Lattice) -> np.ndarray:
    """The inverse of _sectors: the coefficients of the element with these
    distinct sectors (a/q', K, c, c), gathered back through the inverse index."""
    unphase, back = lat._sector_tables[5:]
    spec = (np.fft.ifft(sectors, axis=-3, norm="forward") * unphase).reshape(-1)[back]
    return np.fft.fft(spec.reshape(-1, lat.n // lat.basis[2])).reshape(-1)


def _sector_vectors(v: np.ndarray, lat: Lattice) -> np.ndarray:
    """Vectors v [w, N] in the sectors' basis, [q', a/q', K, c, w], each copy
    in its representative's: represent(x) @ v.T there is _sectors(x) @ it."""
    times, twist = lat._sector_tables[:2]
    return np.fft.fft(v.T[times] * twist[..., None], axis=-3)


def _vectors_of_sectors(y: np.ndarray, lat: Lattice) -> np.ndarray:
    """The inverse of _sector_vectors: [q', a/q', K, c, w] to [w, N]."""
    times, _, untwist = lat._sector_tables[:3]
    out = np.empty((y.shape[-1], lat.n), dtype=complex)
    out.T[times] = np.fft.ifft(y, axis=-3, norm="forward") * untwist[..., None]
    return out


def represent(a: CoeffSeq) -> OperatorMatrix:
    """Assemble the matrix sum of shift matrices weighted by the coefficients:
    its bands at the lattice's time shifts; the other bands are zero."""
    lat, n = a.lattice, a.lattice.n
    mat = np.zeros((n, n), dtype=complex)  # before the temporaries, so they free from the heap top
    grid = np.zeros((n // lat.basis[0], n), dtype=complex)
    grid.reshape(-1)[lat._grid_index] = a.coeffs
    mat.reshape(-1)[_tables(_band_index, n, lat.basis[0])] = np.fft.ifft(grid, norm="forward")
    mat.setflags(write=False)  # handed over: OperatorMatrix shares it rather than copying
    return OperatorMatrix(n, mat)


def coefficients_of(A, lat: Lattice) -> tuple[CoeffSeq, float]:
    """Recover lattice coefficients of a matrix by the trace pairing.

    a(lam) = trace(A pi(lam)^H) / N, read off the bands.  The returned
    residual is the Frobenius
    distance between A and the reassembled span element; it vanishes exactly
    when A lies in the span of the lattice shifts.
    """
    # the one N x N temporary: a copy of A, whose bands become what is left
    # of them outside the lattice's frequencies; the entries off the bands
    # lie outside the span
    rest = np.array(A.entries if isinstance(A, OperatorMatrix) else A, dtype=complex, order="C")
    n = lat.n
    if rest.shape != (n, n):
        raise DimensionMismatch(f"matrix shape {rest.shape} does not match order {n}")
    index, at = _tables(_band_index, n, lat.basis[0]), lat._grid_index
    spec = np.fft.fft(rest.take(index)).reshape(-1)
    seq = CoeffSeq(lat, spec[at] / n)
    spec[at] = 0
    rest.reshape(-1)[index] = np.fft.ifft(spec.reshape(index.shape))
    return seq, float(np.linalg.norm(rest))


def invert_in_algebra(a: CoeffSeq) -> CoeffSeq:
    """Invert an element within the span of its lattice's shifts.

    The distinct sectors' singular values are the whole represented matrix's
    up to multiplicity, so they give the verdict; the inverse is then taken
    sector by sector.  It lands back in the span: the finite shadow of spectral
    invariance, which the tests check against the dense inverse.
    """
    sectors = _sectors(a.coeffs, a.lattice)
    svals = np.linalg.svd(sectors, compute_uv=False)
    smallest = float(svals.min())
    if smallest <= INVERTIBILITY_TOL * svals.max():
        raise SingularElement(smallest)
    return CoeffSeq(a.lattice, _coeffs_of_sectors(np.linalg.inv(sectors), a.lattice))


def trace_tau(a: CoeffSeq) -> complex:
    """The canonical trace: the coefficient at the origin."""
    return complex(a.coeffs[0])


def spectrum(a: CoeffSeq) -> np.ndarray:
    """Eigenvalues (with multiplicity) of the represented matrix: each distinct
    sector's, repeated once for each of its q' copies."""
    eigs = np.linalg.eigvals(_sectors(a.coeffs, a.lattice)).ravel()
    return np.tile(eigs, a.lattice.n // eigs.size)
