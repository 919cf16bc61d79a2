"""Gabor systems and frame operators on Z_N.

A Gabor system is the family of all lattice shifts of one or more windows.
Its frame operator S = sum_lam pi(lam) (sum_w g_w g_w^H) pi(lam)^H averages
the windows' Gram over the lattice, so it commutes with every lattice shift
and lies in the algebra of the adjoint lattice L°: it is |L| times the
orthogonal projection of the Gram onto the span of L°'s shifts, the element

    vol^{-1} sum_w <g_w, pi(mu) g_w>,  mu in L°,

of Janssen coefficients summed over the windows (the A(L°)-valued inner
product <g, g> of the Morita equivalence).  It is built in L°'s sectors
(algebra.py): L°'s basis is (N/b, s°), (0, N/a), so they are N/c
sectors of size c x c, c = b/gcd(b, N/a), and c = 1 (the Zak-domain
diagonalization of Zibulski-Zeevi) when the redundancy |L|/N is an integer;
they are q' = N*c/|L°| copies of |L°|/c^2 distinct sectors.  The windows in
the sectors' basis (algebra._sector_vectors, [q', ..., c, w]) give the
Gram's c x c diagonal blocks, one batched matmul, and their mean over the
copies is the projection onto A(L°): the element's distinct sectors, with
no FFT, whence its coefficients (janssen_representation) by the inverse
gather.  One batched eigendecomposition of the distinct sectors gives the
frame bounds and verdict and applies S^-1 (dual windows) or S^-1/2 (tight
windows) to every copy of every window in that basis, once per system:
the frozen system keeps it, read-only, with the windows' w*N coordinates.
reconstruct is the right action of the mixed Janssen (Wexler-Raz) element
|L| P(sum_w g_w gamma_w^H) of A(L°), windows g and duals gamma, the mean
over the copies of their mixed Gram, on f's coordinates in L°'s sectors: it
forms no coefficients on L.  frame_operator
is represent of the element.  Analysis is the same construction with L and
L° swapped, the other inner product of the Morita equivalence (Rieffel
1988): <f, pi(lam) g> is N times the coefficients of the projection of
f g^H onto A(L), read in L's sectors in O(N + |L|) memory (Søndergaard
2007).  The fundamental identity below is the two-sided inner-product form
of the same expansion: its sides pair Grams in L's sectors and in L°'s.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .core import Signal
from .lattice import Lattice, _check_same_n, _Frozen, _Value, adjoint_lattice
from .algebra import (
    CoeffSeq,
    OperatorMatrix,
    _coeffs_of_sectors,
    _sector_vectors,
    _vectors_of_sectors,
    represent,
)

__all__ = [
    "GaborSystem",
    "FrameBounds",
    "NotAFrame",
    "frame_operator",
    "frame_bounds",
    "canonical_dual",
    "canonical_tight",
    "janssen_representation",
    "figa_check",
    "reconstruct",
    "analysis_coefficients",
]

FRAME_DECISION_TOL = 1e-10


class NotAFrame(ArithmeticError):
    """The system's lower frame bound is numerically zero."""

    def __init__(self, lower_bound: float):
        super().__init__(f"system is not a frame (lower bound {lower_bound:.3e})")
        self.lower_bound = lower_bound


class GaborSystem(_Frozen):
    """Windows plus a lattice; the system is all lattice shifts of all windows.
    Its spectrum is a cached property, kept in its __dict__."""

    _fields = ("windows", "lattice")
    windows: tuple[Signal, ...]
    lattice: Lattice

    def __init__(self, windows: tuple[Signal, ...], lattice: Lattice) -> None:
        if not isinstance(lattice, Lattice):
            raise TypeError(f"the lattice must be a Lattice, got {type(lattice).__name__}")
        windows = tuple(windows)
        if not windows:
            raise ValueError("a Gabor system needs at least one window")
        for w in windows:
            if not isinstance(w, Signal):
                raise TypeError(f"every window must be a Signal, got {type(w).__name__}")
        _check_same_n(lattice.n, *(w.n for w in windows))
        if all(w.is_zero() for w in windows):
            raise ValueError("at least one window must be nonzero")
        self._assign(windows, lattice)

    @property
    def n(self) -> int:
        return self.lattice.n

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The windows in L°'s sectors' basis, and the eigenvalues and
        eigenvectors of the frame element's distinct sectors, read-only: one
        transform of the windows and one eigh for the system's whole life."""
        y = _sector_vectors(_windows(self), adjoint_lattice(self.lattice))
        eigs, vecs = np.linalg.eigh(_projected_gram(y, y, self.lattice))
        for arr in (y, eigs, vecs):
            arr.setflags(write=False)
        return y, eigs, vecs


class FrameBounds(_Value):
    __slots__ = _fields = ("lower", "upper", "is_frame")
    lower: float
    upper: float
    is_frame: bool

    def __init__(self, lower: float, upper: float, is_frame: bool) -> None:
        self._assign(lower, upper, is_frame)


def _windows(sys: GaborSystem) -> np.ndarray:
    """The windows as the rows of one array."""
    return np.array([w.values for w in sys.windows])


def _projected_gram(yh: np.ndarray, yg: np.ndarray, lat: Lattice) -> np.ndarray:
    """|L| times the projection onto A(L°) of the Gram sum_w h_w g_w^H, for
    windows given in L°'s sectors' basis as yh and yg [q', ..., w]: the
    distinct sectors of vol^{-1} sum_w <h_w, pi(mu) g_w>, the mean of the
    Gram's diagonal blocks over the copies.  OverflowError past the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        sectors = (yh @ yg.conj().swapaxes(-1, -2)).sum(axis=0) * (lat.size / len(yh))
    if not np.isfinite(sectors).all():  # a BLAS matmul sets no numpy flag
        raise OverflowError("the Janssen coefficients exceed the float range")
    return sectors


def _janssen(h: np.ndarray, g: np.ndarray, lat: Lattice) -> CoeffSeq:
    """vol^{-1} sum_w <h_w, pi(mu) g_w> on the adjoint lattice, for windows
    the rows of h and g."""
    adj = adjoint_lattice(lat)
    yh = _sector_vectors(h.reshape(-1, lat.n), adj)
    yg = yh if g is h else _sector_vectors(g.reshape(-1, lat.n), adj)
    return CoeffSeq(adj, _coeffs_of_sectors(_projected_gram(yh, yg, lat), adj))


def _frame_element(sys: GaborSystem) -> CoeffSeq:
    """The frame operator as an element of the adjoint lattice's algebra."""
    windows = _windows(sys)
    return _janssen(windows, windows, sys.lattice)


def frame_operator(sys: GaborSystem) -> OperatorMatrix:
    """Hermitian positive semidefinite frame operator: the frame element represented."""
    return represent(_frame_element(sys))


def _bounds(eigs: np.ndarray) -> FrameBounds:
    """Frame bounds and verdict from the eigenvalues of every sector."""
    lower, upper = float(eigs.min()), float(eigs.max())
    return FrameBounds(lower, upper, upper > 0 and lower > FRAME_DECISION_TOL * upper)


def frame_bounds(sys: GaborSystem) -> FrameBounds:
    """Extreme eigenvalues of the frame operator and the frame verdict."""
    return _bounds(sys._spectrum[1])


def _frame_power(sys: GaborSystem, power: float) -> list[Signal]:
    """S^power applied to every window, S the frame operator of the system.

    The system's eigendecomposition of the frame element's distinct sectors
    gives the verdict and the power, broadcast over the windows' copies.
    """
    y, eigs, vecs = sys._spectrum
    bounds = _bounds(eigs)
    if not bounds.is_frame:
        raise NotAFrame(bounds.lower)
    y = vecs @ ((vecs.conj().swapaxes(-1, -2) @ y) * eigs[..., None] ** power)
    return [Signal(sys.n, row) for row in _vectors_of_sectors(y, adjoint_lattice(sys.lattice))]


def canonical_dual(sys: GaborSystem) -> list[Signal]:
    """Apply the inverse frame operator to every window."""
    return _frame_power(sys, -1.0)


def canonical_tight(sys: GaborSystem) -> list[Signal]:
    """Apply the inverse-square-root frame operator; the result is Parseval."""
    return _frame_power(sys, -0.5)


def _grams(x: np.ndarray, y: np.ndarray, lat: Lattice) -> tuple[np.ndarray, float]:
    """The Grams x_w y_w^H of rows x, y [w, N] (or one row of x for all of y)
    in L's sectors, summed over the copies, [a/q', K, c, c, w], and N/q': a
    Gram is q' times the projection onto A(L), so N/q' times its coefficients
    are <x_w, pi(lam) y_w>."""
    v = _sector_vectors(np.concatenate([x, y]), lat)
    vx, vy = v[..., : len(x)], v[..., len(x) :]
    return (vx[..., :, None, :] * vy[..., None, :, :].conj()).sum(axis=0), lat.n / len(v)


def _pairing(x: np.ndarray, y: np.ndarray, lat: Lattice) -> complex:
    """sum_lam <x_0, pi(lam) y_0> conj(<x_1, pi(lam) y_1>) for rows x, y [2, N]:
    N/q' times the Frobenius pairing of their Grams, by trace orthogonality."""
    grams, scale = _grams(x, y, lat)
    return scale * complex(np.vdot(grams[..., 1], grams[..., 0]))


def analysis_coefficients(f: Signal, g: Signal, lat: Lattice) -> np.ndarray:
    """Samples <f, pi(lam) g> over the lattice, in canonical order: N times
    the coefficients of the projection of f g^H onto A(L), read in L's sectors."""
    _check_same_n(lat.n, f.n, g.n)
    grams, scale = _grams(f.values[None], g.values[None], lat)
    return scale * _coeffs_of_sectors(grams[..., 0], lat)


def janssen_representation(g: Signal, h: Signal, lat: Lattice) -> CoeffSeq:
    """Adjoint-lattice expansion of the frame-type operator of (g, h).

    Returns coefficients  vol^{-1} <h, pi(adjoint point) g>  on the adjoint
    lattice; representing them reproduces the operator that maps f to
    sum <f, pi(lam) g> pi(lam) h over the original lattice.
    """
    _check_same_n(lat.n, g.n, h.n)
    return _janssen(h.values, g.values, lat)


def figa_check(
    f1: Signal,
    f2: Signal,
    g1: Signal,
    g2: Signal,
    lat: Lattice,
) -> float:
    """Residual of the fundamental identity relating lattice and adjoint sums.

    |LHS - RHS| / (1 + |LHS|) for
      LHS = sum_lattice <f1, pi g1> <pi g2, f2>,
      RHS = vol^{-1} sum_adjoint <f1, pi f2> <pi g2, g1>.
    The identity holds for every quadruple in the finite model.
    """
    _check_same_n(lat.n, f1.n, f2.n, g1.n, g2.n)
    sigs = np.array([f1.values, f2.values, g1.values, g2.values])
    lhs = _pairing(sigs[[0, 1]], sigs[[2, 3]], lat)  # <f1, pi g1>, <f2, pi g2>
    rhs = _pairing(sigs[[0, 2]], sigs[[1, 3]], adjoint_lattice(lat)) / (lat.n / lat.size)
    return float(abs(lhs - rhs) / (1.0 + abs(lhs)))


def reconstruct(f: Signal, sys: GaborSystem, duals: list[Signal]) -> Signal:
    """sum_lam <f, pi(lam) gamma> pi(lam) g, summed over the windows g and
    their duals gamma: the mixed element |L| P(g gamma^H) of A(L°), the
    Janssen representation of the pair, applied to f in L°'s sectors."""
    w = len(sys.windows)
    if len(duals) != w:
        raise ValueError(f"{len(duals)} dual windows for {w} system windows")
    _check_same_n(sys.n, f.n, *(d.n for d in duals))
    adj = adjoint_lattice(sys.lattice)
    y = _sector_vectors(np.array([v.values for v in (*sys.windows, *duals, f)]), adj)
    mixed = _projected_gram(y[..., :w], y[..., w:-1], sys.lattice)
    return Signal(sys.n, _vectors_of_sectors(mixed @ y[..., -1:], adj)[0])
