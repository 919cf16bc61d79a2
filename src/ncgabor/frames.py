"""Gabor systems and frame operators on Z_N.

A Gabor system is the family of all lattice shifts of one or more windows.
Its frame operator commutes with every lattice shift, so it lies in the
algebra of the adjoint lattice L°: it is the represented element

    vol^{-1} sum_w <g_w, pi(mu) g_w>,  mu in L°,

the Janssen coefficients summed over the windows (the A(L°)-valued inner
product <g, g> of the Morita equivalence).  janssen_representation returns
them for a pair of windows; the frame element is the same computation on the
stacked windows.  Everything the designs need comes from the algebra's
sectors of that element (algebra._sectors): L°'s basis is (N/b, s°), (0, N/a),
so they are N/c sectors of size c x c, c = b/gcd(b, N/a), and c = 1 (the
Zak-domain diagonalization of Zibulski-Zeevi) when the redundancy |L|/N is
an integer.  One batched eigendecomposition of the sectors gives the frame
bounds and verdict and applies S^-1 (dual windows) or S^-1/2 (tight windows)
to every window in the sectors' basis (algebra._sector_vectors).  It is
taken once per system and kept, read-only, on the frozen system, whose
windows are Signals (read-only values that alias no writable view), so
frame_bounds, canonical_dual and canonical_tight on one system build the
frame element and run eigh once between them.
frame_operator is represent of the element.  Analysis and synthesis are the
algebra's coefficient-band pair (algebra._fold, algebra._tile) with the
windows shifted to the lattice's fiber points as rows (algebra._fiber_windows:
the translates times the lattice's cached band phase): analysis folds f times
their conjugate, one length-N/b FFT per time shift; synthesis tiles the
coefficients, one length-N/b inverse FFT per time shift, and sums the rows.  The fundamental
identity below is the two-sided inner-product form of the same expansion.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Signal, _check_same_n
from .lattice import Lattice, adjoint_lattice, volume
from .algebra import (
    CoeffSeq,
    OperatorMatrix,
    _fiber_windows,
    _fold,
    _sector_vectors,
    _sectors,
    _tile,
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
    "hermitian_inverse_sqrt",
]

FRAME_DECISION_TOL = 1e-10
EIGENVALUE_FLOOR_REL = 1e-14


class NotAFrame(ArithmeticError):
    """The system's lower frame bound is numerically zero."""

    def __init__(self, lower_bound: float):
        super().__init__(f"system is not a frame (lower bound {lower_bound:.3e})")
        self.lower_bound = lower_bound


@dataclass(frozen=True)
class GaborSystem:
    """Windows plus a lattice; the system is all lattice shifts of all windows."""

    windows: tuple[Signal, ...]
    lattice: Lattice

    def __post_init__(self) -> None:
        if not isinstance(self.lattice, Lattice):
            raise TypeError(f"the lattice must be a Lattice, got {type(self.lattice).__name__}")
        windows = tuple(self.windows)
        if not windows:
            raise ValueError("a Gabor system needs at least one window")
        for w in windows:
            if not isinstance(w, Signal):
                raise TypeError(f"every window must be a Signal, got {type(w).__name__}")
        object.__setattr__(self, "windows", windows)
        _check_same_n(self.lattice.n, *(w.n for w in windows))
        if all(w.is_zero() for w in windows):
            raise ValueError("at least one window must be nonzero")

    @property
    def n(self) -> int:
        return self.lattice.n

    @cached_property
    def _spectrum(self) -> tuple[Lattice, np.ndarray, np.ndarray]:
        """L° and the eigenvalues and eigenvectors of the frame element's
        sectors, read-only: one eigh for the system's whole life."""
        elem = _frame_element(self)
        eigs, vecs = np.linalg.eigh(_sectors(elem))
        eigs.setflags(write=False)
        vecs.setflags(write=False)
        return elem.lattice, eigs, vecs


@dataclass(frozen=True)
class FrameBounds:
    lower: float
    upper: float
    is_frame: bool


def _windows(sys: GaborSystem) -> np.ndarray:
    """The windows as the rows of one array."""
    return np.stack([w.values for w in sys.windows])


def _janssen(h: np.ndarray, g: np.ndarray, lat: Lattice) -> CoeffSeq:
    """vol^{-1} sum_w <h_w, pi(mu) g_w> on the adjoint lattice, summed over
    the leading (window) axes that h and g pair; OverflowError past the float
    range."""
    adj = adjoint_lattice(lat)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = (1.0 / float(volume(lat))) * _analysis(h, g, adj).reshape(-1, adj.size).sum(axis=0)
    if not np.all(np.isfinite(coeffs)):
        raise OverflowError("the Janssen coefficients exceed the float range")
    return CoeffSeq(adj, coeffs)


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


def hermitian_inverse_sqrt(mat: np.ndarray) -> np.ndarray:
    """Inverse square root of a Hermitian PSD matrix by eigendecomposition.

    Eigenvalues below EIGENVALUE_FLOOR_REL times the largest contribute
    nothing instead of amplifying numerically null directions.
    """
    eigs, vecs = np.linalg.eigh(mat)
    floor = eigs[-1] * EIGENVALUE_FLOOR_REL
    inv = np.where(eigs > floor, 1.0 / np.sqrt(np.where(eigs > floor, eigs, 1.0)), 0.0)
    return (vecs * inv) @ vecs.conj().T


def _frame_power(sys: GaborSystem, power: float) -> list[Signal]:
    """S^power applied to every window, S the frame operator of the system.

    The system's eigendecomposition of the frame element's sectors gives both
    the frame verdict and the power, applied to the windows in the sectors' basis.
    """
    adj, eigs, vecs = sys._spectrum
    bounds = _bounds(eigs)
    if not bounds.is_frame:
        raise NotAFrame(bounds.lower)
    y = _sector_vectors(_windows(sys), adj)
    y = vecs @ ((vecs.conj().swapaxes(-1, -2) @ y) * eigs[..., None] ** power)
    return [Signal(sys.n, row) for row in _vectors_of_sectors(y, adj)]


def canonical_dual(sys: GaborSystem) -> list[Signal]:
    """Apply the inverse frame operator to every window."""
    return _frame_power(sys, -1.0)


def canonical_tight(sys: GaborSystem) -> list[Signal]:
    """Apply the inverse-square-root frame operator; the result is Parseval."""
    return _frame_power(sys, -0.5)


def _analysis(f: np.ndarray, g: np.ndarray, lat: Lattice) -> np.ndarray:
    """<f, pi(lam) g> as [..., |L|] in canonical order; leading axes of g are
    further windows, and leading axes of f pair with them."""
    return _fold(f[..., None, :] * np.conj(_fiber_windows(lat, g)), lat)


def _synthesis(coeffs: np.ndarray, g: np.ndarray, lat: Lattice) -> np.ndarray:
    """sum c[..., lam] pi(lam) g over the lattice, summed over windows too."""
    return _tile(coeffs, lat, _fiber_windows(lat, g)).reshape(-1, lat.n).sum(axis=0)


def analysis_coefficients(f: Signal, g: Signal, lat: Lattice) -> np.ndarray:
    """Samples <f, pi(lam) g> over the lattice, in canonical order."""
    _check_same_n(lat.n, f.n, g.n)
    return _analysis(f.values, g.values, lat)


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
    sigs = np.stack([f1.values, f2.values, g1.values, g2.values])
    on_lat = _analysis(sigs[[0, 1]], sigs[[2, 3]], lat)  # <f1, pi g1>, <f2, pi g2>
    on_adj = _analysis(sigs[[0, 2]], sigs[[1, 3]], adjoint_lattice(lat))  # <f1, pi f2>, <g1, pi g2>
    lhs = complex(np.vdot(on_lat[1], on_lat[0]))
    rhs = complex(np.vdot(on_adj[1], on_adj[0])) / float(volume(lat))
    return float(abs(lhs - rhs) / (1.0 + abs(lhs)))


def reconstruct(f: Signal, sys: GaborSystem, duals: list[Signal]) -> Signal:
    """Analyze against the duals, synthesize with the system windows."""
    if len(duals) != len(sys.windows):
        raise ValueError(
            f"{len(duals)} dual windows for {len(sys.windows)} system windows"
        )
    _check_same_n(sys.n, f.n, *(d.n for d in duals))
    coeffs = _analysis(f.values, np.stack([d.values for d in duals]), sys.lattice)
    return Signal(sys.n, _synthesis(coeffs, _windows(sys), sys.lattice))
