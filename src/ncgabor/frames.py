"""Gabor systems and frame operators on Z_N.

A Gabor system is the family of all lattice shifts of one or more windows.
Its frame operator commutes with every lattice shift, so it lies in the
algebra of the adjoint lattice L°: it is the represented element

    vol^{-1} sum_w <g_w, pi(mu) g_w>,  mu in L°,

the Janssen coefficients summed over the windows (the A(L°)-valued inner
product <g, g> of the Morita equivalence).  janssen_representation returns
them for a pair of windows; the frame element is the same computation on the
stacked windows.  Everything the designs need comes from the algebra's
fiber blocks of that element (algebra._blocks): L°'s first basis entry is
N/b, so they are N/b blocks of size b x b.  One batched eigendecomposition of
them gives the frame bounds and verdict and applies S^-1 (dual windows) or
S^-1/2 (tight windows) to every window; frame_operator is represent of the
element.  Analysis takes one length-N FFT of f * conj(g(t - k)) per lattice
time shift k (core._spectra, shared with the STFT) and reads it at that
shift's frequencies; synthesis is one length-N/b inverse FFT of each time
shift's coefficients, tiled along t and weighted by the shifted windows.
The fundamental identity below is the two-sided inner-product form of the
same expansion.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, Signal, _shifted, _spectra
from .lattice import Lattice, adjoint_lattice, volume
from .algebra import CoeffSeq, OperatorMatrix, _blocks, represent

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
        if not self.windows:
            raise ValueError("a Gabor system needs at least one window")
        object.__setattr__(self, "windows", tuple(self.windows))
        for w in self.windows:
            if w.n != self.lattice.n:
                raise DimensionMismatch(
                    f"window of length {w.n} on a lattice of order {self.lattice.n}"
                )
        if all(w.is_zero() for w in self.windows):
            raise ValueError("at least one window must be nonzero")

    @property
    def n(self) -> int:
        return self.lattice.n


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
    the leading (window) axes that h and g pair."""
    adj = adjoint_lattice(lat)
    coeffs = _analysis(h, g, adj).reshape(-1, adj.size).sum(axis=0)
    return CoeffSeq(adj, (1.0 / float(volume(lat))) * coeffs)


def _frame_element(sys: GaborSystem) -> CoeffSeq:
    """The frame operator as an element of the adjoint lattice's algebra."""
    windows = _windows(sys)
    return _janssen(windows, windows, sys.lattice)


def frame_operator(sys: GaborSystem) -> OperatorMatrix:
    """Hermitian positive semidefinite frame operator: the frame element represented."""
    return represent(_frame_element(sys))


def _bounds(eigs: np.ndarray) -> FrameBounds:
    """Frame bounds and verdict from the eigenvalues of every fiber block."""
    lower, upper = float(eigs.min()), float(eigs.max())
    return FrameBounds(lower, upper, upper > 0 and lower > FRAME_DECISION_TOL * upper)


def frame_bounds(sys: GaborSystem) -> FrameBounds:
    """Extreme eigenvalues of the frame operator and the frame verdict."""
    return _bounds(np.linalg.eigvalsh(_blocks(_frame_element(sys))))


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

    One eigendecomposition of the frame element's fiber blocks gives both
    the frame verdict and the power, applied to each window's fibers block
    by block: block r holds the times t = r + m*q.
    """
    eigs, vecs = np.linalg.eigh(_blocks(_frame_element(sys)))
    bounds = _bounds(eigs)
    if not bounds.is_frame:
        del vecs  # the traceback keeps this frame's locals alive as long as the exception
        raise NotAFrame(bounds.lower)
    m = len(eigs)
    fibered = _windows(sys).reshape(len(sys.windows), -1, m).T  # [r, q, window]
    out = vecs @ ((vecs.conj().transpose(0, 2, 1) @ fibered) * eigs[:, :, None] ** power)
    return [Signal(sys.n, row) for row in out.T.reshape(len(sys.windows), sys.n)]


def canonical_dual(sys: GaborSystem) -> list[Signal]:
    """Apply the inverse frame operator to every window."""
    return _frame_power(sys, -1.0)


def canonical_tight(sys: GaborSystem) -> list[Signal]:
    """Apply the inverse-square-root frame operator; the result is Parseval."""
    return _frame_power(sys, -0.5)


def _analysis(f: np.ndarray, g: np.ndarray, lat: Lattice) -> np.ndarray:
    """<f, pi(i a, i s mod b + j b) g> as [..., i, j]; leading axes of g are
    further windows, and leading axes of f pair with them.

    The STFT's samples at the lattice's time shifts, read at each shift's
    frequencies.
    """
    ks = np.arange(0, lat.n, lat.basis[0])
    freqs = lat.as_array()[:, 1].reshape(len(ks), -1)
    return _spectra(f, g, ks)[..., np.arange(len(ks))[:, None], freqs]


def _synthesis(coeffs: np.ndarray, g: np.ndarray, lat: Lattice) -> np.ndarray:
    """sum c[..., i, j] pi(i a, i s mod b + j b) g, summed over windows too.

    The copies X[i] of g shifted to the lattice's time shifts (i a, i s mod
    b), every (N/b)-th lattice point, each contribute X[i, t] times a
    length-N/b inverse FFT of c[i] at t mod N/b.
    """
    m = lat.n // lat.basis[2]
    fibers = _shifted(lat.as_array()[::m], g)
    phases = np.fft.ifft(coeffs.reshape(-1, m), axis=-1).reshape(-1, 1, m) * m
    return (fibers.reshape(phases.shape[0], -1, m) * phases).sum(axis=0).ravel()


def analysis_coefficients(f: Signal, g: Signal, lat: Lattice) -> np.ndarray:
    """Samples <f, pi(lam) g> over the lattice, in canonical order."""
    if f.n != lat.n or g.n != lat.n:
        raise DimensionMismatch("signal length does not match lattice order")
    return _analysis(f.values, g.values, lat).ravel()


def janssen_representation(g: Signal, h: Signal, lat: Lattice) -> CoeffSeq:
    """Adjoint-lattice expansion of the frame-type operator of (g, h).

    Returns coefficients  vol^{-1} <h, pi(adjoint point) g>  on the adjoint
    lattice; representing them reproduces the operator that maps f to
    sum <f, pi(lam) g> pi(lam) h over the original lattice.
    """
    if g.n != lat.n or h.n != lat.n:
        raise DimensionMismatch("window length does not match lattice order")
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
    adj = adjoint_lattice(lat)
    lhs_terms = analysis_coefficients(f1, g1, lat) * np.conj(
        analysis_coefficients(f2, g2, lat)
    )
    rhs_terms = analysis_coefficients(f1, f2, adj) * np.conj(
        analysis_coefficients(g1, g2, adj)
    )
    lhs = complex(np.sum(lhs_terms))
    rhs = complex(np.sum(rhs_terms)) / float(volume(lat))
    return float(abs(lhs - rhs) / (1.0 + abs(lhs)))


def reconstruct(f: Signal, sys: GaborSystem, duals: list[Signal]) -> Signal:
    """Analyze against the duals, synthesize with the system windows."""
    if len(duals) != len(sys.windows):
        raise ValueError(
            f"{len(duals)} dual windows for {len(sys.windows)} system windows"
        )
    if f.n != sys.n or any(d.n != sys.n for d in duals):
        raise DimensionMismatch("signal or dual length does not match the system's order")
    coeffs = _analysis(f.values, np.stack([d.values for d in duals]), sys.lattice)
    return Signal(sys.n, _synthesis(coeffs, _windows(sys), sys.lattice))
