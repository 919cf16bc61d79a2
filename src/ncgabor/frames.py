"""Gabor systems and frame operators on Z_N.

A Gabor system is the family of all lattice shifts of one or more windows.
Its frame operator is assembled as G G^H, where the columns of G are the
shifted windows, all built by one call of the shift kernel.  The dual and
tight windows come from one eigendecomposition of the frame operator, which
also gives their frame verdict.  The frame operator commutes with every
lattice shift, which is why it also expands over the adjoint lattice: the
coefficients of that expansion,  vol^{-1} <h, pi(adjoint point) g>,
reproduce the operator exactly in this finite model, and the fundamental
identity below is the two-sided inner-product form of the same fact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, Signal, _shifted, stft
from .lattice import Lattice, adjoint_lattice, volume
from .algebra import CoeffSeq, OperatorMatrix

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


def _system_columns(sys: GaborSystem) -> np.ndarray:
    """Matrix whose columns are all shifted windows, in canonical order."""
    return _shifted(sys.lattice.as_array(), _windows(sys)).reshape(-1, sys.n).T


def frame_operator(sys: GaborSystem) -> OperatorMatrix:
    """Hermitian positive semidefinite frame operator, assembled as G G^H."""
    G = _system_columns(sys)
    return OperatorMatrix(sys.n, G @ G.conj().T)


def _bounds(eigs: np.ndarray) -> FrameBounds:
    """Frame bounds and verdict from the ascending eigenvalues of the frame operator."""
    lower, upper = float(eigs[0]), float(eigs[-1])
    return FrameBounds(lower, upper, upper > 0 and lower > FRAME_DECISION_TOL * upper)


def frame_bounds(sys: GaborSystem) -> FrameBounds:
    """Extreme eigenvalues of the frame operator and the frame verdict."""
    return _bounds(np.linalg.eigvalsh(frame_operator(sys).entries))


def hermitian_inverse_sqrt(mat: np.ndarray, floor_rel: float = EIGENVALUE_FLOOR_REL) -> np.ndarray:
    """Inverse square root of a Hermitian PSD matrix by eigendecomposition.

    Eigenvalues below floor_rel times the largest contribute nothing instead
    of amplifying numerically null directions.
    """
    eigs, vecs = np.linalg.eigh(mat)
    floor = eigs[-1] * floor_rel
    inv = np.where(eigs > floor, 1.0 / np.sqrt(np.where(eigs > floor, eigs, 1.0)), 0.0)
    return (vecs * inv) @ vecs.conj().T


def _frame_power(sys: GaborSystem, power: float) -> list[Signal]:
    """S^power applied to every window, S the frame operator of the system.

    One eigendecomposition of S gives both the frame verdict and the power.
    """
    eigs, vecs = np.linalg.eigh(frame_operator(sys).entries)
    bounds = _bounds(eigs)
    if not bounds.is_frame:
        del vecs  # the traceback keeps this frame's locals alive as long as the exception
        raise NotAFrame(bounds.lower)
    # <w_i, v_j> eigs_j^power, conjugating the windows rather than the N x N vecs
    coeffs = (_windows(sys).conj() @ vecs).conj() * eigs**power
    return [Signal(sys.n, row) for row in coeffs @ vecs.T]


def canonical_dual(sys: GaborSystem) -> list[Signal]:
    """Apply the inverse frame operator to every window."""
    return _frame_power(sys, -1.0)


def canonical_tight(sys: GaborSystem) -> list[Signal]:
    """Apply the inverse-square-root frame operator; the result is Parseval."""
    return _frame_power(sys, -0.5)


def analysis_coefficients(f: Signal, g: Signal, lat: Lattice) -> np.ndarray:
    """Samples <f, pi(lam) g> over the lattice, in canonical order."""
    if f.n != lat.n or g.n != lat.n:
        raise DimensionMismatch("signal length does not match lattice order")
    table = stft(f, g).values
    pts = lat.as_array()
    return table[pts[:, 0], pts[:, 1]]


def janssen_representation(g: Signal, h: Signal, lat: Lattice) -> CoeffSeq:
    """Adjoint-lattice expansion of the frame-type operator of (g, h).

    Returns coefficients  vol^{-1} <h, pi(adjoint point) g>  on the adjoint
    lattice; representing them reproduces the operator that maps f to
    sum <f, pi(lam) g> pi(lam) h over the original lattice.
    """
    if g.n != lat.n or h.n != lat.n:
        raise DimensionMismatch("window length does not match lattice order")
    adj = adjoint_lattice(lat)
    scale = 1.0 / float(volume(lat))
    coeffs = scale * analysis_coefficients(h, g, adj)
    return CoeffSeq(adj, coeffs)


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
    coeffs = np.concatenate([analysis_coefficients(f, d, sys.lattice) for d in duals])
    return Signal(sys.n, _system_columns(sys) @ coeffs)
