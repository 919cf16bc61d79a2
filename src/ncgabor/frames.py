"""Gabor systems and frame operators on Z_N.

A Gabor system is the family of all lattice shifts of one or more windows.
Every computation here works in the lattice's fibers.  With the normal-form
basis (a, s), (0, b) of the lattice and m = N/b, the lattice holds every
modulation by a multiple of b, so the frame operator S links t and t' only
when t = t' mod m: ordered by t = r + m*q, S is block diagonal, m blocks of
size b x b,

    block_r[q, q'] = m * sum_i X[i, r + m q] conj(X[i, r + m q']),

where the rows of X are the windows shifted to the lattice's time shifts
(i a, i s mod b), all built by one call of the shift kernel.  One batched
matmul builds the blocks in O(N^2 b/a) per window, against O(N^2 |L|) for
the dense G G^H, which is kept only as a test oracle.  One batched
eigendecomposition of the blocks (O(N b^2)) gives the frame bounds and
verdict and applies S^-1 (dual windows) or S^-1/2 (tight windows) to every
window.  frame_operator scatters the blocks into the N x N matrix.  Analysis
takes one length-N FFT of f * conj(g(t - i a)) per lattice time shift and
reads it at that shift's frequencies (O(N^2 log N / a), no N x N STFT).
Synthesis is one length-m inverse FFT of each time shift's coefficients,
tiled along t and weighted by X.

The frame operator commutes with every lattice shift, which is why it also
expands over the adjoint lattice: the coefficients of that expansion,
vol^{-1} <h, pi(adjoint point) g>, reproduce the operator exactly in this
finite model, and the fundamental identity below is the two-sided
inner-product form of the same fact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, Signal, _shifted
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


def _fiber_width(lat: Lattice) -> int:
    """m = N/b, the number of fibers: t and t' share one when t = t' mod m."""
    return lat.n // lat.basis[2]


def _fibers(lat: Lattice, g: np.ndarray) -> np.ndarray:
    """Copies of g shifted to the lattice's time shifts (i a, i s mod b), one row each.

    Those are the lattice points with j = 0, every (N/b)-th in canonical
    order; leading axes of g are further windows.
    """
    return _shifted(lat.as_array()[:: _fiber_width(lat)], g)


def _frame_blocks(sys: GaborSystem) -> np.ndarray:
    """The m diagonal blocks (m, b, b) of the frame operator in the order t = r + m*q."""
    m = _fiber_width(sys.lattice)
    b = sys.n // m
    # X[row, t] -> x[r, q, row] with t = r + m*q, contiguous for the batched matmul
    x = np.ascontiguousarray(_fibers(sys.lattice, _windows(sys)).reshape(-1, b, m).T)
    return m * (x @ x.conj().transpose(0, 2, 1))


def frame_operator(sys: GaborSystem) -> OperatorMatrix:
    """Hermitian positive semidefinite frame operator, its fiber blocks scattered into place."""
    t = np.arange(sys.n).reshape(-1, _fiber_width(sys.lattice)).T  # t[r, q] = r + m*q
    S = np.zeros((sys.n, sys.n), dtype=complex)
    S[t[:, :, None], t[:, None, :]] = _frame_blocks(sys)
    S.setflags(write=False)  # handed over: OperatorMatrix shares it rather than copying
    return OperatorMatrix(sys.n, S)


def _bounds(eigs: np.ndarray) -> FrameBounds:
    """Frame bounds and verdict from the eigenvalues of every fiber block."""
    lower, upper = float(eigs.min()), float(eigs.max())
    return FrameBounds(lower, upper, upper > 0 and lower > FRAME_DECISION_TOL * upper)


def frame_bounds(sys: GaborSystem) -> FrameBounds:
    """Extreme eigenvalues of the frame operator and the frame verdict."""
    return _bounds(np.linalg.eigvalsh(_frame_blocks(sys)))


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

    One eigendecomposition of the fiber blocks gives both the frame verdict
    and the power, applied to each window's fibers block by block.
    """
    eigs, vecs = np.linalg.eigh(_frame_blocks(sys))
    bounds = _bounds(eigs)
    if not bounds.is_frame:
        del vecs  # the traceback keeps this frame's locals alive as long as the exception
        raise NotAFrame(bounds.lower)
    m = _fiber_width(sys.lattice)
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
    """<f, pi(i a, i s mod b + j b) g> as [..., i, j]; leading axes of g are further windows.

    One length-N FFT of f * conj(g(t - i a)) per time shift of the lattice,
    read at that shift's frequencies: the same numbers as the STFT's samples.
    """
    ks = np.arange(0, lat.n, lat.basis[0])
    translates = _shifted(np.stack([ks, np.zeros_like(ks)], axis=1), g)
    spectra = np.fft.fft(f * translates.conj(), axis=-1)
    freqs = lat.as_array()[:, 1].reshape(len(ks), -1)
    return spectra[..., np.arange(len(ks))[:, None], freqs]


def _synthesis(coeffs: np.ndarray, fibers: np.ndarray) -> np.ndarray:
    """sum c[..., i, j] pi(i a, i s mod b + j b) g, summed over windows too.

    Row i contributes X[i, t] times a length-m inverse FFT of c[i] at t mod m.
    """
    m = coeffs.shape[-1]
    phases = np.fft.ifft(coeffs, axis=-1).reshape(-1, 1, m) * m
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
    coeffs = _analysis(f.values, np.stack([d.values for d in duals]), sys.lattice)
    return Signal(sys.n, _synthesis(coeffs, _fibers(sys.lattice, _windows(sys))))
