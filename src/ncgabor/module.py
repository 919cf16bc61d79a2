"""Two-sided Hilbert-module structure on signals over a lattice pair.

Signals carry a left action of the lattice algebra and a right action of the
adjoint-lattice algebra.  The left inner product collects the analysis
coefficients as an algebra element; the right inner product samples
<pi(adjoint point) g, f>, stored against the adjoint shifts, with the
covolume factor carried by the right action.  Both inner products are
analyses (frames.py), on L and on L°.  The right action of b is the left
action of one element of the same algebra, vol^{-1} involution(conj b),
whose matrix is vol^{-1} sum b(mu) pi(mu)^H = vol(L°) represent(conj b)^H:
act_right applies the conjugate transpose of conj b's sectors to g in L°'s
sectors, as act_left applies a's in L's (see algebra.py).

Both conventions together make the associativity identity

    act_left(inner_left(f, g), h) = act_right(f, inner_right(g, h))

hold exactly; it is the fundamental identity in operator form.  Of the two
conjugate-placement variants seen for right inner products, the one used
here (<pi g, f>, shift applied to the first argument of the sample) is the
one under which positivity, compatibility and associativity all pass; the
other fails associativity outright.

A family of windows is a module frame exactly when the stacked multi-window
system is a frame; tightening by the inverse square root of the summed frame
operator (the A(L°)-valued inner product of the windows with themselves,
frames._frame_element) realizes the reconstruction identity, whose trace
is the ordinary multi-window Parseval identity.  A lattice of covolume v
needs exactly ceil(v) windows: fewer give fewer than N system vectors, and
ceil(v) generic windows give a frame element on L° whose every sector has
full rank.  That is the finite form of Rieffel's (1988) statement that a
projective module of rank v over A(L) is generated by ceil(v) Gabor atoms.
"""
from __future__ import annotations

import math

import numpy as np

from .core import Signal, random_signal
from .lattice import Lattice, _check_same_n, _Value, adjoint_lattice, volume
from .algebra import CoeffSeq, _sector_vectors, _sectors, _vectors_of_sectors, twisted_conv, unit
from .frames import (
    GaborSystem,
    NotAFrame,
    _frame_element,
    _grams,
    analysis_coefficients,
    canonical_tight,
    frame_bounds,
)

__all__ = [
    "ModuleFrameReport",
    "inner_left",
    "inner_right",
    "act_left",
    "act_right",
    "module_frame_check",
    "multiwindow_parseval_residual",
    "tight_multiwindow",
    "min_windows",
]


def inner_left(f: Signal, g: Signal, lat: Lattice) -> CoeffSeq:
    """Left inner product: analysis coefficients <f, pi(lam) g> on the lattice."""
    _check_same_n(lat.n, f.n, g.n)
    return CoeffSeq(lat, analysis_coefficients(f, g, lat))


def inner_right(f: Signal, g: Signal, lat: Lattice) -> CoeffSeq:
    """Right inner product: coefficients <pi(adjoint point) g, f> on the adjoint.

    The covolume prefactor is not stored; it belongs to the right action,
    so that associativity holds verbatim.
    """
    _check_same_n(lat.n, f.n, g.n)
    adj = adjoint_lattice(lat)
    return CoeffSeq(adj, np.conj(analysis_coefficients(f, g, adj)))


def _acted(sectors: np.ndarray, g: Signal, lat: Lattice) -> Signal:
    """The element of A(L) with these distinct sectors applied to g, in L's sectors."""
    return Signal(g.n, _vectors_of_sectors(sectors @ _sector_vectors(g.values[None], lat), lat)[0])


def act_left(a: CoeffSeq, g: Signal) -> Signal:
    """Left action: sum a(lam) pi(lam) g, equal to represent(a) applied to g."""
    _check_same_n(a.lattice.n, g.n)
    return _acted(_sectors(a.coeffs, a.lattice), g, a.lattice)


def act_right(g: Signal, b: CoeffSeq) -> Signal:
    """Right action: vol^{-1} sum b(mu) pi(mu)^H g over the adjoint lattice.

    Its matrix, vol(L°) represent(conj b)^H (vol(L)^-1 = vol(L°) for b on
    L°), represents the element vol^{-1} involution(conj b) of the adjoint
    lattice's algebra; it is applied as the conjugate transpose of conj b's
    sectors.
    """
    _check_same_n(b.lattice.n, g.n)
    sectors = _sectors(b.lattice.n / b.lattice.size * np.conj(b.coeffs), b.lattice)
    return _acted(sectors.conj().swapaxes(-1, -2), g, b.lattice)


class ModuleFrameReport(_Value):
    """The verdict, its residual, the window count and the covolume, equal by
    these; the tightened windows of a frame ride along."""

    __slots__ = _fields = ("residual", "is_module_frame", "window_count", "vol", "tight_windows")
    residual: float
    is_module_frame: bool
    window_count: int
    vol: Fraction
    tight_windows: tuple[Signal, ...]

    def __init__(self, residual: float, is_module_frame: bool, window_count: int, vol: Fraction,
                 tight_windows: tuple[Signal, ...] = ()) -> None:
        self._assign(residual, is_module_frame, window_count, vol, tight_windows)

    def _key(self) -> tuple:
        return (self.residual, self.is_module_frame, self.window_count, self.vol)


def _identity_residual(windows, lat: Lattice, f: Signal) -> float:
    """l1 gap in  inner_left(f, f) = sum_i inner_left(f, g_i) # inner_left(g_i, f).

    Holds exactly when the windows form a (tight) module frame.
    """
    lhs = inner_left(f, f, lat)
    acc = np.zeros(lat.size, dtype=complex)
    for w in windows:
        acc += twisted_conv(inner_left(f, w, lat), inner_left(w, f, lat)).coeffs
    return float(np.abs(lhs.coeffs - acc).sum())


def multiwindow_parseval_residual(windows, lat: Lattice, f: Signal) -> float:
    """Gap in the scalar identity ||f||^2 = sum_i sum_lam |<f, pi(lam) g_i>|^2."""
    windows = list(windows)
    if not windows:
        raise ValueError("need at least one window")
    _check_same_n(lat.n, f.n, *(w.n for w in windows))
    grams, scale = _grams(f.values[None], np.array([w.values for w in windows]), lat)
    total = scale * float(np.sum(np.abs(grams) ** 2))
    norm_sq = f.norm2() ** 2
    return abs(norm_sq - total) / (1.0 + norm_sq)


def module_frame_check(windows, lat: Lattice) -> ModuleFrameReport:
    """Decide the module-frame property and measure tightening quality.

    The verdict is invertibility of the summed frame operator.  For frames,
    the report carries the tightened windows, and its residual is the
    Frobenius distance of their frame operator from the identity, read on
    L° by trace orthogonality, ||represent(c)||_F = sqrt(N) ||c||_2: it is
    sqrt(N) ||c - delta_0||_2 for c the tightened frame element.  The
    reconstruction identity is verified on two fixed random probes as an
    internal consistency check.
    """
    windows = list(windows)
    vol = volume(lat)
    try:
        tight = tight_multiwindow(windows, lat)
    except NotAFrame:
        return ModuleFrameReport(math.inf, False, len(windows), vol)
    c = _frame_element(GaborSystem(tuple(tight), lat))
    residual = math.sqrt(lat.n) * float(np.linalg.norm(c.coeffs - unit(c.lattice).coeffs))
    rng = np.random.default_rng(0)
    for _ in range(2):
        probe = random_signal(lat.n, rng)
        gap = _identity_residual(tight, lat, probe)
        if gap > 1e-10 * (1.0 + probe.norm2() ** 2):
            raise ArithmeticError(
                f"tightened system failed the reconstruction identity (gap {gap:.3e})"
            )
    return ModuleFrameReport(residual, True, len(windows), vol, tuple(tight))


def tight_multiwindow(windows, lat: Lattice) -> list[Signal]:
    """Rescale all windows by the inverse square root of the summed frame operator."""
    return canonical_tight(GaborSystem(tuple(windows), lat))


def min_windows(lat: Lattice) -> int:
    """The number of windows a frame on this lattice needs: ceil(covolume).

    k windows contribute k * |L| system vectors, so fewer than ceil(N/|L|)
    cannot span Z_N; that many generic windows make a frame.  One witness,
    that many windows drawn from a fixed seed, confirms the count, and
    ArithmeticError reports a witness that is not a frame.
    """
    count = math.ceil(volume(lat))
    rng = np.random.default_rng(0)
    witness = tuple(random_signal(lat.n, rng) for _ in range(count))
    if not frame_bounds(GaborSystem(witness, lat)).is_frame:
        raise ArithmeticError(f"{count} random windows are not a frame on this lattice")
    return count
