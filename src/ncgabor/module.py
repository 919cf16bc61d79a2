"""Two-sided Hilbert-module structure on signals over a lattice pair.

Signals carry a left action of the lattice algebra and a right action of the
adjoint-lattice algebra.  The left inner product collects the analysis
coefficients as an algebra element; the right inner product samples
<pi(adjoint point) g, f>, stored against the adjoint shifts, with the
covolume factor carried by the right action.  The right action of b is the
left action of one element of the same algebra, vol^{-1} involution(conj b),
whose represented matrix is vol^{-1} sum b(mu) pi(mu)^H: act_right and
right_operator are act_left and represent of it, so both run through the
algebra's fiber formula (see algebra.py).

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
needs at least ceil(v) windows, by counting rank.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import DimensionMismatch, Signal, random_signal
from .lattice import Lattice, adjoint_lattice, volume
from .algebra import CoeffSeq, OperatorMatrix, involution, represent, twisted_conv, unit
from .frames import (
    GaborSystem,
    NotAFrame,
    _analysis,
    _frame_element,
    _synthesis,
    analysis_coefficients,
    canonical_tight,
    frame_bounds,
)

__all__ = [
    "ModuleFrameReport",
    "MinWindowsResult",
    "inner_left",
    "inner_right",
    "act_left",
    "act_right",
    "right_operator",
    "frame_type_operator",
    "associativity_residual",
    "module_frame_check",
    "module_frame_identity_residual",
    "multiwindow_parseval_residual",
    "tight_multiwindow",
    "min_windows",
]


def inner_left(f: Signal, g: Signal, lat: Lattice) -> CoeffSeq:
    """Left inner product: analysis coefficients <f, pi(lam) g> on the lattice."""
    if f.n != lat.n or g.n != lat.n:
        raise DimensionMismatch("signal length does not match lattice order")
    return CoeffSeq(lat, analysis_coefficients(f, g, lat))


def inner_right(f: Signal, g: Signal, lat: Lattice) -> CoeffSeq:
    """Right inner product: coefficients <pi(adjoint point) g, f> on the adjoint.

    The covolume prefactor is not stored; it belongs to the right action and
    to right_operator, so that associativity holds verbatim.
    """
    if f.n != lat.n or g.n != lat.n:
        raise DimensionMismatch("signal length does not match lattice order")
    adj = adjoint_lattice(lat)
    return CoeffSeq(adj, np.conj(analysis_coefficients(f, g, adj)))


def act_left(a: CoeffSeq, g: Signal) -> Signal:
    """Left action: sum a(lam) pi(lam) g, equal to represent(a) applied to g."""
    if g.n != a.lattice.n:
        raise DimensionMismatch("signal length does not match lattice order")
    return Signal(g.n, _synthesis(a.coeffs, g.values, a.lattice))


def _right_element(b: CoeffSeq) -> CoeffSeq:
    """vol^{-1} involution(conj b), represented as vol^{-1} sum b(mu) pi(mu)^H.

    b lives on the adjoint lattice L° of some L, and vol(L)^-1 = vol(L°).
    """
    return involution(CoeffSeq(b.lattice, float(volume(b.lattice)) * np.conj(b.coeffs)))


def act_right(g: Signal, b: CoeffSeq, lat: Lattice | None = None) -> Signal:
    """Right action: vol^{-1} sum b(mu) pi(mu)^H g over the adjoint lattice."""
    if g.n != b.lattice.n:
        raise DimensionMismatch("signal length does not match lattice order")
    if lat is not None and adjoint_lattice(lat) != b.lattice:
        raise DimensionMismatch("coefficients do not live on the adjoint lattice")
    return act_left(_right_element(b), g)


def right_operator(b: CoeffSeq) -> OperatorMatrix:
    """Matrix of a right-algebra element: vol^{-1} sum b(mu) pi(mu)^H."""
    return represent(_right_element(b))


def frame_type_operator(g: Signal, h: Signal, lat: Lattice, f: Signal) -> Signal:
    """Apply the (g, h) frame-type operator: analyze against g, synthesize with h."""
    return act_left(inner_left(f, g, lat), h)


def associativity_residual(f: Signal, g: Signal, h: Signal, lat: Lattice) -> float:
    """Relative gap between the two associativity routes; identically small."""
    lhs = act_left(inner_left(f, g, lat), h)
    rhs = act_right(f, inner_right(g, h, lat))
    return float(
        np.linalg.norm(lhs.values - rhs.values) / (1.0 + np.linalg.norm(lhs.values))
    )


@dataclass(frozen=True)
class ModuleFrameReport:
    residual: float
    is_module_frame: bool
    window_count: int
    vol: Fraction
    tight_windows: tuple[Signal, ...] = field(default=(), compare=False)


def module_frame_identity_residual(windows, lat: Lattice, f: Signal) -> float:
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
    if f.n != lat.n or any(w.n != lat.n for w in windows):
        raise DimensionMismatch("signal length does not match lattice order")
    coeffs = _analysis(f.values, np.stack([w.values for w in windows]), lat)
    total = float(np.sum(np.abs(coeffs) ** 2))
    norm_sq = f.norm2() ** 2
    return abs(norm_sq - total) / (1.0 + norm_sq)


def module_frame_check(windows, lat: Lattice, seed: int = 0) -> ModuleFrameReport:
    """Decide the module-frame property and measure tightening quality.

    The verdict is invertibility of the summed frame operator.  For frames,
    the report carries the tightened windows, and its residual is the
    Frobenius distance of their frame operator from the identity, read on
    L° by trace orthogonality, ||represent(c)||_F = sqrt(N) ||c||_2: it is
    sqrt(N) ||c - delta_0||_2 for c the tightened frame element.  The
    reconstruction identity is verified on seeded random signals as an
    internal consistency check.
    """
    windows = list(windows)
    if not windows:
        raise ValueError("need at least one window")
    vol = volume(lat)
    try:
        tight = tight_multiwindow(windows, lat)
    except NotAFrame:
        return ModuleFrameReport(math.inf, False, len(windows), vol)
    c = _frame_element(GaborSystem(tuple(tight), lat))
    residual = math.sqrt(lat.n) * float(np.linalg.norm(c.coeffs - unit(c.lattice).coeffs))
    rng = np.random.default_rng(seed)
    for _ in range(2):
        probe = random_signal(lat.n, rng)
        gap = module_frame_identity_residual(tight, lat, probe)
        if gap > 1e-10 * (1.0 + probe.norm2() ** 2):
            raise ArithmeticError(
                f"tightened system failed the reconstruction identity (gap {gap:.3e})"
            )
    return ModuleFrameReport(residual, True, len(windows), vol, tuple(tight))


def tight_multiwindow(windows, lat: Lattice) -> list[Signal]:
    """Rescale all windows by the inverse square root of the summed frame operator."""
    return canonical_tight(GaborSystem(tuple(windows), lat))


@dataclass(frozen=True)
class MinWindowsResult:
    lower_bound: int
    achieved: int
    success_rates: tuple[float, ...]


def min_windows(lat: Lattice, trials: int, seed: int) -> MinWindowsResult:
    """Probe how many random windows a frame on this lattice needs.

    The counting bound is ceil(covolume): k windows contribute k * |L|
    system vectors, which span at most k * |L| dimensions.  The achieved
    count is the smallest k at or one above the bound for which random
    k-window systems were frames in at least 90 percent of the trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lower = math.ceil(volume(lat))
    rng = np.random.default_rng(seed)
    rates = []
    achieved = None
    for count in range(1, lower + 2):
        hits = 0
        for _ in range(trials):
            ws = tuple(random_signal(lat.n, rng) for _ in range(count))
            if frame_bounds(GaborSystem(ws, lat)).is_frame:
                hits += 1
        rate = hits / trials
        rates.append(rate)
        if achieved is None and rate >= 0.9:
            achieved = count
            if count >= lower:
                break
    if achieved is None:
        raise ArithmeticError(
            f"no window count up to {lower + 1} reached a 90 percent frame rate"
        )
    if achieved < lower:
        raise AssertionError(
            f"achieved {achieved} windows below the rank bound {lower}"
        )
    return MinWindowsResult(lower_bound=lower, achieved=achieved, success_rates=tuple(rates))
