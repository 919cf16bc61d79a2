"""Mixed weighted norms of the short-time Fourier transform.

The (p, q) norm takes an inner l^p over time shifts and an outer l^q over
frequency shifts of |V_g f| weighted by a moderate weight evaluated at lifted
integer coordinates; infinity means a maximum.  Counting measure throughout,
so the (2, 2) unweighted norm ties back to the Hilbert norm through the
Moyal identity, with the same constants as the frame-bound conventions.
The (1, 1) family with weight powers is the workhorse window class; its norm
is monotone in the power and transforms under time-frequency shifts with a
factor bounded by the weight at the shift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Signal, _check_same_n, _lifted, stft
from .weights import Weight

__all__ = [
    "ModNormSpec",
    "EquivalenceRatios",
    "mod_norm",
    "feichtinger_norm",
    "window_equivalence_ratio",
]


@dataclass(frozen=True)
class ModNormSpec:
    """Exponents, weight and analysis window for a mixed STFT norm."""

    p: float
    q: float
    m: Weight
    window: Signal

    def __post_init__(self) -> None:
        for name, e in (("p", self.p), ("q", self.q)):
            if not (e >= 1.0 or e == math.inf):
                raise ValueError(f"exponent {name} must be >= 1 or infinity, got {e}")
        if self.window.is_zero():
            raise ValueError("analysis window must be nonzero")


def _lifted_weight_table(m: Weight, n: int) -> np.ndarray:
    """m at the lifted coordinates of every phase-space point, indexed [k, l]."""
    lift = _lifted(np.arange(n), n)
    return m._grid(lift[:, None], lift[None, :])


def _lp(values: np.ndarray, p: float, axis: int) -> np.ndarray:
    if p == math.inf:
        return values.max(axis=axis)
    return (values**p).sum(axis=axis) ** (1.0 / p)


def mod_norm(f: Signal, spec: ModNormSpec) -> float:
    """Weighted mixed norm: inner l^p over time, outer l^q over frequency."""
    _check_same_n(f.n, spec.window.n)
    weighted = np.abs(stft(f, spec.window).values) * _lifted_weight_table(spec.m, f.n)
    per_frequency = _lp(weighted, spec.p, axis=0)
    return float(_lp(per_frequency, spec.q, axis=0))


def feichtinger_norm(f: Signal, v: Weight, s: float, window: Signal) -> float:
    """The (1, 1) norm against the weight power v^s; non-decreasing in s."""
    if s < 0:
        raise ValueError("weight exponent s must be >= 0")
    return mod_norm(f, ModNormSpec(1.0, 1.0, v.power(s), window))


@dataclass(frozen=True)
class EquivalenceRatios:
    min_ratio: float
    max_ratio: float
    used: int


def window_equivalence_ratio(
    fs,
    g1: Signal,
    g2: Signal,
    p: float,
    q: float,
    m: Weight | None = None,
) -> EquivalenceRatios:
    """Observed range of mod-norm ratios between two analysis windows.

    Samples mod_norm(f; g1) / mod_norm(f; g2) over the given signals,
    skipping numerically zero norms; the spread estimates the equivalence
    constant of the two windows.
    """
    if g1.is_zero() or g2.is_zero():
        raise ValueError("analysis windows must be nonzero")
    weight = m if m is not None else Weight.one()
    spec1 = ModNormSpec(p, q, weight, g1)
    spec2 = ModNormSpec(p, q, weight, g2)
    ratios = []
    for f in fs:
        n1, n2 = mod_norm(f, spec1), mod_norm(f, spec2)
        if n1 <= 1e-300 or n2 <= 1e-300:
            continue
        ratios.append(n1 / n2)
    if not ratios:
        raise ValueError("no usable sample signals (all norms vanished)")
    return EquivalenceRatios(
        min_ratio=min(ratios), max_ratio=max(ratios), used=len(ratios)
    )
