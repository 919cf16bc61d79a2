"""Mixed weighted norms of the short-time Fourier transform.

The (p, q) norm takes an inner l^p over time shifts and an outer l^q over
frequency shifts of |V_g f| weighted by a moderate weight evaluated at lifted
integer coordinates; infinity means a maximum.  Counting measure throughout,
so the (2, 2) unweighted norm ties back to the Hilbert norm through the
Moyal identity, with the same constants as the frame-bound conventions.
The (1, 1) family with weight powers is the workhorse window class; its norm
is monotone in the power and transforms under time-frequency shifts with a
factor bounded by the weight at the shift.

The weight at every lifted phase-space point, an N x N table, depends only
on the weight and N: mod_norm takes it from lattice._tables, keyed by the
(weight, N) pair, so an equal weight built anew finds it.  Up to N = 512 it
fits the cache's 2 MiB cap; past that it is built on every call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Signal, _lifted, stft
from .lattice import _check_same_n, _tables
from .weights import Weight

__all__ = ["ModNormSpec", "mod_norm", "feichtinger_norm"]


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
    weighted = np.abs(stft(f, spec.window).values)
    weighted *= _tables(_lifted_weight_table, spec.m, f.n)
    per_frequency = _lp(weighted, spec.p, axis=0)
    return float(_lp(per_frequency, spec.q, axis=0))


def feichtinger_norm(f: Signal, v: Weight, s: float, window: Signal) -> float:
    """The (1, 1) norm against the weight power v^s; non-decreasing in s."""
    if s < 0:
        raise ValueError("weight exponent s must be >= 0")
    return mod_norm(f, ModNormSpec(1.0, 1.0, v.power(s), window))
