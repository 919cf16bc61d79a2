"""Finite phase-space substrate on the cyclic group Z_N.

Signals are complex vectors indexed by Z_N.  The time-frequency shift of a
signal by (k, l) modulates after translating,

    (shift by (k,l) f)(t) = exp(2*pi*i*l*t/N) * f(t - k mod N),

so shifts compose only up to a unimodular cocycle,

    pi(lam) pi(mu) = cocycle(lam, mu) * pi(lam + mu),
    cocycle((k,l), (m,n)) = exp(-2*pi*i*k*n/N),

and commute up to the antisymmetric symplectic bicharacter

    c_symp((k,l), (m,n)) = exp(2*pi*i*(m*l - k*n)/N).

Every sum over shifts in the toolkit starts from one kernel, _translates:
the rows of a read-only roll view of the doubled window, one gather and no
index grid.  The short-time Fourier transform takes one length-N FFT of
f * conj(translate of g) per time shift; the lattice analysis and synthesis
(algebra.py) take the translates times the lattice's cached band phase.
Everything here is exact finite linear algebra.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "DimensionMismatch",
    "Signal",
    "TFPoint",
    "PhaseSpaceArray",
    "tf_shift",
    "shift_matrix",
    "cocycle",
    "symplectic_bicharacter",
    "stft",
    "random_signal",
]


class DimensionMismatch(ValueError):
    """Operands live on cyclic groups of different order."""


def _check_same_n(*ns: int) -> int:
    first = ns[0]
    for n in ns[1:]:
        if n != first:
            raise DimensionMismatch(f"group orders differ: {ns}")
    return first


def _frozen(values) -> np.ndarray:
    """values as a read-only complex array, never freezing the caller's own.

    A writable complex array is the caller's and is copied, and so is a
    read-only view, whose base may still be written; a read-only array that
    owns its data is shared, and any other input is converted into a fresh
    array anyway.
    """
    arr = np.asarray(values, dtype=complex)
    if arr is values and (arr.flags.writeable or arr.base is not None):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Signal:
    """A complex-valued function on Z_N."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"group order must be >= 2, got {self.n}")
        vals = _frozen(self.values)
        if vals.shape != (self.n,):
            raise ValueError(f"expected {self.n} samples, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal contains non-finite entries")
        object.__setattr__(self, "values", vals)

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))

    def is_zero(self) -> bool:
        return not self.values.any()

    @staticmethod
    def zero(n: int) -> "Signal":
        return Signal(n, np.zeros(n, dtype=complex))

    @staticmethod
    def delta(n: int, t: int = 0) -> "Signal":
        vals = np.zeros(n, dtype=complex)
        vals[t % n] = 1.0
        return Signal(n, vals)


@dataclass(frozen=True)
class TFPoint:
    """A phase-space point (k, l) in Z_N x Z_N, canonically reduced mod N."""

    n: int
    k: int
    l: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"group order must be >= 2, got {self.n}")
        object.__setattr__(self, "k", int(self.k) % self.n)
        object.__setattr__(self, "l", int(self.l) % self.n)

    def __add__(self, other: "TFPoint") -> "TFPoint":
        _check_same_n(self.n, other.n)
        return TFPoint(self.n, self.k + other.k, self.l + other.l)

    def __sub__(self, other: "TFPoint") -> "TFPoint":
        _check_same_n(self.n, other.n)
        return TFPoint(self.n, self.k - other.k, self.l - other.l)

    def __neg__(self) -> "TFPoint":
        return TFPoint(self.n, -self.k, -self.l)

    def lift(self) -> tuple[int, int]:
        """Minimal integer representative; ties at N/2 resolve positive."""
        half = self.n // 2
        k = self.k if self.k <= half else self.k - self.n
        l = self.l if self.l <= half else self.l - self.n
        return (k, l)


def _lifted(values: np.ndarray, n: int) -> np.ndarray:
    """TFPoint.lift on an integer array of residues mod N, elementwise."""
    return np.where(values > n // 2, values - n, values)


@dataclass(frozen=True)
class PhaseSpaceArray:
    """An N x N complex array over phase space, indexed [k, l]."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _frozen(self.values)
        if vals.shape != (self.n, self.n):
            raise ValueError(f"expected shape ({self.n}, {self.n}), got {vals.shape}")
        object.__setattr__(self, "values", vals)


def cocycle(lam: TFPoint, mu: TFPoint) -> complex:
    """Composition factor: pi(lam) pi(mu) = cocycle(lam, mu) pi(lam + mu)."""
    n = _check_same_n(lam.n, mu.n)
    return complex(np.exp(-2j * np.pi * ((lam.k * mu.l) % n) / n))

def symplectic_bicharacter(lam: TFPoint, mu: TFPoint) -> complex:
    """Commutation factor: pi(lam) pi(mu) = c_symp(lam, mu) pi(mu) pi(lam).

    Equals cocycle(lam, mu) * conj(cocycle(mu, lam)) and is antisymmetric.
    """
    n = _check_same_n(lam.n, mu.n)
    return complex(np.exp(2j * np.pi * ((mu.k * lam.l - lam.k * mu.l) % n) / n))


@lru_cache(maxsize=64)
def _roots(n: int) -> np.ndarray:
    """The N-th roots of unity exp(2*pi*i*j/N), j = 0 .. N-1, read-only."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    roots.setflags(write=False)
    return roots


def _translates(ks: np.ndarray, g: np.ndarray) -> np.ndarray:
    """out[..., i, t] = g[..., (t - k_i) mod N]: rows (-k_i) mod N of the
    read-only roll view [..., j, t] -> doubled[..., j + t] of the doubled
    window.  Leading axes of g are further windows."""
    n = g.shape[-1]
    doubled = np.concatenate([g, g], axis=-1)
    step = doubled.strides[-1]  # as_strided: sliding_window_view costs 2.5-5x more per call
    view = as_strided(doubled, (*g.shape[:-1], n, n), (*doubled.strides[:-1], step, step),
                      writeable=False)
    return view[..., -np.asarray(ks) % n, :]


def _shifted(points: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Shifted copies of g at the integer points (k_i, l_i), one row each.

    out[..., i, t] = exp(2*pi*i*l_i*t/N) * g[..., (t - k_i) mod N]: the
    translates times the roots of unity at (l_i * t) mod N.  Leading axes of
    g are further windows.
    """
    n = g.shape[-1]
    out = _translates(points[:, 0], g)
    out *= _roots(n)[points[:, 1:] * np.arange(n) % n]
    return out


def tf_shift(p: TFPoint, f: Signal) -> Signal:
    """Apply the time-frequency shift by p; preserves the 2-norm."""
    n = _check_same_n(p.n, f.n)
    return Signal(n, _shifted(np.array([[p.k, p.l]]), f.values)[0])


def shift_matrix(p: TFPoint) -> np.ndarray:
    """The N x N unitary matrix of the time-frequency shift by p."""
    n = p.n
    rows = np.arange(n)
    mat = np.zeros((n, n), dtype=complex)
    mat[rows, (rows - p.k) % n] = _roots(n)[(p.l * rows) % n]
    return mat


def stft(f: Signal, g: Signal) -> PhaseSpaceArray:
    """Short-time Fourier transform V_g f(k, l) = <f, pi(k,l) g>, one FFT per time shift.

    Satisfies the Moyal identity  sum |V_g f|^2 = N ||f||^2 ||g||^2.
    """
    n = _check_same_n(f.n, g.n)
    conj_translates = _translates(np.arange(n), np.conj(g.values))
    return PhaseSpaceArray(n, np.fft.fft(f.values * conj_translates, axis=-1))


def random_signal(n: int, rng: np.random.Generator) -> Signal:
    """Complex standard-normal signal, the generic test vector."""
    return Signal(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
