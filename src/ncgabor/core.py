"""Finite phase-space substrate on the cyclic group Z_N.

Signals are complex vectors indexed by Z_N.  The time-frequency shift of a
signal by (k, l) modulates after translating,

    (shift by (k,l) f)(t) = exp(2*pi*i*l*t/N) * f(t - k mod N),

so shifts compose only up to a unimodular cocycle,

    pi(lam) pi(mu) = cocycle(lam, mu) * pi(lam + mu),
    cocycle((k,l), (m,n)) = exp(-2*pi*i*k*n/N),

and commute up to the antisymmetric symplectic bicharacter

    c_symp((k,l), (m,n)) = exp(2*pi*i*(m*l - k*n)/N).

tf_shift evaluates its phases exp(2*pi*i*(l*t mod N)/N) directly.  The
short-time Fourier transform multiplies f into _translates(conj(g)), a
read-only view of the doubled window whose row k, at a row stride of -1
element, is the translate by k, and FFTs each row in place: one N x N
array.  Sums over the points of a lattice take no shifted copies: they run
in the lattice's sectors (algebra.py).
Everything here is exact finite linear algebra.

The phase-space point TFPoint and DimensionMismatch live in lattice.py,
which imports no numpy, so that lattice verbs run without it; core
re-exports them.
"""
from __future__ import annotations

import numpy as np

from .lattice import DimensionMismatch, TFPoint, _check_same_n, _Frozen, _group_order, _set

__all__ = [
    "DimensionMismatch",
    "Signal",
    "TFPoint",
    "PhaseSpaceArray",
    "tf_shift",
    "cocycle",
    "symplectic_bicharacter",
    "stft",
    "random_signal",
]


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


class Signal(_Frozen):
    """A complex-valued function on Z_N."""

    __slots__ = _fields = ("n", "values")
    n: int
    values: np.ndarray

    def __init__(self, n: int, values: np.ndarray) -> None:
        n = _group_order(n)
        vals = _frozen(values)
        if vals.shape != (n,):
            raise ValueError(f"expected {n} samples, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal contains non-finite entries")
        _set(self, "n", n)
        _set(self, "values", vals)

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))

    def is_zero(self) -> bool:
        return not self.values.any()

    @staticmethod
    def zero(n: int) -> "Signal":
        n = _group_order(n)
        return Signal(n, np.zeros(n, dtype=complex))

    @staticmethod
    def delta(n: int, t: int = 0) -> "Signal":
        n = _group_order(n)
        vals = np.zeros(n, dtype=complex)
        vals[t % n] = 1.0
        return Signal(n, vals)


def _lifted(values: np.ndarray, n: int) -> np.ndarray:
    """TFPoint.lift on an integer array of residues mod N, elementwise."""
    return np.where(values > n // 2, values - n, values)


class PhaseSpaceArray(_Frozen):
    """An N x N complex array over phase space, indexed [k, l]."""

    __slots__ = _fields = ("n", "values")
    n: int
    values: np.ndarray

    def __init__(self, n: int, values: np.ndarray) -> None:
        n = _group_order(n)
        vals = _frozen(values)
        if vals.shape != (n, n):
            raise ValueError(f"expected shape ({n}, {n}), got {vals.shape}")
        _set(self, "n", n)
        _set(self, "values", vals)


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


def _translates(g: np.ndarray) -> np.ndarray:
    """The translates of g, out[k, t] = g[(t - k) mod N]: a read-only view of
    the doubled window with a row stride of -1 element, so row k is the
    translate by k.  Of g = 0 .. N-1, its rows at the time shifts i*a are the
    columns of the bands' flat index (algebra._band_index)."""
    n = g.shape[-1]
    doubled = np.concatenate([g, g])
    step = doubled.strides[-1]  # a bare ndarray: as_strided costs 2.5x more per call
    out = np.ndarray((n, n), doubled.dtype, doubled, n * step, (-step, step))
    out.flags.writeable = False
    return out


def tf_shift(p: TFPoint, f: Signal) -> Signal:
    """Apply the time-frequency shift by p; preserves the 2-norm."""
    n = _check_same_n(p.n, f.n)
    return Signal(n, np.roll(f.values, p.k) * np.exp(2j * np.pi * (p.l * np.arange(n) % n) / n))


def stft(f: Signal, g: Signal) -> PhaseSpaceArray:
    """Short-time Fourier transform V_g f(k, l) = <f, pi(k,l) g>, one FFT per time shift.

    Satisfies the Moyal identity  sum |V_g f|^2 = N ||f||^2 ||g||^2.
    """
    n = _check_same_n(f.n, g.n)
    values = f.values * _translates(np.conj(g.values))  # [k, t], the one N x N array
    try:
        np.fft.fft(values, axis=-1, out=values)
    except TypeError:  # numpy < 2 has no out=: transform in row blocks, holding one more
        for rows in np.array_split(values, min(n, 8)):
            rows[...] = np.fft.fft(rows, axis=-1)
    values.setflags(write=False)  # read-only and owning its data: shared, not copied
    return PhaseSpaceArray(n, values)


def random_signal(n: int, rng: np.random.Generator) -> Signal:
    """Complex standard-normal signal, the generic test vector."""
    n = _group_order(n)
    return Signal(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
