"""Weights on Z^2 and growth diagnostics.

Weights live on the full integer lattice, not on Z_N x Z_N: growth along rays
is what the diagnostics probe, and dilation has no meaning mod N.  Finite
phase-space points enter through their minimal lifted representatives.

Built-in families (|p| is the Euclidean norm of the integer pair):

    polynomial(s):          (1 + |p|^2)^(s/2),  s >= 0
    subexponential(b, beta): exp(b |p|^beta),   b > 0, 0 < beta < 1
    exponential(b):          exp(b |p|),        b > 0

plus finite lookup tables for constructed examples.  The subexponential and
exponential families are submultiplicative, v(p+q) <= v(p) v(q).  The
polynomial family is so only up to the constant (5/4)^(s/2), attained at
p = q = (1, 0): v(2, 0) / v(1, 0)^2 = (5/4)^(s/2).  The ray diagnostic
samples v(n*p)^(1/n) along dyadic n; a limit of 1 separates weights whose
weighted algebras behave spectrally like the unweighted one (polynomial,
subexponential) from genuinely exponential growth.  Thresholds and dyadic
sampling are engineering choices: the probe is a diagnostic, not a proof.

One expression per family gives log v: at one point (log_eval, __call__) it
runs on floats with math, so the growth probe needs no numpy; on the arrays
of a weight table (_log_grid, _grid) it runs with numpy, loaded there.
"""
from __future__ import annotations

import math
import sys
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from .lattice import _set, _Value

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Weight",
    "GrsReport",
    "grs_probe",
    "GRS_CONSISTENT",
    "GRS_VIOLATES",
    "GRS_INCONCLUSIVE",
]

GRS_CONSISTENT = "consistent-with-GRS"
GRS_VIOLATES = "violates-GRS"
GRS_INCONCLUSIVE = "inconclusive"

_FAMILIES = ("polynomial", "subexponential", "exponential", "custom")

# the largest x with exp(x) finite in double precision
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class Weight(_Value):
    """A positive symmetric weight on Z^2, v(p+q) <= C v(p) v(q) with the
    family's constant C (module docstring); a lookup table states none."""

    _fields = ("family", "s", "b", "beta", "table", "outer_power")
    __slots__ = (*_fields, "_hash")
    family: str
    s: float
    b: float
    beta: float
    table: Mapping[tuple[int, int], float] | None
    outer_power: float

    def __init__(self, family: str, s: float = 0.0, b: float = 1.0, beta: float = 0.5,
                 table: Mapping[tuple[int, int], float] | None = None,
                 outer_power: float = 1.0) -> None:
        if family not in _FAMILIES:
            raise ValueError(f"unknown weight family {family!r}")
        for name, value in (("s", s), ("b", b), ("beta", beta), ("outer_power", outer_power)):
            if not math.isfinite(value):
                raise ValueError(f"weight parameter {name} must be finite")
        if family == "polynomial" and s < 0:
            raise ValueError("polynomial exponent must be >= 0")
        if family in ("subexponential", "exponential") and b <= 0:
            raise ValueError("rate b must be > 0")
        if family == "subexponential" and not 0 < beta < 1:
            raise ValueError("subexponential beta must lie in (0, 1)")
        if family == "custom":
            if not table:
                raise ValueError("custom weight needs a lookup table")
            sym = {}
            for (x, y), val in table.items():
                if not 0 < val < math.inf:
                    raise ValueError(f"weight value at ({x},{y}) must be positive and finite")
                neg = (-x, -y)
                if neg in table and table[neg] != val:
                    raise ValueError(f"table breaks symmetry at ({x},{y})")
                sym[(int(x), int(y))] = float(val)
                sym.setdefault((-int(x), -int(y)), float(val))
            if sym.get((0, 0), 1.0) < 1.0:
                raise ValueError("weight at the origin must be >= 1")
            table = MappingProxyType(sym)
        self._assign(family, s, b, beta, table, outer_power)
        # hashed once: mod_norm hashes its weight on every table-cache lookup.
        # The family enters by its index and a missing table as an empty one,
        # hashes that hold across processes, so the hash survives pickling.
        key = (_FAMILIES.index(family), s, b, beta, frozenset((table or {}).items()), outer_power)
        _set(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # a mappingproxy does not pickle: the table travels as a dict
        table = None if self.table is None else dict(self.table)
        return Weight, (self.family, self.s, self.b, self.beta, table, self.outer_power)

    @staticmethod
    def polynomial(s: float) -> "Weight":
        return Weight("polynomial", s=float(s))

    @staticmethod
    def subexponential(b: float, beta: float) -> "Weight":
        return Weight("subexponential", b=float(b), beta=float(beta))

    @staticmethod
    def exponential(b: float) -> "Weight":
        return Weight("exponential", b=float(b))

    @staticmethod
    def custom(table: Mapping[tuple[int, int], float]) -> "Weight":
        return Weight("custom", table=dict(table))

    @staticmethod
    def one() -> "Weight":
        return Weight("polynomial", s=0.0)

    def power(self, t: float) -> "Weight":
        """The pointwise power v^t, folded into family parameters."""
        if not 0 <= t < math.inf:
            raise ValueError("weight powers must be finite and >= 0")
        if self.family == "polynomial":
            return Weight("polynomial", s=self.s * t)
        if self.family == "subexponential":
            return Weight("subexponential", b=self.b * t, beta=self.beta) if t > 0 else Weight.one()
        if self.family == "exponential":
            return Weight("exponential", b=self.b * t) if t > 0 else Weight.one()
        return Weight("custom", table=self.table, outer_power=self.outer_power * t)

    def log_eval(self, p) -> float:
        """log v(p); the growth probe divides this before exponentiating.
        OverflowError when log v(p) leaves the float range."""
        x, y = int(p[0]), int(p[1])
        if self.family == "custom":
            log = self.outer_power * self._log_entry(x, y)
        else:
            log = self._log_radial(float(x * x + y * y), math)
        if not math.isfinite(log):
            raise OverflowError(f"weight {self.family} exceeds the float range")
        return log

    def __call__(self, p) -> float:
        return math.exp(self.log_eval(p))

    def _log_entry(self, x: int, y: int) -> float:
        """The log of a lookup table's entry at (x, y), before the outer power."""
        if (x, y) not in self.table:
            raise KeyError(f"custom weight has no entry at ({x},{y})")
        return math.log(self.table[(x, y)])

    def _log_radial(self, r2, xp):
        """log v of a built-in family at the squared radius r2, with the log1p
        and sqrt of xp: math on a float, numpy elementwise on an array."""
        if self.family == "polynomial":
            return 0.5 * self.s * xp.log1p(r2)
        if self.family == "subexponential":
            return self.b * r2 ** (self.beta / 2.0)
        return self.b * xp.sqrt(r2)

    def _log_grid(self, x, y) -> np.ndarray:
        """log v at the integer points (x, y), elementwise on arrays or ints."""
        import numpy as np

        if self.family == "custom":
            x, y = np.broadcast_arrays(x, y)
            logs = [self._log_entry(px, py) for px, py in zip(x.ravel().tolist(), y.ravel().tolist())]
            return self.outer_power * np.reshape(logs, x.shape)
        return self._log_radial(np.asarray(x * x + y * y, dtype=float), np)

    def _grid(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """v at the integer points (x, y), elementwise; OverflowError past the float range."""
        import numpy as np

        logs = self._log_grid(x, y)
        if logs.max() > _LOG_FLOAT_MAX:
            raise OverflowError(f"weight {self.family} exceeds the float range")
        return np.exp(logs)


class GrsReport(_Value):
    """Dyadic ray samples v(n*p)^(1/n) and the resulting growth verdict."""

    __slots__ = _fields = ("point", "samples", "verdict")
    point: tuple[int, int]
    samples: tuple[tuple[int, float], ...]
    verdict: str

    def __init__(self, point: tuple[int, int], samples: tuple[tuple[int, float], ...],
                 verdict: str) -> None:
        self._assign(point, samples, verdict)


def grs_probe(v: Weight, p, n_max: int) -> GrsReport:
    """Probe v(n*p)^(1/n) along n = 1, 2, 4, ..., n_max.

    Verdict rules (tail = last three samples):
      - consistent-with-GRS: final sample <= 1.05 and tail non-increasing;
      - violates-GRS: final sample >= 1.10 and tail flat;
      - inconclusive otherwise.
    """
    x, y = int(p[0]), int(p[1])
    if (x, y) == (0, 0):
        raise ValueError("probe point must be nonzero")
    if n_max < 16:
        raise ValueError("n_max must be >= 16")
    samples = []
    n = 1
    while n <= n_max:
        samples.append((n, math.exp(v.log_eval((n * x, n * y)) / n)))
        n *= 2
    tail = [val for _, val in samples[-3:]]
    final = tail[-1]
    non_increasing = all(tail[i + 1] <= tail[i] * (1 + 1e-9) for i in range(len(tail) - 1))
    flat = (max(tail) - min(tail)) <= 1e-6 * max(tail)
    if final <= 1.05 and non_increasing:
        verdict = GRS_CONSISTENT
    elif final >= 1.10 and flat:
        verdict = GRS_VIOLATES
    else:
        verdict = GRS_INCONCLUSIVE
    return GrsReport(point=(x, y), samples=tuple(samples), verdict=verdict)
