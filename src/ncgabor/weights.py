"""Submultiplicative weights on Z^2 and growth diagnostics.

Weights live on the full integer lattice, not on Z_N x Z_N: growth along rays
is what the diagnostics probe, and dilation has no meaning mod N.  Finite
phase-space points enter through their minimal lifted representatives.

Built-in families (|p| is the Euclidean norm of the integer pair):

    polynomial(s):          (1 + |p|^2)^(s/2),  s >= 0
    subexponential(b, beta): exp(b |p|^beta),   b > 0, 0 < beta < 1
    exponential(b):          exp(b |p|),        b > 0

plus finite lookup tables for constructed examples.  The ray diagnostic
samples v(n*p)^(1/n) along dyadic n; a limit of 1 separates weights whose
weighted algebras behave spectrally like the unweighted one (polynomial,
subexponential) from genuinely exponential growth.  Thresholds and dyadic
sampling are engineering choices: the probe is a diagnostic, not a proof.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = [
    "Weight",
    "GrsReport",
    "SubmultiplicativityReport",
    "ModerateReport",
    "check_submultiplicative",
    "grs_probe",
    "check_moderate",
    "GRS_CONSISTENT",
    "GRS_VIOLATES",
    "GRS_INCONCLUSIVE",
]

GRS_CONSISTENT = "consistent-with-GRS"
GRS_VIOLATES = "violates-GRS"
GRS_INCONCLUSIVE = "inconclusive"

_FAMILIES = ("polynomial", "subexponential", "exponential", "custom")

# the largest x with exp(x) finite in double precision
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class Weight:
    """A positive symmetric submultiplicative function on Z^2."""

    family: str
    s: float = 0.0
    b: float = 1.0
    beta: float = 0.5
    table: Mapping[tuple[int, int], float] | None = None
    outer_power: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown weight family {self.family!r}")
        for name in ("s", "b", "beta", "outer_power"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"weight parameter {name} must be finite")
        if self.family == "polynomial" and self.s < 0:
            raise ValueError("polynomial exponent must be >= 0")
        if self.family in ("subexponential", "exponential") and self.b <= 0:
            raise ValueError("rate b must be > 0")
        if self.family == "subexponential" and not 0 < self.beta < 1:
            raise ValueError("subexponential beta must lie in (0, 1)")
        if self.family == "custom":
            if not self.table:
                raise ValueError("custom weight needs a lookup table")
            sym = {}
            for (x, y), val in self.table.items():
                if not 0 < val < math.inf:
                    raise ValueError(f"weight value at ({x},{y}) must be positive and finite")
                neg = (-x, -y)
                if neg in self.table and self.table[neg] != val:
                    raise ValueError(f"table breaks symmetry at ({x},{y})")
                sym[(int(x), int(y))] = float(val)
                sym.setdefault((-int(x), -int(y)), float(val))
            if sym.get((0, 0), 1.0) < 1.0:
                raise ValueError("weight at the origin must be >= 1")
            object.__setattr__(self, "table", MappingProxyType(sym))

    def __hash__(self) -> int:
        table = None if self.table is None else frozenset(self.table.items())
        return hash((self.family, self.s, self.b, self.beta, table, self.outer_power))

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
        """log v(p); the growth probe divides this before exponentiating."""
        return float(self._log_grid(int(p[0]), int(p[1])))

    def __call__(self, p) -> float:
        return math.exp(self.log_eval(p))

    def _log_grid(self, x, y) -> np.ndarray:
        """log v at the integer points (x, y), elementwise on arrays or ints."""
        if self.family == "custom":
            x, y = np.broadcast_arrays(x, y)
            logs = []
            for px, py in zip(x.ravel().tolist(), y.ravel().tolist()):
                if (px, py) not in self.table:
                    raise KeyError(f"custom weight has no entry at ({px},{py})")
                logs.append(math.log(self.table[(px, py)]))
            return self.outer_power * np.reshape(logs, x.shape)
        r2 = np.asarray(x * x + y * y, dtype=float)
        if self.family == "polynomial":
            return 0.5 * self.s * np.log1p(r2)
        if self.family == "subexponential":
            return self.b * r2 ** (self.beta / 2.0)
        return self.b * np.sqrt(r2)

    def _grid(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """v at the integer points (x, y), elementwise; OverflowError past the float range."""
        logs = self._log_grid(x, y)
        if logs.max() > _LOG_FLOAT_MAX:
            raise OverflowError(f"weight {self.family} exceeds the float range")
        return np.exp(logs)


@dataclass(frozen=True)
class SubmultiplicativityReport:
    max_violation: float
    passed: bool
    samples: int


def _sample_pairs(v: Weight, sample_count: int, seed: int, radius: int):
    rng = np.random.default_rng(seed)
    if v.family == "custom":
        keys = sorted(v.table.keys())
        pairs = []
        for p in keys:
            for q in keys:
                if (p[0] + q[0], p[1] + q[1]) in v.table:
                    pairs.append((p, q))
        if not pairs:
            return []
        if len(pairs) <= sample_count:
            return pairs
        picks = rng.choice(len(pairs), size=sample_count, replace=False)
        return [pairs[i] for i in picks]
    ps = rng.integers(-radius, radius + 1, size=(sample_count, 2))
    qs = rng.integers(-radius, radius + 1, size=(sample_count, 2))
    return [(tuple(p), tuple(q)) for p, q in zip(ps, qs)]


def check_submultiplicative(
    v: Weight, sample_count: int, seed: int, radius: int = 50
) -> SubmultiplicativityReport:
    """Sampled check of v(p+q) <= v(p) v(q); reports the worst ratio."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    pairs = _sample_pairs(v, sample_count, seed, radius)
    worst = 0.0
    for p, q in pairs:
        ratio = v((p[0] + q[0], p[1] + q[1])) / (v(p) * v(q))
        worst = max(worst, ratio)
    return SubmultiplicativityReport(
        max_violation=worst, passed=worst <= 1.0 + 1e-12, samples=len(pairs)
    )


@dataclass(frozen=True)
class GrsReport:
    """Dyadic ray samples v(n*p)^(1/n) and the resulting growth verdict."""

    point: tuple[int, int]
    samples: tuple[tuple[int, float], ...]
    verdict: str


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


@dataclass(frozen=True)
class ModerateReport:
    """Sampled lower bound for the moderateness constant of m against v."""

    constant_estimate: float
    stable: bool


def check_moderate(
    m: Weight, v: Weight, sample_count: int, seed: int, radius: int = 50
) -> ModerateReport:
    """Estimate sup m(p+q) / (v(p) m(q)) by sampling at two ranges.

    The estimate at the half range is compared against the full range; an
    estimate that keeps growing with the range is flagged as unstable
    (m is then not moderate with respect to v on the sampled window).
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")

    def estimate(rad: int, seed_offset: int) -> float:
        rng = np.random.default_rng(seed + seed_offset)
        ps = rng.integers(-rad, rad + 1, size=(sample_count, 2))
        qs = rng.integers(-rad, rad + 1, size=(sample_count, 2))
        worst = 0.0
        for p, q in zip(ps, qs):
            ratio = m((int(p[0] + q[0]), int(p[1] + q[1]))) / (v(tuple(p)) * m(tuple(q)))
            worst = max(worst, ratio)
        return worst

    half = estimate(max(1, radius // 2), 1)
    full = estimate(radius, 2)
    stable = math.isfinite(full) and full <= 1.5 * max(half, 1e-300)
    return ModerateReport(constant_estimate=full, stable=stable)
