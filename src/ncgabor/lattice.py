"""Subgroups of the finite phase space Z_N x Z_N and their adjoints.

Every subgroup L has a unique Hermite normal form: the basis (a, s), (0, b)
with a | N, b | N and 0 <= s < b, where a generates the time shifts that
occur in L and b the frequency shifts at time 0.  The points are
i*(a, s) + j*(0, b) for 0 <= i < N/a and 0 <= j < N/b, and a lattice is
identified by N and that basis, so two generator lists for one subgroup give
equal lattices.  Size, equality, hashing and the adjoint need only the basis;
the points are built on first use, in lexicographic order, and every
summation in the toolkit runs in that order so serial residuals are
reproducible.

The adjoint lattice collects the phase-space points whose shifts commute
with every shift from the lattice; the pairing is perfect, so
|L| * |adjoint(L)| = N^2 and the adjoint of the adjoint returns the original
subgroup.  Its normal form follows from the basis alone.  The covolume is the
rational N / |L|; critical density is covolume 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .core import TFPoint

__all__ = [
    "Lattice",
    "lattice_from_generators",
    "full_lattice",
    "trivial_lattice",
    "adjoint_lattice",
    "volume",
    "enumerate_subgroups",
]


@dataclass(frozen=True)
class Lattice:
    """A subgroup of Z_N x Z_N, identified by N and its normal-form basis.

    basis is (a, s, b) for the basis vectors (a, s) and (0, b).  generators
    records how the lattice was given and takes no part in equality.
    """

    n: int
    basis: tuple[int, int, int]
    generators: tuple[TFPoint, ...] = field(compare=False)

    def __post_init__(self) -> None:
        n, (a, s, b) = self.n, self.basis
        if min(a, b) < 1 or n % a or n % b or not 0 <= s < b or (s * (n // a)) % b:
            raise ValueError(f"({a}, {s}, {b}) is not a normal-form basis mod {n}")

    @property
    def size(self) -> int:
        a, _, b = self.basis
        return (self.n // a) * (self.n // b)

    @cached_property
    def _points(self) -> np.ndarray:
        # row i holds k = i*a with l = (i*s mod b) + j*b: lexicographic as built
        n, (a, s, b) = self.n, self.basis
        i = np.arange(n // a, dtype=np.int64)[:, None]
        j = np.arange(n // b, dtype=np.int64)[None, :]
        k = np.broadcast_to(i * a, (n // a, n // b))
        pts = np.stack([k.ravel(), ((i * s) % b + j * b).ravel()], axis=1)
        pts.setflags(write=False)
        return pts

    def indices(self, k, l) -> np.ndarray:
        """Canonical indices of the points (k, l) mod N, elementwise; -1 off the lattice."""
        a, s, b = self.basis
        k, l = np.mod(k, self.n), np.mod(l, self.n)
        i = k // a
        member = (k % a == 0) & ((l - i * s) % b == 0)
        return np.where(member, i * (self.n // b) + l // b, -1)

    def as_array(self) -> np.ndarray:
        """Points as a read-only int64 array (|L|, 2) in canonical order, built on first use."""
        return self._points


def _ext_gcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, u, v) with g = gcd(x, y) = u*x + v*y."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while y:
        q, x, y = x // y, y, x % y
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return x, u0, v0


def _normal_form(n: int, pairs) -> tuple[int, int, int]:
    """Normal-form basis (a, s, b) of the subgroup the pairs generate.

    Row reduction of the integer lattice spanned by the pairs, (N, 0) and
    (0, N): each pair is merged into the top row (a, s) by an extended-gcd
    step, and the part it leaves at time 0 joins b.
    """
    a, s, b = n, 0, n
    for k, l in pairs:
        g, u, v = _ext_gcd(a, k)
        b = math.gcd(b, (k // g) * s - (a // g) * l)
        a, s = g, (u * s + v * l) % b
    return a, s % b, b


def _from_basis(n: int, basis: tuple[int, int, int]) -> Lattice:
    """The lattice with its nonzero basis vectors as generators."""
    a, s, b = basis
    gens = [(a, s)] * (a < n) + [(0, b)] * (b < n)
    return Lattice(n, basis, tuple(TFPoint(n, k, l) for k, l in gens))


def _require_order(n: int) -> None:
    if n < 2:
        raise ValueError(f"group order must be >= 2, got {n}")


def lattice_from_generators(n: int, gens) -> Lattice:
    """Subgroup generated by the given points (closure under addition mod N).

    An empty generator list yields the trivial lattice {(0, 0)}.  The
    generators are kept as given, reduced mod N.
    """
    _require_order(n)
    generators = []
    for g in gens:
        if not isinstance(g, TFPoint):
            k, l = g
            g = TFPoint(n, k, l)
        elif g.n != n:
            raise ValueError(f"generator ({g.k},{g.l}) has order {g.n}, lattice has {n}")
        generators.append(g)
    return Lattice(n, _normal_form(n, [(g.k, g.l) for g in generators]), tuple(generators))


def full_lattice(n: int) -> Lattice:
    return lattice_from_generators(n, [(1, 0), (0, 1)])


def trivial_lattice(n: int) -> Lattice:
    return lattice_from_generators(n, [])


@lru_cache(maxsize=256)
def adjoint_lattice(lat: Lattice) -> Lattice:
    """All points whose shifts commute with every shift from the lattice.

    (m, n') is adjoint iff m*l - k*n' = 0 mod N for (k, l) = (a, s) and
    (0, b).  The second condition gives m in (N/b)Z; the first then fixes n'
    modulo N/a, so the adjoint has basis (N/b, (N/b)*s/a mod N/a), (0, N/a).
    (a divides (N/b)*s because (N/a)*(a, s) lies in L at time 0.)
    """
    n, (a, s, b) = lat.n, lat.basis
    return _from_basis(n, (n // b, (n // b) * s // a % (n // a), n // a))


def volume(lat: Lattice) -> Fraction:
    """Covolume N / |L|; equals 1 exactly at critical density."""
    return Fraction(lat.n, lat.size)


def enumerate_subgroups(n: int) -> list[Lattice]:
    """Every subgroup of Z_N x Z_N, one per normal form, by size then points."""
    _require_order(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    lattices = [
        _from_basis(n, (a, s, b))
        for a in divisors
        for b in divisors
        for s in range(b)
        if (s * (n // a)) % b == 0
    ]
    lattices.sort(key=lambda lat: (lat.size, lat.as_array().tolist()))
    return lattices
