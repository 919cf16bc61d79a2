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

A lattice carries the tables derived from it as cached properties, built on
first use, read-only and freed with it: its points, its adjoint, the
involution's, the grid positions and the sector tables (algebra.py).

The phase-space point TFPoint, DimensionMismatch, the base _Frozen of the
toolkit's immutable types and the table cache _tables live here, not in
core.py (which re-exports the first two), so that this module imports no
numpy at load time: building a lattice, its adjoint and its covolume touch
no array, and numpy loads where the tables are built.  Nor does loading
generate code: the value types are plain classes, not dataclasses, and
fractions loads only where a covolume is formed or parsed as a rational
(volume, serialize.fraction_from_str).

_tables keeps the tables that are shared across lattices and keyed by plain
arguments: the bands' flat index by (N, a) (algebra.py), the lifted weight
table by (weight, N) (modspaces.py) and the roots of unity by N (core.py).
It keeps at most 32 MiB in all and no table over 2 MiB, so past that size a
table is built on every call.
"""
from __future__ import annotations

import math
import threading
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

__all__ = [
    "Lattice",
    "lattice_from_generators",
    "full_lattice",
    "trivial_lattice",
    "adjoint_lattice",
    "volume",
    "enumerate_subgroups",
]


class DimensionMismatch(ValueError):
    """Operands live on cyclic groups of different order."""


def _check_same_n(*ns: int) -> int:
    first = ns[0]
    for n in ns[1:]:
        if n != first:
            raise DimensionMismatch(f"group orders differ: {ns}")
    return first


def _group_order(n) -> int:
    """n as an int; ValueError unless it is an integer >= 2."""
    if n < 2:
        raise ValueError(f"group order must be >= 2, got {n}")
    if int(n) != n:
        raise ValueError(f"group order n = {n!r} is not an integer")
    return int(n)


_set = object.__setattr__  # how __init__ sets a field of a _Frozen instance


class _Frozen:
    """Base of the toolkit's immutable types, whose fields _fields names.

    __init__ validates its arguments and sets each field once: with _assign,
    or with _set where a type is built on every call; assigning or deleting
    an attribute afterwards raises AttributeError.  The repr lists the
    fields, and pickle and copy rebuild an instance by calling its class on
    them, so a copy is validated too.  Equality is identity and instances are
    unhashable; _Value compares and hashes by value.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)


class _Value(_Frozen):
    """A _Frozen type whose instances are equal when their class and _key()
    agree, hashed by _key(); the key is every field unless a type says less."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class TFPoint(_Value):
    """A phase-space point (k, l) in Z_N x Z_N, canonically reduced mod N."""

    __slots__ = _fields = ("n", "k", "l")
    n: int
    k: int
    l: int

    def __init__(self, n: int, k: int, l: int) -> None:
        n = _group_order(n)
        _set(self, "n", n)
        for name, value in (("k", k), ("l", l)):
            if int(value) != value:
                raise ValueError(f"coordinate {name} = {value!r} is not an integer")
            _set(self, name, int(value) % n)

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


class _TableCache:
    """Arrays that depend only on their builder's arguments, each built once
    and kept while the total stays within a byte budget.

    cache(build, *args) is build(*args), keyed by (build, args), frozen
    read-only and charged its nbytes.  A table over cap is returned but not
    kept; otherwise the oldest tables are evicted until the total fits the
    budget, so the newest survives.  A hit is one dict lookup.
    """

    def __init__(self, budget: int, cap: int) -> None:
        self.budget, self.cap = budget, cap
        self.kept: dict = {}  # (build, args) -> table, oldest first
        self.nbytes = self.hits = self.misses = 0
        self._lock = threading.Lock()  # insertion and eviction are read-modify-writes

    def __call__(self, build, *args):
        key = (build, args)
        table = self.kept.get(key)
        if table is not None:
            self.hits += 1
            return table
        table = build(*args)
        table.setflags(write=False)
        with self._lock:
            self.misses += 1
            if table.nbytes <= self.cap and key not in self.kept:
                self.kept[key] = table
                self.nbytes += table.nbytes
                while self.nbytes > self.budget:
                    self.nbytes -= self.kept.pop(next(iter(self.kept))).nbytes
        return table

    def clear(self) -> None:
        with self._lock:
            self.kept.clear()
            self.nbytes = self.hits = self.misses = 0


_tables = _TableCache(budget=32 * 2**20, cap=2 * 2**20)


class Lattice(_Value):
    """A subgroup of Z_N x Z_N, identified by N and its normal-form basis.

    basis is (a, s, b) for the basis vectors (a, s) and (0, b).  generators
    records how the lattice was given and takes no part in equality.  Its
    tables are cached properties, kept in its __dict__.
    """

    _fields = ("n", "basis", "generators")
    n: int
    basis: tuple[int, int, int]
    generators: tuple[TFPoint, ...]

    def __init__(self, n: int, basis: tuple[int, int, int],
                 generators: tuple[TFPoint, ...]) -> None:
        a, s, b = basis
        if min(a, b) < 1 or n % a or n % b or not 0 <= s < b or (s * (n // a)) % b:
            raise ValueError(f"({a}, {s}, {b}) is not a normal-form basis mod {n}")
        self._assign(n, basis, generators)

    def _key(self) -> tuple:
        return (self.n, self.basis)

    @property
    def size(self) -> int:
        a, _, b = self.basis
        return (self.n // a) * (self.n // b)

    @cached_property
    def _points(self) -> np.ndarray:
        # row i holds k = i*a with l = (i*s mod b) + j*b: lexicographic as built
        import numpy as np

        n, (a, s, b) = self.n, self.basis
        i = np.arange(n // a, dtype=np.int64)[:, None]
        j = np.arange(n // b, dtype=np.int64)[None, :]
        k = np.broadcast_to(i * a, (n // a, n // b))
        return _read_only(np.stack([k.ravel(), ((i * s) % b + j * b).ravel()], axis=1))[0]

    @cached_property
    def _adjoint(self) -> Lattice:
        n, (a, s, b) = self.n, self.basis
        return _from_basis(n, (n // b, (n // b) * s // a % (n // a), n // a))

    @cached_property
    def _involution_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The index of -lam and cocycle(lam, lam), in canonical order."""
        import numpy as np

        n, pts = self.n, self._points
        neg = self.indices(-pts[:, 0], -pts[:, 1])
        return _read_only(neg, np.exp(-2j * np.pi * ((pts[:, 0] * pts[:, 1]) % n) / n))

    @cached_property
    def _grid_index(self) -> np.ndarray:
        """Each point's flat position i*N + l in the (N/a, N) grid of time
        shifts by frequencies, in canonical order."""
        return _read_only(self._points @ (self.n // self.basis[0], 1))[0]

    @cached_property
    def _sector_tables(self) -> tuple[np.ndarray, ...]:
        """The copies' coordinates and the distinct sectors' gather (algebra.py)."""
        from .algebra import _sector_tables_of

        return _read_only(*_sector_tables_of(self))

    def indices(self, k, l) -> np.ndarray:
        """Canonical indices of the points (k, l) mod N, elementwise; -1 off the lattice."""
        import numpy as np

        a, s, b = self.basis
        k, l = np.mod(k, self.n), np.mod(l, self.n)
        i = k // a
        member = (k % a == 0) & ((l - i * s) % b == 0)
        return np.where(member, i * (self.n // b) + l // b, -1)

    def as_array(self) -> np.ndarray:
        """Points as a read-only int64 array (|L|, 2) in canonical order, built on first use."""
        return self._points


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """The tables, each frozen read-only."""
    for table in tables:
        table.setflags(write=False)
    return tables


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


def lattice_from_generators(n: int, gens) -> Lattice:
    """Subgroup generated by the given points (closure under addition mod N).

    An empty generator list yields the trivial lattice {(0, 0)}.  The
    generators are kept as given, reduced mod N.
    """
    n = _group_order(n)
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


def adjoint_lattice(lat: Lattice) -> Lattice:
    """All points whose shifts commute with every shift from the lattice.

    (m, n') is adjoint iff m*l - k*n' = 0 mod N for (k, l) = (a, s) and
    (0, b).  The second condition gives m in (N/b)Z; the first then fixes n'
    modulo N/a, so the adjoint has basis (N/b, (N/b)*s/a mod N/a), (0, N/a).
    (a divides (N/b)*s because (N/a)*(a, s) lies in L at time 0.)  Built
    once per lattice and kept on it.
    """
    return lat._adjoint


def volume(lat: Lattice) -> Fraction:
    """Covolume N / |L|; equals 1 exactly at critical density.  Code that
    consumes a float divides lat.n / lat.size instead: the same correctly
    rounded value, without loading fractions."""
    from fractions import Fraction

    return Fraction(lat.n, lat.size)


def enumerate_subgroups(n: int) -> list[Lattice]:
    """Every subgroup of Z_N x Z_N, one per normal form, by size then points."""
    n = _group_order(n)
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
