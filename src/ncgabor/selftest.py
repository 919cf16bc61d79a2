"""The invariant registry behind `ncgabor selftest` and `tests/test_invariants.py`.

Each entry of REGISTRY is (name, tolerance, fn): fn(rng) yields residuals;
the entry's residual is the largest, and it passes when residual <= tolerance
(`CheckResult.passed`).  A NaN or an entry that yields nothing fails.
Boolean checks yield one failure count and use tolerance 0.  Randomized
entries run over LATTICE_MATRIX on complex standard-normal (unnormalized)
signals and coefficients; an entry whose residual is normalized in a way
its code does not make plain says so in its docstring.  The rng of an entry
is seeded from (seed, crc32 of its name), so adding, removing or reordering
entries leaves every other entry's inputs and residual unchanged.  The dense
oracles live here, not in the library, and tests/oracles.py takes them from
here: the shift matrix (_shift_matrix), the frame-type operator summed from
its definition (_frame_type_by_definition), the commutant scanned over Z_N^2
(_commutant_by_scan) and the direct STFT sum (_stft_direct).
"""
from __future__ import annotations

import math
import zlib

import numpy as np

from . import serialize
from .core import (
    Signal,
    TFPoint,
    cocycle,
    random_signal,
    stft,
    symplectic_bicharacter,
    tf_shift,
)
from .lattice import (
    _Value,
    adjoint_lattice,
    enumerate_subgroups,
    lattice_from_generators,
    volume,
)
from .weights import (
    GRS_CONSISTENT,
    GRS_VIOLATES,
    Weight,
    grs_probe,
)
from .algebra import (
    CoeffSeq,
    _sectors,
    coefficients_of,
    delta_seq,
    invert_in_algebra,
    involution,
    represent,
    spectrum,
    trace_tau,
    twisted_conv,
    unit,
    weighted_norm,
)
from .frames import (
    GaborSystem,
    NotAFrame,
    _frame_element,
    canonical_dual,
    canonical_tight,
    figa_check,
    frame_bounds,
    janssen_representation,
    reconstruct,
)
from .module import (
    act_left,
    act_right,
    inner_left,
    inner_right,
    min_windows,
    module_frame_check,
    multiwindow_parseval_residual,
    tight_multiwindow,
)
from .modspaces import ModNormSpec, feichtinger_norm, mod_norm

__all__ = ["CheckResult", "LATTICE_MATRIX", "REGISTRY", "run_check", "run_selftest"]

# (N, generators) pairs covering separable, non-separable, self-dual,
# undersampled and oversampled lattices up to N = 24.
LATTICE_MATRIX = (
    (6, ((2, 0), (0, 2))),
    (6, ((1, 1),)),
    (8, ((2, 0), (0, 2))),
    (8, ((4, 0), (0, 2))),
    (8, ((4, 0), (0, 4))),
    (12, ((2, 0), (0, 3))),
    (12, ((3, 0), (0, 4))),
    (12, ((2, 1), (0, 6))),
    (16, ((2, 0), (0, 4))),
    (24, ((4, 0), (0, 6))),
)

# Lattices outside the matrix on which the adjoint-lattice expansion also runs.
_JANSSEN_EXTRA = ((8, ((1, 1),)), (16, ((4, 0), (0, 4))), (16, ((2, 1), (0, 8))))

# A lattice outside the matrix on which the dual reconstruction also runs.
_DUAL_EXTRA = ((12, ((3, 0), (0, 2))),)

# Sheared frame lattices on which the sector-copy entry also runs: on both
# sides the copies of each sector (q' of 2 or 3) carry a phase.
_COPY_EXTRA = ((8, ((2, 1), (0, 2))), (12, ((2, 2), (0, 4))))

# Draws per lattice of the module-axiom entries, and per lattice or setting of
# the fundamental-identity, inversion, window-count and modulation-norm entries.
_MODULE_TRIALS = 50
_TRIALS = 100


class CheckResult(_Value):
    __slots__ = _fields = ("name", "tol", "residual", "error")
    name: str
    tol: float
    residual: float
    error: str | None  # "<exception type>: <message>" when the check raised

    def __init__(self, name: str, tol: float, residual: float, error: str | None = None) -> None:
        self._assign(name, tol, residual, error)

    @property
    def passed(self) -> bool:
        return self.error is None and self.residual <= self.tol


# Each pair's lattice, built once so that every entry shares its tables.
_BUILT = {p: lattice_from_generators(*p)
          for p in LATTICE_MATRIX + _JANSSEN_EXTRA + _DUAL_EXTRA + _COPY_EXTRA}


def _lattices(pairs=LATTICE_MATRIX):
    return [_BUILT[pair] for pair in pairs]


def _frame_lattices():
    return [lat for lat in _lattices() if volume(lat) <= 1]


def _rand_seq(lat, rng) -> CoeffSeq:
    return CoeffSeq(lat, rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size))


def _module_draws(rng, signals: int, seq: bool = False):
    """_MODULE_TRIALS draws per matrix lattice of (lat, a, f, ...): complex
    standard-normal coefficients a (None unless seq) and `signals`
    unnormalized random signals."""
    for lat in _lattices():
        for _ in range(_MODULE_TRIALS):
            a = _rand_seq(lat, rng) if seq else None
            yield lat, a, *(random_signal(lat.n, rng) for _ in range(signals))


def _shift_matrix(p: TFPoint) -> np.ndarray:
    """Oracle: the N x N unitary matrix of the time-frequency shift by p, its
    phases exp(2 pi i (l t mod N) / N) evaluated directly."""
    n = p.n
    rows = np.arange(n)
    mat = np.zeros((n, n), dtype=complex)
    mat[rows, (rows - p.k) % n] = np.exp(2j * np.pi * (p.l * rows % n) / n)
    return mat


def _frame_operator(sys: GaborSystem) -> np.ndarray:
    """The frame operator of the system: its frame element, represented."""
    return represent(_frame_element(sys)).entries


def _check_norm_preservation(rng):
    for n in (5, 8, 12):
        f = random_signal(n, rng)
        for _ in range(8):
            p = TFPoint(n, int(rng.integers(n)), int(rng.integers(n)))
            yield abs(tf_shift(p, f).norm2() - f.norm2()) / f.norm2()


def _check_composition_commutation(rng):
    """Max abs entry gap of pi(lam) pi(mu) against cocycle(lam, mu) pi(lam + mu)
    and against c_symp(lam, mu) pi(mu) pi(lam), exhaustive over Z_N^2 x Z_N^2
    for N = 2..8."""
    for n in range(2, 9):
        points = [TFPoint(n, k, l) for k in range(n) for l in range(n)]
        mats = np.array([_shift_matrix(p) for p in points])
        prods = np.einsum("aij,bjk->abik", mats, mats)  # prods[i, j] = mats[i] @ mats[j]
        k, l = np.divmod(np.arange(n * n), n)  # points[i] = (k[i], l[i])
        index = (k[:, None] + k) % n * n + (l[:, None] + l) % n  # of points[i] + points[j]
        coc = np.array([[cocycle(lam, mu) for mu in points] for lam in points])
        symp = np.array([[symplectic_bicharacter(lam, mu) for mu in points] for lam in points])
        comp = np.abs(prods - coc[..., None, None] * mats[index]).max()
        comm = np.abs(prods - symp[..., None, None] * prods.transpose(1, 0, 2, 3)).max()
        yield from (comp, comm)


def _check_adjoint_rule(rng):
    for n in (4, 5, 6, 9):
        for k in range(n):
            for l in range(n):
                p = TFPoint(n, k, l)
                lhs = _shift_matrix(p).conj().T
                rhs = cocycle(p, p) * _shift_matrix(-p)
                yield np.abs(lhs - rhs).max()


def _stft_direct(f: Signal, g: Signal) -> np.ndarray:
    """Oracle: the STFT by direct summation in canonical (k, l, t) order."""
    t = np.arange(f.n)
    kernel = np.exp(-2j * np.pi * np.outer(t, t) / f.n)  # kernel[l, t]
    return np.array([kernel @ (f.values * np.conj(np.roll(g.values, k))) for k in t])


def _check_stft_agreement(rng):
    for n in (5, 8, 13):
        f, g = random_signal(n, rng), random_signal(n, rng)
        yield np.abs(stft(f, g).values - _stft_direct(f, g)).max()


def _check_moyal(rng):
    for n in (6, 8, 12):
        f, g = random_signal(n, rng), random_signal(n, rng)
        total = float(np.sum(np.abs(stft(f, g).values) ** 2))
        expect = n * f.norm2() ** 2 * g.norm2() ** 2
        yield abs(total - expect) / expect


def _check_stft_covariance(rng):
    """Max abs gap of |V_g(pi(mu) f)| against |V_g f| rolled by mu, at N = 6,
    10 and 9, for a random mu and for mu = (4, 7)."""
    for n in (6, 10, 9):
        f, g = random_signal(n, rng), random_signal(n, rng)
        base = np.abs(stft(f, g).values)
        for mu in (TFPoint(n, int(rng.integers(n)), int(rng.integers(n))), TFPoint(n, 4, 7)):
            shifted = np.abs(stft(tf_shift(mu, f), g).values)
            rolled = np.roll(np.roll(base, mu.k, axis=0), mu.l, axis=1)
            yield np.abs(shifted - rolled).max()


def _commutant_by_scan(lat):
    """Oracle: the points of Z_N^2, in lexicographic order, whose numerically
    evaluated commutation factor with every point of the lattice is 1."""
    n = lat.n
    grid = np.indices((n, n)).reshape(2, -1).T
    pts = lat.as_array()
    exponent = (np.outer(grid[:, 1], pts[:, 0]) - np.outer(grid[:, 0], pts[:, 1])) % n
    keep = np.all(np.abs(np.exp(2j * np.pi * exponent / n) - 1.0) < 1e-12, axis=1)
    return grid[keep].tolist()


def _check_adjoint_duality(rng):
    """Failures of |L| |L°| = N^2, L°° = L and L° = commutant, on the matrix
    and on every subgroup of N in (4, 6, 8, 12)."""
    failures = 0
    for lat in _lattices() + [s for n in (4, 6, 8, 12) for s in enumerate_subgroups(n)]:
        adj = adjoint_lattice(lat)
        failures += lat.size * adj.size != lat.n**2
        failures += adjoint_lattice(adj).as_array().tolist() != lat.as_array().tolist()
        failures += adj.as_array().tolist() != _commutant_by_scan(lat)
    yield failures


def _check_adjoint_commutation(rng):
    """Max abs entry of AB - BA over every shift A of L and every B of L°."""
    for lat in _lattices():
        A, B = (np.array([_shift_matrix(TFPoint(lat.n, *p)) for p in x.as_array()])
                for x in (lat, adjoint_lattice(lat)))
        yield np.abs(A[:, None] @ B - B @ A[:, None]).max()


_FAMILIES = (Weight.polynomial(2), Weight.subexponential(1.0, 0.5), Weight.exponential(1.0))


def _check_weight_symmetry(rng):
    """Failures of v(-p) = v(p) and v(p) >= 1 at 50 points per family."""
    failures = 0
    for v in _FAMILIES:
        for _ in range(50):
            p = tuple(int(x) for x in rng.integers(-40, 41, size=2))
            failures += v((-p[0], -p[1])) != v(p) or v(p) < 1.0
    yield failures


def _check_weight_power(rng):
    """Relative gap of polynomial(s) against polynomial(1)^s for s in 3, 0, 1,
    2, 3.5 at 20 random points of [-40, 40]^2 and at (0, 0), (3, 4), (-7, 2)."""
    points = [tuple(int(x) for x in rng.integers(-40, 41, size=2)) for _ in range(20)]
    for s in (3.0, 0.0, 1.0, 2.0, 3.5):
        for p in points + [(0, 0), (3, 4), (-7, 2)]:
            rhs = Weight.polynomial(1.0)(p) ** s
            yield abs(Weight.polynomial(s)(p) - rhs) / rhs


def _submult_constant(v: Weight) -> float:
    """C in v(p + q) <= C v(p) v(q): (5/4)^(s/2) for polynomial(s), attained
    at p = q = (1, 0), and 1 for the other families."""
    return 1.25 ** (v.s / 2) if v.family == "polynomial" else 1.0


def _check_submultiplicative(rng):
    """Largest v(p + q) / (C v(p) v(q)) over every p, q in [-6, 6]^2, minus 1,
    C the family's constant."""
    axis = np.arange(-6, 7)
    p = np.stack(np.meshgrid(axis, axis)).reshape(2, -1, 1)
    q = p.reshape(2, 1, -1)
    ratios = [v._grid(*(p + q)) / (_submult_constant(v) * v._grid(*p) * v._grid(*q))
              for v in _FAMILIES]
    yield np.max(ratios) - 1.0


_GRS_PROBES = (
    (1, 0), (0, 1), (1, 1), (2, 1), (3, 0), (0, 3), (2, 2),
    (3, 4), (-1, 2), (5, 0), (0, 2), (3, 1), (-2, 5),
)


def _check_grs(rng):
    """Misclassified (family, probe) pairs: polynomial and subexponential
    weights are GRS-consistent, the exponential weight violates GRS."""
    expected = ((Weight.polynomial(2), GRS_CONSISTENT),
                (Weight.subexponential(1.0, 0.5), GRS_CONSISTENT),
                (Weight.exponential(1.0), GRS_VIOLATES))
    yield sum(
        grs_probe(v, p, 4096).verdict != verdict for p in _GRS_PROBES for v, verdict in expected
    )


def _check_grs_samples(rng):
    """Relative gap of the exponential weight's ray samples along 3p,
    v(3n p)^(1/n), against v(p)^3: the ray identity v(m p) = v(p)^m, with a
    factor m = 3 that the probe's dyadic n cannot make exact in binary."""
    v = Weight.exponential(1.0)
    for p in _GRS_PROBES:
        cube = v(p) ** 3
        for _, val in grs_probe(v, (3 * p[0], 3 * p[1]), 4096).samples:
            yield abs(val - cube) / cube


def _check_homomorphism(rng):
    for lat in _lattices():
        a, b = _rand_seq(lat, rng), _rand_seq(lat, rng)
        lhs = represent(twisted_conv(a, b)).entries
        rhs = represent(a).entries @ represent(b).entries
        yield np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)


def _check_involution_rep(rng):
    """Frobenius gap relative to ||a||_2, the coefficient norm (sqrt(N) times
    stricter than relative to ||represent(a)||_F)."""
    for lat in _lattices():
        a = _rand_seq(lat, rng)
        gap = np.linalg.norm(represent(involution(a)).entries - represent(a).entries.conj().T)
        yield gap / np.linalg.norm(a.coeffs)


def _check_norm_submult(rng):
    """max(||a # b|| / (C ||a|| ||b||) - 1 over the v^s-weighted norms, s = 0, 1, 2,
    C the constant of v^s, on random pairs and on delta_(1,0) # delta_(1,0), where
    C is attained; and the relative gap between the v^s-weighted norms of a* and
    a, s = 0, 1, 2)."""
    v = Weight.polynomial(1)
    delta = delta_seq(lattice_from_generators(8, ((1, 0),)), TFPoint(8, 1, 0))
    pairs = [(delta, delta)]
    for lat in _lattices():
        a, b = _rand_seq(lat, rng), _rand_seq(lat, rng)
        pairs.append((a, b))
        for s in (0.0, 1.0, 2.0):
            norm = weighted_norm(a, v, s)
            yield abs(weighted_norm(involution(a), v, s) - norm) / norm
    for a, b in pairs:
        for s in (0.0, 1.0, 2.0):
            bound = _submult_constant(v.power(s)) * weighted_norm(a, v, s) * weighted_norm(b, v, s)
            yield weighted_norm(twisted_conv(a, b), v, s) / bound - 1.0


def _check_coefficient_recovery(rng):
    for lat in _lattices():
        a = _rand_seq(lat, rng)
        recovered, residual = coefficients_of(represent(a), lat)
        yield from (np.abs(recovered.coeffs - a.coeffs).max(), residual)


def _check_inversion_support(rng):
    """Elements 1 + 0.25 noise / max|noise|: l1 gap of a # a^-1 from the unit,
    and the off-lattice residual of the dense inverse of represent(a)."""
    for lat in _lattices():
        one = unit(lat).coeffs
        for _ in range(_TRIALS):
            noise = _rand_seq(lat, rng).coeffs
            elem = CoeffSeq(lat, one + 0.25 * noise / np.abs(noise).max())
            gap = np.abs(twisted_conv(elem, invert_in_algebra(elem)).coeffs - one).sum()
            _, residual = coefficients_of(np.linalg.inv(represent(elem).entries), lat)
            yield from (gap, residual)


def _check_trace(rng):
    for lat in _lattices():
        a = _rand_seq(lat, rng)
        yield abs(trace_tau(a) - np.trace(represent(a).entries) / lat.n)


def _check_spectrum(rng):
    for lat in _lattices():
        a = _rand_seq(lat, rng)
        herm = CoeffSeq(lat, (a.coeffs + involution(a).coeffs) / 2)
        yield np.abs(spectrum(herm).imag).max()


def _check_sector_copies(rng):
    """represent(x) rebuilt from its distinct sectors, each repeated over its
    copies in the basis the copy tables name (unit vectors at the tabled
    times, times the conjugate twist, through a length-K DFT), relative to its
    largest entry, for a random x on every frame lattice and its adjoint and
    on _COPY_EXTRA."""
    for lat in _frame_lattices() + _lattices(_COPY_EXTRA):
        for x in (lat, adjoint_lattice(lat)):
            a = _rand_seq(x, rng)
            times, twist = x._sector_tables[:2]
            k = times.shape[2]
            dft = np.exp(2j * np.pi * np.outer(np.arange(k), np.arange(k)) / k)
            j, r, u, rho = np.indices(times.shape)
            basis = np.zeros((x.n, *times.shape), dtype=complex)  # [t, j, r, d, rho]
            basis[times[..., None], j[..., None], r[..., None], np.arange(k), rho[..., None]] = (
                twist.conj()[..., None] * dft[u]
            )
            basis = basis.reshape(x.n, x.n)
            blocks = _sectors(a.coeffs, x) @ basis.conj().T.reshape(*times.shape, x.n)
            rebuilt = basis @ blocks.reshape(x.n, x.n)
            expect = represent(a).entries
            yield np.abs(rebuilt - expect).max() / np.abs(expect).max()


def _check_frame_commutation(rng):
    for lat in _frame_lattices():
        S = _frame_operator(GaborSystem((random_signal(lat.n, rng),), lat))
        for k, l in lat.as_array().tolist():
            P = _shift_matrix(TFPoint(lat.n, k, l))
            yield np.linalg.norm(S @ P - P @ S) / np.linalg.norm(S)


def _frame_type_by_definition(g, h, lat):
    """sum_lam pi(lam) h (x) conj(pi(lam) g) over the lattice (h = g: the frame
    operator), one shift matrix per point: shares no code with the
    adjoint-lattice route."""
    mats = np.array([_shift_matrix(TFPoint(lat.n, k, l)) for k, l in lat.as_array().tolist()])
    return (mats @ h.values).T @ (mats @ g.values).conj()


def _check_janssen(rng):
    """Seven random window pairs (g, h) per lattice of the matrix and of
    _JANSSEN_EXTRA: the expansion of (g, h) and the frame operator of g,
    each against its sum from the definition."""
    for lat in _lattices(LATTICE_MATRIX + _JANSSEN_EXTRA):
        for _ in range(7):
            g, h = random_signal(lat.n, rng), random_signal(lat.n, rng)
            expansion = represent(janssen_representation(g, h, lat)).entries
            pairs = (
                (_frame_type_by_definition(g, h, lat), expansion),
                (_frame_type_by_definition(g, g, lat), _frame_operator(GaborSystem((g,), lat))),
            )
            for S, J in pairs:
                yield np.linalg.norm(S - J) / np.linalg.norm(S)


def _check_figa(rng):
    for lat in _lattices():
        for _ in range(_TRIALS):
            yield figa_check(*(random_signal(lat.n, rng) for _ in range(4)), lat)


def _gaussian(n: int) -> Signal:
    """exp(-pi t^2 / N), t lifted to (-N/2, N/2]."""
    t = (np.arange(n) + n // 2) % n - n // 2
    return Signal(n, np.exp(-np.pi * t**2 / n) + 0j)


def _check_dual_reconstruction(rng):
    """Relative error, analyzing with the dual and synthesizing with the
    window, and the other way round, for a random window on every frame
    lattice and on _DUAL_EXTRA, and for the Gaussian on those of covolume
    below 1 (at covolume 1 it is not a frame on <(4,0),(0,2)> at N = 8 or
    <(4,0),(0,6)> at N = 24)."""
    for lat in _frame_lattices() + _lattices(_DUAL_EXTRA):
        g, f = random_signal(lat.n, rng), random_signal(lat.n, rng)
        for window in (g, _gaussian(lat.n)) if volume(lat) < 1 else (g,):
            sys = GaborSystem((window,), lat)
            duals = canonical_dual(sys)
            swapped = reconstruct(f, GaborSystem(tuple(duals), lat), [window])
            for out in (reconstruct(f, sys, duals), swapped):
                yield np.linalg.norm(out.values - f.values) / f.norm2()


def _check_wexler_raz(rng):
    """The Wexler-Raz identity: the canonical dual gamma of g satisfies
    vol^{-1} <gamma, pi(mu) g> = [mu == 0] on the adjoint lattice, the unit
    of its algebra; largest coefficient error."""
    for lat in _frame_lattices():
        g = random_signal(lat.n, rng)
        (dual,) = canonical_dual(GaborSystem((g,), lat))
        got = janssen_representation(g, dual, lat)
        yield np.abs(got.coeffs - unit(got.lattice).coeffs).max()


def _check_tight_parseval(rng):
    for lat in _frame_lattices():
        tight = canonical_tight(GaborSystem((random_signal(lat.n, rng),), lat))
        S = _frame_operator(GaborSystem(tuple(tight), lat))
        yield np.linalg.norm(S - np.eye(lat.n))


_EIGENVALUE_FLOOR_REL = 1e-14


def _hermitian_inverse_sqrt(mat: np.ndarray) -> np.ndarray:
    """Inverse square root of a Hermitian PSD matrix by eigendecomposition.

    Eigenvalues below _EIGENVALUE_FLOOR_REL times the largest contribute
    nothing instead of amplifying numerically null directions.
    """
    eigs, vecs = np.linalg.eigh(mat)
    floor = eigs[-1] * _EIGENVALUE_FLOOR_REL
    inv = np.where(eigs > floor, 1.0 / np.sqrt(np.where(eigs > floor, eigs, 1.0)), 0.0)
    return (vecs * inv) @ vecs.conj().T


def _check_tight_span(rng):
    for lat in _frame_lattices():
        S = _frame_operator(GaborSystem((random_signal(lat.n, rng),), lat))
        root = _hermitian_inverse_sqrt(S)
        _, residual = coefficients_of(root, adjoint_lattice(lat))
        yield residual / np.linalg.norm(root)


def _check_nonframe_rejection(rng):
    """Undersampled (covolume > 1) single-window systems of the matrix that
    frame_bounds accepts or canonical_dual does not reject."""
    failures = 0
    for lat in _lattices():
        if volume(lat) <= 1:
            continue
        sys = GaborSystem((random_signal(lat.n, rng),), lat)
        failures += frame_bounds(sys).is_frame
        try:
            canonical_dual(sys)
            failures += 1
        except NotAFrame:
            pass
    yield failures


def _check_left_positivity(rng):
    """-min eigenvalue of represent(<f, f>_L), f unnormalized."""
    for lat, _, f in _module_draws(rng, 1):
        yield -np.linalg.eigvalsh(represent(inner_left(f, f, lat)).entries)[0]


def _check_right_positivity(rng):
    """max(-min eigenvalue, ||op - op^H|| / ||op||, ||op - S_f|| / ||S_f||) for
    the matrix op of the right action of b = <f, f>_R, f unnormalized, which
    represents vol^{-1} involution(conj b): op is the frame operator S_f of f,
    summed from its definition, Hermitian and positive."""
    for lat, _, f in _module_draws(rng, 1):
        b = inner_right(f, f, lat)
        vol = b.lattice.n / b.lattice.size
        op = represent(involution(CoeffSeq(b.lattice, vol * np.conj(b.coeffs)))).entries
        S = _frame_type_by_definition(f, f, lat)
        hermgap = np.linalg.norm(op - op.conj().T) / np.linalg.norm(op)
        framegap = np.linalg.norm(op - S) / np.linalg.norm(S)
        lowest = np.linalg.eigvalsh((op + op.conj().T) / 2)[0]
        yield from (hermgap, framegap, -lowest)


def _check_module_involution(rng):
    """max |<f, g>_L* - <g, f>_L| / max(1, max |<g, f>_L|), f, g unnormalized
    (implies the absolute gap on unit signals)."""
    for lat, _, f, g in _module_draws(rng, 2):
        rhs = inner_left(g, f, lat).coeffs
        gap = np.abs(involution(inner_left(f, g, lat)).coeffs - rhs).max()
        yield gap / max(1.0, np.abs(rhs).max())


def _check_left_compatibility(rng):
    """Absolute l1 gap, unnormalized a, f, g."""
    for lat, a, f, g in _module_draws(rng, 2, seq=True):
        lhs = inner_left(act_left(a, f), g, lat).coeffs
        rhs = twisted_conv(a, inner_left(f, g, lat)).coeffs
        yield np.abs(lhs - rhs).sum()


def _check_right_compatibility(rng):
    """Absolute max gap, unnormalized a, f, g."""
    for lat, a, f, g in _module_draws(rng, 2, seq=True):
        lhs = inner_right(act_left(a, f), g, lat).coeffs
        rhs = inner_right(f, act_left(involution(a), g), lat).coeffs
        yield np.abs(lhs - rhs).max()


def _check_associativity(rng):
    """||<f, g>_L h - f <g, h>_R|| / ||<f, g>_L h||: scale-invariant."""
    for lat, _, f, g, h in _module_draws(rng, 3):
        lhs = act_left(inner_left(f, g, lat), h).values
        rhs = act_right(f, inner_right(g, h, lat)).values
        yield np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)


def _check_adjointness(rng):
    for lat in _lattices():
        a = _rand_seq(lat, rng)
        f, g = random_signal(lat.n, rng), random_signal(lat.n, rng)
        lhs = represent(a).entries @ represent(inner_left(f, g, lat)).entries.conj().T
        rhs = represent(inner_left(act_left(a, g), f, lat)).entries
        yield np.linalg.norm(lhs - rhs) / (1 + np.linalg.norm(lhs))


def _window_sets(rng):
    """Per matrix lattice, ceil(covolume) and one more random windows."""
    for lat in _lattices():
        need = max(1, math.ceil(volume(lat)))
        for count in (need, need + 1):
            yield lat, [random_signal(lat.n, rng) for _ in range(count)]


def _check_module_vs_multiwindow(rng):
    """Window sets whose module-frame verdict differs from the stacked
    multi-window system's frame verdict."""
    failures = 0
    for lat, ws in _window_sets(rng):
        stacked = frame_bounds(GaborSystem(tuple(ws), lat))
        failures += module_frame_check(ws, lat).is_module_frame != stacked.is_frame
    yield failures


def _check_trace_bridge(rng):
    """Parseval gap of the tightened windows on four signals, for every
    window set of _window_sets that is a frame."""
    for lat, ws in _window_sets(rng):
        try:
            tight = tight_multiwindow(ws, lat)
        except NotAFrame:
            continue
        for _ in range(4):
            f = random_signal(lat.n, rng)
            yield multiwindow_parseval_residual(tight, lat, f)


def _check_min_windows(rng):
    """Wrong window counts: covolume 1/2 needs one window, covolume 2 needs two."""
    yield sum(
        min_windows(lattice_from_generators(8, gens)) != expect
        for gens, expect in ((((2, 0), (0, 2)), 1), (((4, 0), (0, 4)), 2))
    )


def _check_two_window_counts(rng):
    """On covolume 2 (N = 8, <(4,0),(0,4)>), one random window is a frame in
    0 of 100 draws and two in at least 90 of 100: frames accepted with one
    window plus the shortfall below 90 with two."""
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])
    frames = {1: 0, 2: 0}
    for count in frames:
        for _ in range(_TRIALS):
            ws = tuple(random_signal(8, rng) for _ in range(count))
            frames[count] += frame_bounds(GaborSystem(ws, lat)).is_frame
    yield frames[1] + max(0, 90 - frames[2])


def _check_moyal_modnorm(rng):
    """Relative gap of the M^{2,2} norm against sqrt(N) ||f|| ||g||; its
    tolerance, 5e-11, is a relative bound of 1e-10 on the squared norm."""
    for n in (6, 12, 8):
        g = random_signal(n, rng)
        for _ in range(10):
            f = random_signal(n, rng)
            expect = np.sqrt(n) * f.norm2() * g.norm2()
            val = mod_norm(f, ModNormSpec(2.0, 2.0, Weight.one(), g))
            yield abs(val - expect) / expect


def _check_modnorm_axioms(rng):
    """max(relative homogeneity gap, triangle excess ||f1 + f2|| - ||f1|| - ||f2||)
    for v = 1 + |p|, at N = 10 with (p, q) in (1, 1), (1, 2), (2, inf), at
    N = 12 with (p, q) = (1, 2) and at N = 10 with (p, q) = (1.5, 3)."""
    for n, exponents in ((10, ((1.0, 1.0), (1.0, 2.0), (2.0, np.inf))), (12, ((1.0, 2.0),)),
                         (10, ((1.5, 3.0),))):
        g = random_signal(n, rng)
        for p, q in exponents:
            spec = ModNormSpec(p, q, Weight.polynomial(1), g)
            for _ in range(_TRIALS):
                f1, f2 = random_signal(n, rng), random_signal(n, rng)
                c = complex(rng.standard_normal(), rng.standard_normal())
                scaled, n1 = mod_norm(Signal(n, c * f1.values), spec), mod_norm(f1, spec)
                excess = mod_norm(Signal(n, f1.values + f2.values), spec) - n1 - mod_norm(f2, spec)
                yield from (abs(scaled - abs(c) * n1) / scaled, excess)


def _check_modnorm_covariance(rng):
    """Largest ||pi(mu) f|| / (v(mu)^2 ||f||) for the v^2-weighted M^{1,1} norm
    over mu != 0, minus 1 (mu = 0 gives exactly 1)."""
    n = 12
    v = Weight.polynomial(1)
    spec = ModNormSpec(1.0, 1.0, v.power(2.0), random_signal(n, rng))
    for _ in range(_TRIALS):
        f = random_signal(n, rng)
        mu = TFPoint(n, *divmod(int(rng.integers(1, n * n)), n))  # never the origin
        bound = v(mu.lift()) ** 2 * mod_norm(f, spec)
        yield mod_norm(tf_shift(mu, f), spec) / bound - 1.0


def _check_feichtinger_monotone(rng):
    """Largest ratio of the norm at weight power s to the norm at s + 1, minus 1,
    at N = 10 and 8: at most 0, with no rounding slack."""
    v = Weight.polynomial(1)
    for n in (10, 8):
        g = random_signal(n, rng)
        for _ in range(10):
            f = random_signal(n, rng)
            vals = [feichtinger_norm(f, v, s, g) for s in (0.0, 1.0, 2.0)]
            yield from (vals[0] / vals[1] - 1.0, vals[1] / vals[2] - 1.0)


def _check_serialization(rng):
    """Schemas that fail to round trip exactly."""
    f = random_signal(6, rng)
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    a = _rand_seq(lat, rng)
    back_f = serialize.signal_from_dict(serialize.signal_to_dict(f))
    back_a = serialize.coeffseq_from_dict(serialize.coeffseq_to_dict(a))
    failures = back_f.values.tolist() != f.values.tolist()
    back_lat = serialize.lattice_from_dict(serialize.lattice_to_dict(lat))
    failures += back_lat.as_array().tolist() != lat.as_array().tolist()
    failures += back_a.coeffs.tolist() != a.coeffs.tolist()
    custom = Weight.custom({(0, 0): 1.0, (1, 0): 2.0})
    for v in (Weight.polynomial(2), Weight.subexponential(1, 0.5), custom):
        failures += serialize.weight_from_dict(serialize.weight_to_dict(v)) != v
    yield failures


# (name, tolerance, fn): fn(rng) yields residuals; the entry's residual is the largest;
# a NaN or an entry that yields nothing fails; pass iff residual <= tolerance.
REGISTRY = (
    ("shift norm preservation", 1e-12, _check_norm_preservation),
    ("shift composition and commutation", 1e-12, _check_composition_commutation),
    ("shift adjoint rule", 1e-12, _check_adjoint_rule),
    ("stft fast/direct agreement", 1e-10, _check_stft_agreement),
    ("moyal identity", 1e-10, _check_moyal),
    ("stft shift covariance", 1e-10, _check_stft_covariance),
    ("adjoint-lattice duality", 0, _check_adjoint_duality),
    ("adjoint commutation witness", 1e-12, _check_adjoint_commutation),
    ("weight symmetry and normalization", 0, _check_weight_symmetry),
    ("weight power composition", 1e-12, _check_weight_power),
    ("weight submultiplicativity", 1e-12, _check_submultiplicative),
    ("growth-rate classification", 0, _check_grs),
    ("exponential growth-rate samples", 1e-12, _check_grs_samples),
    ("twisted-convolution homomorphism", 1e-11, _check_homomorphism),
    ("involution representation", 1e-12, _check_involution_rep),
    ("weighted-norm submultiplicativity", 1e-12, _check_norm_submult),
    ("coefficient recovery", 1e-12, _check_coefficient_recovery),
    ("inversion support preservation", 1e-9, _check_inversion_support),
    ("trace normalization", 1e-12, _check_trace),
    ("hermitian spectrum reality", 1e-10, _check_spectrum),
    ("sector copies rebuild represent", 1e-12, _check_sector_copies),
    ("frame operator shift commutation", 1e-10, _check_frame_commutation),
    ("adjoint-lattice expansion of frame operator", 1e-10, _check_janssen),
    ("fundamental identity", 1e-10, _check_figa),
    ("canonical dual reconstruction", 1e-9, _check_dual_reconstruction),
    ("wexler-raz identity of the canonical dual", 1e-10, _check_wexler_raz),
    ("canonical tight parseval", 1e-9, _check_tight_parseval),
    ("tightening stays in adjoint span", 1e-9, _check_tight_span),
    ("non-frame rejection", 0, _check_nonframe_rejection),
    ("left inner product positivity", 1e-10, _check_left_positivity),
    ("right inner product is the positive frame operator", 1e-10, _check_right_positivity),
    ("module involution symmetry", 1e-12, _check_module_involution),
    ("left action compatibility", 1e-10, _check_left_compatibility),
    ("right action adjoint compatibility", 1e-10, _check_right_compatibility),
    ("module associativity", 1e-10, _check_associativity),
    ("coefficient-synthesis adjointness", 1e-10, _check_adjointness),
    ("module frame equals multi-window frame", 0, _check_module_vs_multiwindow),
    ("trace bridge parseval", 1e-10, _check_trace_bridge),
    ("minimum window count", 0, _check_min_windows),
    ("covolume 2 needs two windows", 0, _check_two_window_counts),
    ("moyal ties mixed norm to hilbert norm", 5e-11, _check_moyal_modnorm),
    ("modulation norm axioms", 1e-10, _check_modnorm_axioms),
    ("modulation norm shift covariance", 1e-10, _check_modnorm_covariance),
    ("window-class norm monotonicity", 0, _check_feichtinger_monotone),
    ("serialization round trips", 0, _check_serialization),
)


def run_check(entry, seed: int = 0) -> CheckResult:
    """Run one registry entry; its inputs depend only on the seed and its name.
    Its residual is the largest it yields, a NaN among them included."""
    name, tol, fn = entry
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    try:
        residuals = np.fromiter(fn(rng), float)
        if not residuals.size:
            raise ValueError("the entry checked nothing")
        return CheckResult(name, tol, float(residuals.max()))
    except Exception as exc:  # a crash is a failure, not an abort
        return CheckResult(name, tol, math.nan, f"{type(exc).__name__}: {exc}")


def run_selftest(seed: int = 0) -> list[CheckResult]:
    """Run every entry of REGISTRY; deterministic for a fixed seed."""
    return [run_check(entry, seed) for entry in REGISTRY]
