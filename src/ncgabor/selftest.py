"""Built-in invariant suite behind the CLI selftest verb.

Each check exercises one structural identity of the toolkit on a small test
matrix of group orders and lattices, and reports a pass/fail verdict with the
worst observed residual.  Checks draw their randomness from a seed offset by
their position, so results are reproducible for a fixed seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import serialize
from .core import (
    Signal,
    TFPoint,
    cocycle,
    random_signal,
    shift_matrix,
    stft,
    symplectic_bicharacter,
    tf_shift,
)
from .lattice import (
    adjoint_lattice,
    enumerate_subgroups,
    lattice_from_generators,
    volume,
)
from .weights import (
    GRS_CONSISTENT,
    GRS_VIOLATES,
    Weight,
    check_submultiplicative,
    grs_probe,
)
from .algebra import (
    CoeffSeq,
    coefficients_of,
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
    canonical_dual,
    canonical_tight,
    figa_check,
    frame_bounds,
    frame_operator,
    hermitian_inverse_sqrt,
    janssen_representation,
    reconstruct,
)
from .module import (
    act_left,
    associativity_residual,
    inner_left,
    inner_right,
    min_windows,
    module_frame_check,
    multiwindow_parseval_residual,
    right_operator,
    tight_multiwindow,
)
from .modspaces import ModNormSpec, feichtinger_norm, mod_norm

__all__ = ["CheckResult", "run_selftest", "TEST_LATTICES"]

# (N, generators): the lattice matrix every randomized invariant runs over.
TEST_LATTICES = (
    (6, ((2, 0), (0, 2))),
    (6, ((1, 1),)),
    (8, ((2, 0), (0, 2))),
    (8, ((4, 0), (0, 2))),
    (12, ((2, 0), (0, 3))),
    (12, ((3, 0), (0, 4))),
    (12, ((2, 1), (0, 6))),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _lattices():
    return [lattice_from_generators(n, gens) for n, gens in TEST_LATTICES]


def _frame_lattices():
    return [lat for lat in _lattices() if volume(lat) <= 1]


def _check_norm_preservation(rng):
    worst = 0.0
    for n in (5, 8, 12):
        f = random_signal(n, rng)
        for _ in range(8):
            p = TFPoint(n, int(rng.integers(n)), int(rng.integers(n)))
            worst = max(worst, abs(tf_shift(p, f).norm2() - f.norm2()) / f.norm2())
    return worst <= 1e-12, f"max rel norm drift {worst:.2e}"


def _check_composition(rng):
    worst = 0.0
    for n in (2, 3, 4, 6):
        for lam, mu in product(product(range(n), repeat=2), repeat=2):
            a, b = TFPoint(n, *lam), TFPoint(n, *mu)
            lhs = shift_matrix(a) @ shift_matrix(b)
            rhs = cocycle(a, b) * shift_matrix(a + b)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst <= 1e-12, f"max residual {worst:.2e}"


def _check_commutation(rng):
    worst = 0.0
    for n in (2, 3, 4, 6):
        for lam, mu in product(product(range(n), repeat=2), repeat=2):
            a, b = TFPoint(n, *lam), TFPoint(n, *mu)
            lhs = shift_matrix(a) @ shift_matrix(b)
            rhs = symplectic_bicharacter(a, b) * (shift_matrix(b) @ shift_matrix(a))
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst <= 1e-12, f"max residual {worst:.2e}"


def _check_adjoint_rule(rng):
    worst = 0.0
    for n in (4, 6, 9):
        for lam in product(range(n), repeat=2):
            p = TFPoint(n, *lam)
            lhs = shift_matrix(p).conj().T
            rhs = cocycle(p, p) * shift_matrix(-p)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst <= 1e-12, f"max residual {worst:.2e}"


def _check_stft_agreement(rng):
    worst = 0.0
    for n in (5, 8, 13):
        f, g = random_signal(n, rng), random_signal(n, rng)
        # direct summation in canonical (k, l, t) order
        t = np.arange(n)
        kernel = np.exp(-2j * np.pi * np.outer(t, t) / n)  # kernel[l, t]
        direct = np.array([kernel @ (f.values * np.conj(np.roll(g.values, k))) for k in t])
        worst = max(worst, float(np.abs(stft(f, g).values - direct).max()))
    return worst <= 1e-12 * 100, f"max abs gap {worst:.2e}"


def _check_moyal(rng):
    worst = 0.0
    for n in (6, 8, 12):
        f, g = random_signal(n, rng), random_signal(n, rng)
        total = float(np.sum(np.abs(stft(f, g).values) ** 2))
        expect = n * f.norm2() ** 2 * g.norm2() ** 2
        worst = max(worst, abs(total - expect) / expect)
    return worst <= 1e-10, f"max rel gap {worst:.2e}"


def _check_stft_covariance(rng):
    worst = 0.0
    for n in (6, 10):
        f, g = random_signal(n, rng), random_signal(n, rng)
        mu = TFPoint(n, int(rng.integers(n)), int(rng.integers(n)))
        shifted = np.abs(stft(tf_shift(mu, f), g).values)
        base = np.abs(stft(f, g).values)
        rolled = np.roll(np.roll(base, mu.k, axis=0), mu.l, axis=1)
        worst = max(worst, float(np.abs(shifted - rolled).max()))
    return worst <= 1e-10, f"max abs gap {worst:.2e}"


def _check_adjoint_duality(rng):
    for lat in _lattices() + enumerate_subgroups(6):
        adj = adjoint_lattice(lat)
        if len(lat.points) * len(adj.points) != lat.n**2:
            return False, f"pairing broke on N={lat.n}"
        if adjoint_lattice(adj).points != lat.points:
            return False, f"double adjoint broke on N={lat.n}"
    return True, "pairing and duality exact on the test matrix"


def _check_adjoint_commutation(rng):
    worst = 0.0
    for lat in _lattices():
        adj = adjoint_lattice(lat)
        for _ in range(6):
            p = lat.points[int(rng.integers(lat.size))]
            q = adj.points[int(rng.integers(adj.size))]
            A, B = shift_matrix(p), shift_matrix(q)
            worst = max(worst, float(np.abs(A @ B - B @ A).max()))
    return worst <= 1e-12, f"max residual {worst:.2e}"


def _check_weight_axioms(rng):
    families = [Weight.polynomial(2), Weight.subexponential(1.0, 0.5), Weight.exponential(1.0)]
    for v in families:
        for _ in range(50):
            p = tuple(int(x) for x in rng.integers(-40, 41, size=2))
            if v((-p[0], -p[1])) != v(p) or v(p) < 1.0:
                return False, f"symmetry/normalization broke for {v.family} at {p}"
    s = 3.0
    for _ in range(20):
        p = tuple(int(x) for x in rng.integers(-40, 41, size=2))
        lhs = Weight.polynomial(s)(p)
        rhs = Weight.polynomial(1.0)(p) ** s
        if abs(lhs - rhs) > 1e-12 * rhs:
            return False, f"power composition broke at {p}"
    return True, "symmetry, normalization and power composition hold"


def _check_submultiplicative(rng):
    for v in (Weight.polynomial(2), Weight.subexponential(1.0, 0.5), Weight.exponential(1.0)):
        report = check_submultiplicative(v, 400, seed=int(rng.integers(2**31)))
        if not report.passed:
            return False, f"{v.family} ratio {report.max_violation:.3e}"
    return True, "all built-in families pass"


def _check_grs(rng):
    probes = [(1, 0), (0, 2), (3, 1), (-2, 5)]
    for p in probes:
        if grs_probe(Weight.polynomial(2), p, 4096).verdict != GRS_CONSISTENT:
            return False, f"polynomial misclassified at {p}"
        if grs_probe(Weight.subexponential(1.0, 0.5), p, 4096).verdict != GRS_CONSISTENT:
            return False, f"subexponential misclassified at {p}"
        if grs_probe(Weight.exponential(1.0), p, 4096).verdict != GRS_VIOLATES:
            return False, f"exponential misclassified at {p}"
    return True, "families classify as expected on all probes"


def _rand_seq(lat, rng) -> CoeffSeq:
    return CoeffSeq(lat, rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size))


def _check_homomorphism(rng):
    worst = 0.0
    for lat in _lattices():
        a, b = _rand_seq(lat, rng), _rand_seq(lat, rng)
        lhs = represent(twisted_conv(a, b)).entries
        rhs = represent(a).entries @ represent(b).entries
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)))
    return worst <= 1e-11, f"max rel residual {worst:.2e}"


def _check_involution_rep(rng):
    worst = 0.0
    for lat in _lattices():
        a = _rand_seq(lat, rng)
        gap = np.linalg.norm(represent(involution(a)).entries - represent(a).entries.conj().T)
        worst = max(worst, float(gap / np.linalg.norm(a.coeffs)))
    return worst <= 1e-12, f"max rel residual {worst:.2e}"


def _check_norm_submult(rng):
    v = Weight.polynomial(1)
    worst = 0.0
    for lat in _lattices()[:4]:
        a, b = _rand_seq(lat, rng), _rand_seq(lat, rng)
        for s in (0.0, 1.0, 2.0):
            lhs = weighted_norm(twisted_conv(a, b), v, s)
            rhs = weighted_norm(a, v, s) * weighted_norm(b, v, s)
            worst = max(worst, lhs / rhs)
        if weighted_norm(involution(a), v, 1.0) != weighted_norm(a, v, 1.0):
            gap = abs(weighted_norm(involution(a), v, 1.0) - weighted_norm(a, v, 1.0))
            if gap > 1e-12 * weighted_norm(a, v, 1.0):
                return False, f"involution not isometric (gap {gap:.2e})"
    return worst <= 1.0 + 1e-12, f"max norm ratio {worst:.6f}"


def _check_coefficient_recovery(rng):
    worst = 0.0
    for lat in _lattices():
        a = _rand_seq(lat, rng)
        recovered, residual = coefficients_of(represent(a), lat)
        worst = max(worst, float(np.abs(recovered.coeffs - a.coeffs).max()), residual)
    return worst <= 1e-11, f"max recovery error {worst:.2e}"


def _check_inversion_support(rng):
    worst = 0.0
    for lat in _lattices():
        a = unit(lat)
        b = _rand_seq(lat, rng)
        elem = CoeffSeq(lat, a.coeffs + 0.25 * b.coeffs / max(1.0, np.abs(b.coeffs).max()))
        inv = invert_in_algebra(elem)
        prod = twisted_conv(elem, inv)
        gap = float(np.abs(prod.coeffs - unit(lat).coeffs).sum())
        _, residual = coefficients_of(np.linalg.inv(represent(elem).entries), lat)
        worst = max(worst, gap, residual)
    return worst <= 1e-9, f"max inversion residual {worst:.2e}"


def _check_trace(rng):
    worst = 0.0
    for lat in _lattices():
        a = _rand_seq(lat, rng)
        gap = abs(trace_tau(a) - np.trace(represent(a).entries) / lat.n)
        worst = max(worst, float(gap))
    return worst <= 1e-12, f"max gap {worst:.2e}"


def _check_spectrum(rng):
    worst = 0.0
    for lat in _lattices()[:4]:
        a = _rand_seq(lat, rng)
        herm = CoeffSeq(lat, (a.coeffs + involution(a).coeffs) / 2)
        worst = max(worst, float(np.abs(spectrum(herm).imag).max()))
    return worst <= 1e-10, f"max |imag eigenvalue| {worst:.2e}"


def _check_frame_commutation(rng):
    worst = 0.0
    for lat in _frame_lattices():
        g = random_signal(lat.n, rng)
        S = frame_operator(GaborSystem((g,), lat)).entries
        for p in lat.points[: min(8, lat.size)]:
            P = shift_matrix(p)
            worst = max(
                worst, float(np.linalg.norm(S @ P - P @ S) / np.linalg.norm(S))
            )
    return worst <= 1e-10, f"max rel residual {worst:.2e}"


def _check_janssen(rng):
    worst = 0.0
    for lat in _lattices():
        g = random_signal(lat.n, rng)
        S = frame_operator(GaborSystem((g,), lat)).entries
        J = represent(janssen_representation(g, g, lat)).entries
        worst = max(worst, float(np.linalg.norm(S - J) / np.linalg.norm(S)))
    return worst <= 1e-10, f"max rel residual {worst:.2e}"


def _check_figa(rng):
    worst = 0.0
    for lat in _lattices():
        for _ in range(10):
            sigs = [random_signal(lat.n, rng) for _ in range(4)]
            worst = max(worst, figa_check(*sigs, lat))
    return worst <= 1e-10, f"max residual {worst:.2e}"


def _check_dual_reconstruction(rng):
    worst = 0.0
    for lat in _frame_lattices():
        g = random_signal(lat.n, rng)
        sys = GaborSystem((g,), lat)
        duals = canonical_dual(sys)
        f = random_signal(lat.n, rng)
        # analyze with the dual, synthesize with the window, and vice versa
        out = reconstruct(f, sys, duals)
        worst = max(worst, float(np.linalg.norm(out.values - f.values) / f.norm2()))
        swapped = reconstruct(f, GaborSystem(tuple(duals), lat), [g])
        worst = max(worst, float(np.linalg.norm(swapped.values - f.values) / f.norm2()))
    return worst <= 1e-9, f"max rel error {worst:.2e}"


def _check_tight_parseval(rng):
    worst = 0.0
    for lat in _frame_lattices():
        g = random_signal(lat.n, rng)
        tight = canonical_tight(GaborSystem((g,), lat))
        S = frame_operator(GaborSystem(tuple(tight), lat)).entries
        worst = max(worst, float(np.linalg.norm(S - np.eye(lat.n))))
    return worst <= 1e-9, f"max Parseval residual {worst:.2e}"


def _check_tight_span(rng):
    worst = 0.0
    for lat in _frame_lattices():
        adj = adjoint_lattice(lat)
        g = random_signal(lat.n, rng)
        S = frame_operator(GaborSystem((g,), lat)).entries
        _, residual = coefficients_of(hermitian_inverse_sqrt(S), adj)
        worst = max(worst, residual / np.linalg.norm(hermitian_inverse_sqrt(S)))
    return worst <= 1e-9, f"max span residual {worst:.2e}"


def _check_nonframe_rejection(rng):
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])
    g = random_signal(8, rng)
    sys = GaborSystem((g,), lat)
    if frame_bounds(sys).is_frame:
        return False, "rank-deficient system accepted as a frame"
    try:
        canonical_dual(sys)
    except NotAFrame:
        return True, "undersampled single-window system correctly rejected"
    return False, "canonical_dual did not reject a non-frame"


def _check_left_positivity(rng):
    worst = 0.0
    for lat in _lattices():
        f = random_signal(lat.n, rng)
        eigs = np.linalg.eigvalsh(represent(inner_left(f, f, lat)).entries)
        worst = min(worst, float(eigs[0]))
    return worst >= -1e-10, f"min eigenvalue {worst:.2e}"


def _check_right_positivity(rng):
    worst = 0.0
    for lat in _lattices():
        f = random_signal(lat.n, rng)
        op = right_operator(inner_right(f, f, lat)).entries
        eigs = np.linalg.eigvalsh((op + op.conj().T) / 2)
        hermgap = float(np.linalg.norm(op - op.conj().T) / np.linalg.norm(op))
        if hermgap > 1e-10:
            return False, f"right operator not Hermitian (gap {hermgap:.2e})"
        worst = min(worst, float(eigs[0]))
    return worst >= -1e-10, f"min eigenvalue {worst:.2e}"


def _check_module_involution(rng):
    worst = 0.0
    for lat in _lattices():
        f, g = random_signal(lat.n, rng), random_signal(lat.n, rng)
        gap = np.abs(
            involution(inner_left(f, g, lat)).coeffs - inner_left(g, f, lat).coeffs
        ).max()
        worst = max(worst, float(gap))
    return worst <= 1e-12 * 100, f"max coefficient gap {worst:.2e}"


def _check_left_compatibility(rng):
    worst = 0.0
    for lat in _lattices():
        a = _rand_seq(lat, rng)
        f, g = random_signal(lat.n, rng), random_signal(lat.n, rng)
        lhs = inner_left(act_left(a, f), g, lat).coeffs
        rhs = twisted_conv(a, inner_left(f, g, lat)).coeffs
        worst = max(worst, float(np.abs(lhs - rhs).sum()))
    return worst <= 1e-10 * 100, f"max l1 gap {worst:.2e}"


def _check_right_compatibility(rng):
    worst = 0.0
    for lat in _lattices():
        a = _rand_seq(lat, rng)
        f, g = random_signal(lat.n, rng), random_signal(lat.n, rng)
        lhs = inner_right(act_left(a, f), g, lat).coeffs
        rhs = inner_right(f, act_left(involution(a), g), lat).coeffs
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst <= 1e-10 * 100, f"max coefficient gap {worst:.2e}"


def _check_associativity(rng):
    worst = 0.0
    for lat in _lattices():
        for _ in range(8):
            f, g, h = (random_signal(lat.n, rng) for _ in range(3))
            worst = max(worst, associativity_residual(f, g, h, lat))
    return worst <= 1e-10, f"max residual {worst:.2e}"


def _check_adjointness(rng):
    worst = 0.0
    for lat in _lattices():
        a = _rand_seq(lat, rng)
        f, g = random_signal(lat.n, rng), random_signal(lat.n, rng)
        lhs = represent(a).entries @ represent(inner_left(f, g, lat)).entries.conj().T
        rhs = represent(inner_left(act_left(a, g), f, lat)).entries
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / (1 + np.linalg.norm(lhs))))
    return worst <= 1e-10, f"max rel residual {worst:.2e}"


def _check_module_vs_multiwindow(rng):
    for lat in _lattices():
        need = max(1, int(np.ceil(float(volume(lat)))))
        for count in (need, need + 1):
            ws = [random_signal(lat.n, rng) for _ in range(count)]
            report = module_frame_check(ws, lat)
            stacked = frame_bounds(GaborSystem(tuple(ws), lat))
            if report.is_module_frame != stacked.is_frame:
                return False, f"verdicts split on N={lat.n}, {count} windows"
    return True, "verdicts agree on the whole matrix"


def _check_trace_bridge(rng):
    worst = 0.0
    for lat in _frame_lattices():
        ws = [random_signal(lat.n, rng)]
        tight = tight_multiwindow(ws, lat)
        for _ in range(4):
            f = random_signal(lat.n, rng)
            worst = max(worst, multiwindow_parseval_residual(tight, lat, f))
    return worst <= 1e-10, f"max residual {worst:.2e}"


def _check_min_windows(rng):
    lat_half = lattice_from_generators(8, [(2, 0), (0, 2)])
    res_half = min_windows(lat_half, trials=20, seed=int(rng.integers(2**31)))
    lat_two = lattice_from_generators(8, [(4, 0), (0, 4)])
    res_two = min_windows(lat_two, trials=20, seed=int(rng.integers(2**31)))
    ok = (res_half.lower_bound, res_half.achieved) == (1, 1) and (
        res_two.lower_bound,
        res_two.achieved,
    ) == (2, 2)
    return ok, f"vol 1/2 -> {res_half.achieved}, vol 2 -> {res_two.achieved}"


def _check_moyal_modnorm(rng):
    worst = 0.0
    for n in (6, 12):
        f, g = random_signal(n, rng), random_signal(n, rng)
        val = mod_norm(f, ModNormSpec(2.0, 2.0, Weight.one(), g))
        expect = np.sqrt(n) * f.norm2() * g.norm2()
        worst = max(worst, abs(val - expect) / expect)
    return worst <= 1e-10, f"max rel gap {worst:.2e}"


def _check_modnorm_axioms(rng):
    worst = 0.0
    n = 10
    g = random_signal(n, rng)
    for p, q in ((1.0, 1.0), (1.0, 2.0), (2.0, np.inf)):
        spec = ModNormSpec(p, q, Weight.polynomial(1), g)
        for _ in range(10):
            f1, f2 = random_signal(n, rng), random_signal(n, rng)
            c = complex(rng.standard_normal(), rng.standard_normal())
            scaled = mod_norm(Signal(n, c * f1.values), spec)
            worst = max(worst, abs(scaled - abs(c) * mod_norm(f1, spec)) / scaled)
            tri = mod_norm(Signal(n, f1.values + f2.values), spec)
            if tri > mod_norm(f1, spec) + mod_norm(f2, spec) + 1e-10:
                return False, f"triangle inequality broke at (p,q)=({p},{q})"
    return worst <= 1e-10, f"max homogeneity gap {worst:.2e}"


def _check_modnorm_covariance(rng):
    worst = 0.0
    n = 12
    g = random_signal(n, rng)
    v = Weight.polynomial(1)
    spec = ModNormSpec(1.0, 1.0, v.power(2.0), g)
    for _ in range(20):
        f = random_signal(n, rng)
        mu = TFPoint(n, int(rng.integers(n)), int(rng.integers(n)))
        bound = v(mu.lift()) ** 2 * mod_norm(f, spec)
        worst = max(worst, mod_norm(tf_shift(mu, f), spec) / bound)
    return worst <= 1.0 + 1e-10, f"max shifted/bound ratio {worst:.6f}"


def _check_feichtinger_monotone(rng):
    n = 10
    g = random_signal(n, rng)
    v = Weight.polynomial(1)
    for _ in range(10):
        f = random_signal(n, rng)
        vals = [feichtinger_norm(f, v, s, g) for s in (0.0, 1.0, 2.0)]
        if not (vals[0] <= vals[1] * (1 + 1e-12) and vals[1] <= vals[2] * (1 + 1e-12)):
            return False, f"norms not monotone: {vals}"
    return True, "norm grows with the weight power"


def _check_serialization(rng):
    n = 6
    f = random_signal(n, rng)
    if serialize.signal_from_dict(serialize.signal_to_dict(f)).values.tolist() != f.values.tolist():
        return False, "signal round trip failed"
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    if serialize.lattice_from_dict(serialize.lattice_to_dict(lat)).points != lat.points:
        return False, "lattice round trip failed"
    a = _rand_seq(lat, rng)
    back = serialize.coeffseq_from_dict(serialize.coeffseq_to_dict(a))
    if back.coeffs.tolist() != a.coeffs.tolist():
        return False, "coefficient round trip failed"
    for v in (Weight.polynomial(2), Weight.subexponential(1, 0.5), Weight.custom({(0, 0): 1.0, (1, 0): 2.0})):
        if serialize.weight_from_dict(serialize.weight_to_dict(v)) != v:
            return False, f"weight round trip failed for {v.family}"
    return True, "all schemas round trip exactly"


CHECKS = (
    ("shift norm preservation", _check_norm_preservation),
    ("shift composition cocycle", _check_composition),
    ("shift commutation bicharacter", _check_commutation),
    ("shift adjoint rule", _check_adjoint_rule),
    ("stft fast/direct agreement", _check_stft_agreement),
    ("moyal identity", _check_moyal),
    ("stft shift covariance", _check_stft_covariance),
    ("adjoint-lattice duality", _check_adjoint_duality),
    ("adjoint commutation witness", _check_adjoint_commutation),
    ("weight axioms", _check_weight_axioms),
    ("weight submultiplicativity", _check_submultiplicative),
    ("growth-rate classification", _check_grs),
    ("twisted-convolution homomorphism", _check_homomorphism),
    ("involution representation", _check_involution_rep),
    ("weighted-norm submultiplicativity", _check_norm_submult),
    ("coefficient recovery", _check_coefficient_recovery),
    ("inversion support preservation", _check_inversion_support),
    ("trace normalization", _check_trace),
    ("hermitian spectrum reality", _check_spectrum),
    ("frame operator shift commutation", _check_frame_commutation),
    ("adjoint-lattice expansion of frame operator", _check_janssen),
    ("fundamental identity", _check_figa),
    ("canonical dual reconstruction", _check_dual_reconstruction),
    ("canonical tight parseval", _check_tight_parseval),
    ("tightening stays in adjoint span", _check_tight_span),
    ("non-frame rejection", _check_nonframe_rejection),
    ("left inner product positivity", _check_left_positivity),
    ("right inner product positivity", _check_right_positivity),
    ("module involution symmetry", _check_module_involution),
    ("left action compatibility", _check_left_compatibility),
    ("right action adjoint compatibility", _check_right_compatibility),
    ("module associativity", _check_associativity),
    ("coefficient-synthesis adjointness", _check_adjointness),
    ("module frame equals multi-window frame", _check_module_vs_multiwindow),
    ("trace bridge parseval", _check_trace_bridge),
    ("minimum window count", _check_min_windows),
    ("moyal ties mixed norm to hilbert norm", _check_moyal_modnorm),
    ("modulation norm axioms", _check_modnorm_axioms),
    ("modulation norm shift covariance", _check_modnorm_covariance),
    ("window-class norm monotonicity", _check_feichtinger_monotone),
    ("serialization round trips", _check_serialization),
)


def run_selftest(seed: int = 0) -> list[CheckResult]:
    """Run every invariant check; deterministic for a fixed seed."""
    results = []
    for index, (name, fn) in enumerate(CHECKS):
        rng = np.random.default_rng(seed + 1000 * index)
        try:
            passed, detail = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail))
    return results
