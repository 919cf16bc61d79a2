"""Subgroup closure, adjoints, covolume, subgroup enumeration and the
contract of the immutable value types."""
import copy
import itertools
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ncgabor import (
    GRS_VIOLATES,
    CoeffSeq,
    FrameBounds,
    GaborSystem,
    GrsReport,
    Lattice,
    ModNormSpec,
    ModuleFrameReport,
    OperatorMatrix,
    PhaseSpaceArray,
    Signal,
    TFPoint,
    Weight,
    adjoint_lattice,
    delta_seq,
    enumerate_subgroups,
    full_lattice,
    involution,
    lattice_from_generators,
    mod_norm,
    random_signal,
    represent,
    shift_matrix,
    tf_shift,
    trivial_lattice,
    twisted_conv,
    volume,
)
from ncgabor.lattice import _tables
from ncgabor.selftest import CheckResult
from oracles import oracle_cases, tf_points


def point_pairs(lat):
    """The lattice's points as (k, l) tuples, in canonical order."""
    return [(k, l) for k, l in lat.as_array().tolist()]


def brute_force_closure(n, gens):
    """Independent oracle: all integer combinations of the generators."""
    pts = {(0, 0)}
    for coeffs in itertools.product(range(n), repeat=len(gens)):
        k = sum(c * g[0] for c, g in zip(coeffs, gens)) % n
        l = sum(c * g[1] for c, g in zip(coeffs, gens)) % n
        pts.add((k, l))
    return sorted(pts)


def test_separable_closure_example():
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    assert lat.size == 24
    expect = brute_force_closure(12, [(2, 0), (0, 3)])
    assert point_pairs(lat) == expect


def test_trivial_and_full():
    assert point_pairs(trivial_lattice(4)) == [(0, 0)]
    assert full_lattice(4).size == 16


def test_lattice_invariants():
    lat = lattice_from_generators(12, [(2, 1), (0, 6)])
    pts = set(point_pairs(lat))
    assert (0, 0) in pts
    for a in pts:
        assert ((-a[0]) % 12, (-a[1]) % 12) in pts
        for b in pts:
            assert ((a[0] + b[0]) % 12, (a[1] + b[1]) % 12) in pts
    assert 144 % lat.size == 0
    assert point_pairs(lat) == sorted(point_pairs(lat))


def test_generators_reduced_mod_n():
    lat = lattice_from_generators(6, [(-2, 8), (np.int64(3), 2.0)])
    assert [(g.k, g.l) for g in lat.generators] == [(4, 2), (3, 2)]
    # a non-integer coordinate is refused, not truncated
    with pytest.raises(ValueError, match="coordinate k = 1.5 is not an integer"):
        lattice_from_generators(8, [(1.5, 0)])
    with pytest.raises(ValueError, match="coordinate k = 2.7 is not an integer"):
        TFPoint(8, 2.7, -0.5)
    with pytest.raises(ValueError, match="coordinate l = -0.5 is not an integer"):
        TFPoint(8, 2, -0.5)


def test_bad_order_rejected():
    with pytest.raises(ValueError):
        lattice_from_generators(1, [(0, 0)])
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match=f"group order must be >= 2, got {n}"):
            enumerate_subgroups(n)


def brute_force_commutant(lat):
    """Independent oracle: matrix commutation against every lattice shift."""
    n = lat.n
    mats = [shift_matrix(p) for p in tf_points(lat)]
    out = []
    for m in range(n):
        for nn in range(n):
            B = shift_matrix(TFPoint(n, m, nn))
            if all(np.abs(A @ B - B @ A).max() < 1e-10 for A in mats):
                out.append((m, nn))
    return out


def test_adjoint_example_against_matrix_commutant():
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    adj = adjoint_lattice(lat)
    assert adj.size == 6
    assert point_pairs(adj) == brute_force_commutant(lat)
    gen_set = {(p.k, p.l) for p in adj.generators}
    assert gen_set == {(4, 0), (0, 6)}


def test_adjoint_of_full_and_trivial():
    assert point_pairs(adjoint_lattice(full_lattice(6))) == [(0, 0)]
    adj = adjoint_lattice(trivial_lattice(6))
    assert adj.size == 36


def test_volume_values():
    assert volume(lattice_from_generators(12, [(2, 0), (0, 3)])) == Fraction(1, 2)
    assert volume(full_lattice(5)) == Fraction(1, 5)
    assert volume(trivial_lattice(5)) == Fraction(5)


def test_volume_critical_density():
    lat = lattice_from_generators(6, [(1, 1)])
    assert volume(lat) == 1
    assert point_pairs(adjoint_lattice(lat)) == point_pairs(lat)  # self-dual diagonal


def exhaustive_subgroups(n):
    """Oracle: scan all subsets of Z_n x Z_n for closure (tiny n only)."""
    elems = list(itertools.product(range(n), repeat=2))
    found = set()
    for mask in range(1, 2 ** len(elems)):
        subset = frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
        if (0, 0) not in subset:
            continue
        closed = all(
            ((a[0] + b[0]) % n, (a[1] + b[1]) % n) in subset
            for a in subset
            for b in subset
        )
        if closed:
            found.add(subset)
    return found


def test_enumerate_subgroups_exhaustive_oracle():
    for n in (2, 3):
        enumerated = {frozenset(point_pairs(lat)) for lat in enumerate_subgroups(n)}
        assert enumerated == exhaustive_subgroups(n)


def test_enumerate_subgroups_structural():
    lats = enumerate_subgroups(4)
    seen = set()
    for lat in lats:
        pts = frozenset(point_pairs(lat))
        assert pts not in seen
        seen.add(pts)
        assert 16 % lat.size == 0
        regenerated = lattice_from_generators(4, [(p.k, p.l) for p in lat.generators])
        assert point_pairs(regenerated) == point_pairs(lat)


# ---- brute-force oracles for what the library computes from the normal-form
# basis: adjoints, subgroup enumeration, normal forms and index tables.

def adjoint_oracle(lat):
    """Scan all of Z_n x Z_n for the symplectic commutation criterion."""
    n = lat.n
    pts = lat.as_array()
    kk, ll = pts[:, 0], pts[:, 1]
    return [
        (m, nn)
        for m in range(n)
        for nn in range(n)
        if np.all((m * ll - kk * nn) % n == 0)
    ]


def subgroups_oracle(n):
    """Point sets of every subgroup, as closures of all pairs of cyclic subgroups."""
    single = {}
    for k in range(n):
        for l in range(n):
            single.setdefault(frozenset(brute_force_closure(n, [(k, l)])), (k, l))
    found = set(single)
    for gen_a in single.values():
        for gen_b in single.values():
            found.add(frozenset(brute_force_closure(n, [gen_a, gen_b])))
    return found


def normal_form_oracle(n, points):
    """(a, s, b) read off the sorted points: least time shift, its least
    frequency, and the least frequency at time 0 (N where there is none)."""
    a = min((k for k, _ in points if k), default=n)
    b = min((l for k, l in points if k == 0 and l), default=n)
    s = min((l for k, l in points if k == a), default=0) if a < n else 0
    return a, s, b


def conv_tables_oracle(lat):
    """Difference indices by dict lookup and cocycles by direct evaluation."""
    n, pts = lat.n, point_pairs(lat)
    lookup = {p: i for i, p in enumerate(pts)}
    sub = np.array(
        [[lookup[((pi[0] - pj[0]) % n, (pi[1] - pj[1]) % n)] for pj in pts] for pi in pts],
        dtype=np.int64,
    ).reshape(len(pts), len(pts))
    arr = np.array(pts, dtype=np.int64)
    diff_l = (arr[:, None, 1] - arr[None, :, 1]) % n
    coc = np.exp(-2j * np.pi * ((arr[None, :, 0] * diff_l) % n) / n)
    return sub, coc


def involution_tables_oracle(lat):
    n, pts = lat.n, point_pairs(lat)
    lookup = {p: i for i, p in enumerate(pts)}
    neg = np.array([lookup[(-k % n, -l % n)] for k, l in pts], dtype=np.int64)
    arr = np.array(pts, dtype=np.int64)
    diag = np.exp(-2j * np.pi * ((arr[:, 0] * arr[:, 1]) % n) / n)
    return neg, diag


def _pairs(points):
    return [(p.k, p.l) for p in points]


@pytest.mark.parametrize("n", (4, 6, 8, 9, 12))
def test_enumerate_subgroups_matches_pairwise_closures(n):
    lats = enumerate_subgroups(n)
    sets = [frozenset(point_pairs(lat)) for lat in lats]
    assert len(set(sets)) == len(sets)
    assert set(sets) == subgroups_oracle(n)
    keys = [(lat.size, point_pairs(lat)) for lat in lats]
    assert keys == sorted(keys)


def test_lattice_tables_match_brute_force_oracles(rng):
    for lat in oracle_cases():
        n = lat.n
        pts = point_pairs(lat)
        assert pts == brute_force_closure(n, _pairs(lat.generators))
        assert lat.as_array().tolist() == [list(p) for p in pts]
        assert lat.basis == normal_form_oracle(n, pts)

        adj = adjoint_lattice(lat)
        assert point_pairs(adj) == adjoint_oracle(lat)
        assert adj.basis == normal_form_oracle(n, point_pairs(adj))
        a, s, b = adj.basis
        assert _pairs(adj.generators) == [(a, s)][: a < n] + [(0, b)][: b < n]

        k, l = np.divmod(np.arange(n * n), n)
        lookup = {p: i for i, p in enumerate(pts)}
        expect = [lookup.get(p, -1) for p in zip(k.tolist(), l.tolist())]
        assert lat.indices(k, l).tolist() == expect

        # (a # b)(p_i) = sum_j a(p_j) b(p_i - p_j) cocycle(p_j, p_i - p_j) from the oracle tables
        a, b = ([1, 1j] @ rng.standard_normal((2, lat.size)) for _ in range(2))
        sub_o, coc_o = conv_tables_oracle(lat)
        expect = (coc_o * b[sub_o]) @ a
        got = twisted_conv(CoeffSeq(lat, a), CoeffSeq(lat, b)).coeffs
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()
        neg, diag = lat._involution_tables
        neg_o, diag_o = involution_tables_oracle(lat)
        assert np.array_equal(neg, neg_o) and np.array_equal(diag, diag_o)


def test_equal_subgroups_are_one_lattice():
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    same = lattice_from_generators(12, [(0, 3), (2, 0), (4, 0)])
    assert lat == same
    assert hash(lat) == hash(same)
    assert lat != lattice_from_generators(12, [(2, 0), (0, 6)])
    assert lat != lattice_from_generators(6, [(2, 0), (0, 3)])
    assert adjoint_lattice(lat) == adjoint_lattice(same)


# Each type built by keyword, and for the types equal by value a twin built
# apart that must equal it; the array types (no twin) are equal only to
# themselves and unhashable.
VALUE_TYPES = {
    "TFPoint": (lambda: TFPoint(n=8, k=3, l=-1), lambda: TFPoint(8, 11, 7)),
    "Lattice": (lambda: Lattice(n=12, basis=(2, 0, 3), generators=()),
                lambda: lattice_from_generators(12, [(2, 3), (0, 3)])),
    "Weight-polynomial": (lambda: Weight(family="polynomial", s=2.0), lambda: Weight.polynomial(2)),
    "Weight-custom": (lambda: Weight(family="custom", table={(0, 0): 1.0, (1, 0): 2.0}),
                      lambda: Weight.custom({(-1, 0): 2.0, (1, 0): 2.0, (0, 0): 1.0})),
    "FrameBounds": (lambda: FrameBounds(lower=1.0, upper=2.0, is_frame=True),
                    lambda: FrameBounds(1.0, 2.0, True)),
    "ModuleFrameReport": (
        lambda: ModuleFrameReport(residual=0.0, is_module_frame=True, window_count=1,
                                  vol=Fraction(1, 2), tight_windows=(Signal.delta(4),)),
        lambda: ModuleFrameReport(0.0, True, 1, Fraction(1, 2))),
    "GrsReport": (lambda: GrsReport(point=(1, 0), samples=((1, 2.0),), verdict=GRS_VIOLATES),
                  lambda: GrsReport((1, 0), ((1, 2.0),), GRS_VIOLATES)),
    "CheckResult": (lambda: CheckResult(name="x", tol=0.0, residual=0.0),
                    lambda: CheckResult("x", 0.0, 0.0, None)),
    "Signal": (lambda: Signal(n=4, values=np.ones(4)), None),
    "PhaseSpaceArray": (lambda: PhaseSpaceArray(n=2, values=np.ones((2, 2))), None),
    "CoeffSeq": (lambda: CoeffSeq(lattice=full_lattice(2), coeffs=np.ones(4)), None),
    "OperatorMatrix": (lambda: OperatorMatrix(n=2, entries=np.eye(2)), None),
    "GaborSystem": (lambda: GaborSystem(windows=(Signal.delta(4),), lattice=full_lattice(4)), None),
    "ModNormSpec": (lambda: ModNormSpec(p=1.0, q=2.0, m=Weight.one(), window=Signal.delta(4)),
                    None),
}


@pytest.mark.parametrize("make, twin", VALUE_TYPES.values(), ids=VALUE_TYPES.keys())
def test_value_type_contract(make, twin):
    obj = make()
    field = obj._fields[0]
    for change in (lambda: setattr(obj, field, None), lambda: delattr(obj, field),
                   lambda: setattr(obj, "extra", None)):
        with pytest.raises(AttributeError, match="cannot (assign to|delete) field"):
            change()
    assert repr(obj).startswith(f"{type(obj).__name__}({field}=")
    # pickle and copy rebuild an instance through its constructor
    copies = [pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)]
    assert all(type(c) is type(obj) and repr(c) == repr(obj) for c in copies)
    if twin is None:
        assert obj == obj and obj != make()
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
        return
    other = twin()
    assert obj == other and hash(obj) == hash(other)
    assert all(c == obj and hash(c) == hash(obj) for c in copies)


def test_lattice_and_shared_tables_are_read_only(rng):
    # the tables a lattice carries and those _tables shares across lattices
    # are handed to every caller: none may be written through
    lat = lattice_from_generators(12, [(2, 1), (0, 6)])
    a = CoeffSeq(lat, rng.standard_normal(lat.size) + 0j)
    involution(a)
    twisted_conv(a, a)
    represent(a)
    f = random_signal(12, rng)
    tf_shift(TFPoint(12, 1, 1), f)
    mod_norm(f, ModNormSpec(1.0, 1.0, Weight.polynomial(1), f))
    shared = list(_tables.kept.values())
    assert {build.__name__ for build, _ in _tables.kept} >= {"_band_index", "_lifted_weight_table", "_roots"}
    arrays = [lat._points, *lat._involution_tables, lat._grid_index, *lat._sector_tables, *shared]
    assert [arr.flags.writeable for arr in arrays] == [False] * len(arrays)


def test_adjoint_of_a_large_lattice_is_not_kept():
    # the adjoint of the trivial lattice mod 1024 is the full lattice, whose
    # points take 16 MiB once built: the trivial lattice carries it, so
    # nothing of it outlives the caller's references
    tracemalloc.start()
    try:
        adjoint_lattice(trivial_lattice(1024)).as_array()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20


def test_index_of_and_membership():
    lat = lattice_from_generators(12, [(2, 1), (0, 6)])
    k, l = lat.as_array().T
    assert lat.indices(k - 12, l + 24).tolist() == list(range(lat.size))
    assert lat.indices(1, 0) == -1
    with pytest.raises(KeyError, match="not in lattice"):
        delta_seq(lat, TFPoint(12, 2, 0))
    assert lat.as_array().flags.writeable is False
    seq = delta_seq(lat, TFPoint(12, 4, 2), 3.0)
    assert np.flatnonzero(seq.coeffs).tolist() == [lat.indices(4, 2)]
    assert seq.coeffs[lat.indices(4, 2)] == 3.0


def test_invalid_basis_rejected():
    for basis in ((2, 1, 12), (5, 0, 12), (0, 0, 12), (-2, 0, 12), (2, 0, -6)):
        with pytest.raises(ValueError, match="normal-form basis"):
            Lattice(12, basis, ())
