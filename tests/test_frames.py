"""Frame operators, adjoint-lattice expansion, duals, tight windows, reconstruction."""

import numpy as np
import pytest

from ncgabor import (
    CoeffSeq,
    DimensionMismatch,
    GaborSystem,
    NotAFrame,
    Signal,
    act_left,
    adjoint_lattice,
    analysis_coefficients,
    canonical_dual,
    canonical_tight,
    figa_check,
    frame_bounds,
    full_lattice,
    janssen_representation,
    lattice_from_generators,
    random_signal,
    reconstruct,
    tight_multiwindow,
)
from ncgabor import frames
from ncgabor.selftest import _frame_operator, _hermitian_inverse_sqrt
from conftest import traced_memory
import oracles


def test_full_lattice_frame_operator_is_scalar(rng):
    n = 6
    g = random_signal(n, rng)
    sys = GaborSystem((g,), full_lattice(n))
    expect = n * g.norm2() ** 2 * np.eye(n)
    np.testing.assert_allclose(_frame_operator(sys), expect, atol=1e-10)


def test_zero_window_contributes_nothing(rng):
    n = 8
    lat = lattice_from_generators(n, [(2, 0), (0, 2)])
    g = random_signal(n, rng)
    # the system's spectrum, bounds and duals, is that of g alone
    with_zero, alone = GaborSystem((g, Signal.zero(n)), lat), GaborSystem((g,), lat)
    got, expect = frame_bounds(with_zero), frame_bounds(alone)
    assert got.lower == pytest.approx(expect.lower, rel=1e-12)
    assert got.upper == pytest.approx(expect.upper, rel=1e-12)
    dual, zero_dual = canonical_dual(with_zero)
    np.testing.assert_allclose(dual.values, canonical_dual(alone)[0].values, atol=1e-12)
    assert not zero_dual.values.any()


def test_all_zero_system_rejected():
    lat = full_lattice(4)
    with pytest.raises(ValueError):
        GaborSystem((Signal.zero(4),), lat)


def test_system_takes_only_signals_on_a_lattice(rng):
    # the system caches its spectrum, so its windows must be immutable Signals
    class DuckWindow:
        n, values = 8, np.ones(8, dtype=complex)

        def is_zero(self):
            return False

    lat = lattice_from_generators(8, [(2, 0), (0, 2)])
    for window in (np.ones(8), DuckWindow()):
        with pytest.raises(TypeError, match="Signal"):
            GaborSystem((window,), lat)
    with pytest.raises(TypeError, match="Lattice"):
        GaborSystem((random_signal(8, rng),), lat.as_array())
    # a read-only view of a writable array is copied, so the spectrum holds
    base = np.ones(8, dtype=complex)
    view = base[:]
    view.setflags(write=False)
    sys = GaborSystem((Signal(8, view), Signal(8, np.arange(8.0))), lat)
    bounds = frame_bounds(sys)
    base[0] = 9
    assert sys.windows[0].values[0] == 1
    assert frame_bounds(GaborSystem(sys.windows, lat)) == bounds


def test_undersampled_rank_deficiency(rng):
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])
    g = random_signal(8, rng)
    S = _frame_operator(GaborSystem((g,), lat))
    eigs = np.linalg.eigvalsh(S)
    assert np.sum(eigs > 1e-10 * eigs[-1]) <= lat.size  # rank <= |L| = 4 < 8
    assert not frame_bounds(GaborSystem((g,), lat)).is_frame


def test_frame_operator_hermitian_psd(rng):
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    op = _frame_operator(GaborSystem((random_signal(12, rng),), lat))
    assert oracles.is_hermitian(op)
    assert np.linalg.eigvalsh(op)[0] > -1e-10


def test_adjoint_expansion_full_lattice(rng):
    n = 5
    g = random_signal(n, rng)
    seq = janssen_representation(g, g, full_lattice(n))
    assert seq.lattice.size == 1
    assert seq.coeffs[0] == pytest.approx(n * g.norm2() ** 2)


def test_adjoint_expansion_zero_window():
    n = 6
    lat = lattice_from_generators(n, [(2, 0), (0, 2)])
    seq = janssen_representation(Signal.zero(n), Signal.zero(n), lat)
    assert np.abs(seq.coeffs).max() == 0.0


def test_frame_bounds_full_lattice_unit_window(rng):
    n = 6
    g = random_signal(n, rng)
    g = Signal(n, g.values / g.norm2())
    b = frame_bounds(GaborSystem((g,), full_lattice(n)))
    assert b.lower == pytest.approx(n, rel=1e-10)
    assert b.upper == pytest.approx(n, rel=1e-10)
    assert b.is_frame


def test_frame_bounds_translation_basis(rng):
    n = 8
    lat = lattice_from_generators(n, [(1, 0)])
    b = frame_bounds(GaborSystem((Signal.delta(n),), lat))
    assert b.lower == pytest.approx(1.0, rel=1e-12)
    assert b.upper == pytest.approx(1.0, rel=1e-12)
    assert b.is_frame
    # a random window on every translate at N=4096: S is circulant with
    # eigenvalues |g^|^2, so the designs are closed forms in g^, and they and
    # the reconstruction stay O(N) in memory (no N x N or (N/a) x N array)
    n = 4096
    g, f = random_signal(n, rng), random_signal(n, rng)
    sys = GaborSystem((g,), lattice_from_generators(n, [(1, 0)]))
    with traced_memory() as memory:
        b, (dual,), (tight,) = frame_bounds(sys), canonical_dual(sys), canonical_tight(sys)
        out = reconstruct(f, sys, [dual])
    assert memory.peak < 16 * 2**20
    spec = np.fft.fft(g.values)
    eigs = np.abs(spec) ** 2
    assert abs(b.lower - eigs.min()) <= 1e-12 * eigs.max()
    assert abs(b.upper - eigs.max()) <= 1e-12 * eigs.max()
    # the closed forms: g^/|g^|^2 for the dual, |g^| = 1 for the tight window,
    # each to 1e-12 scaled by (B/A)^|power| as in the dense-oracle comparison
    for got, power in ((dual, -1.0), (tight, -0.5)):
        expect = np.fft.ifft(spec * eigs**power)
        tol = 1e-12 * (eigs.max() / eigs.min()) ** -power * max(1.0, np.abs(expect).max())
        assert np.abs(got.values - expect).max() <= tol
    # f back, to the dual's tolerance
    tol = 1e-12 * (eigs.max() / eigs.min()) * max(1.0, np.abs(f.values).max())
    assert np.abs(out.values - f.values).max() <= tol


def test_reconstruct_past_the_float_range_raises_overflow():
    # finite windows whose mixed element |L| P(g gamma^H) leaves the float range;
    # pytest turns any RuntimeWarning into an error, so this also asserts none is raised
    n = 12
    g = Signal(n, np.full(n, 1e200))
    sys = GaborSystem((g,), lattice_from_generators(n, [(2, 0), (0, 3)]))
    with pytest.raises(OverflowError, match="float range"):
        reconstruct(Signal.delta(n), sys, [g])


def test_canonical_dual_tight_case(rng):
    n = 6
    g = random_signal(n, rng)
    g = Signal(n, g.values / g.norm2())
    duals = canonical_dual(GaborSystem((g,), full_lattice(n)))
    np.testing.assert_allclose(duals[0].values, g.values / n, atol=1e-12)


def test_canonical_dual_not_a_frame():
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])
    sys = GaborSystem((Signal.delta(8),), lat)
    with pytest.raises(NotAFrame) as excinfo:
        canonical_dual(sys)
    assert excinfo.value.lower_bound < 1e-10


def test_canonical_tight_full_lattice(rng):
    n = 6
    g = random_signal(n, rng)
    g = Signal(n, g.values / g.norm2())
    tight = canonical_tight(GaborSystem((g,), full_lattice(n)))
    np.testing.assert_allclose(tight[0].values, g.values / np.sqrt(n), atol=1e-10)


def test_inverse_sqrt_helper(rng):
    n = 8
    X = random_signal(n, rng)
    base = np.outer(X.values, X.values.conj()) + 2 * np.eye(n)
    half = _hermitian_inverse_sqrt(base)
    np.testing.assert_allclose(half @ base @ half, np.eye(n), atol=1e-10)


def test_inverse_sqrt_floors_null_directions():
    mat = np.diag([4.0, 1.0, 0.0])
    half = _hermitian_inverse_sqrt(mat)
    np.testing.assert_allclose(half, np.diag([0.5, 1.0, 0.0]), atol=1e-12)


def test_figa_delta_case_full_lattice():
    # for the delta on the full lattice both sides of the identity equal N:
    # N samples |<delta, pi(0, l) delta>|^2 = 1 on L, and vol^{-1} = N times one on L° = {0}
    n = 4
    d = Signal.delta(n)
    lat = full_lattice(n)
    deltas = np.array([d.values, d.values])
    assert frames._pairing(deltas, deltas, lat) == pytest.approx(n)
    assert lat.size / n * frames._pairing(deltas, deltas, adjoint_lattice(lat)) == pytest.approx(n)
    assert figa_check(d, d, d, d, lat) < 1e-12


def test_figa_zero_window(rng):
    n = 6
    lat = lattice_from_generators(n, [(2, 0), (0, 3)])
    f1, f2, g2 = (random_signal(n, rng) for _ in range(3))
    assert figa_check(f1, f2, Signal.zero(n), g2, lat) == 0.0


@pytest.mark.parametrize(
    "n, gens, side",
    [(8, [(2, 1), (0, 2)], "adjoint"), (48, [(6, 3), (0, 12)], "lattice"), (48, [(6, 3), (0, 12)], "adjoint")],
)
def test_figa_check_fails_when_one_side_loses_its_copy_phase(rng, n, gens, side):
    # the two sides of the identity run through the sector tables of L and of L°;
    # a copy twist without pi(j*mu)'s time-dependent phase on one of them only
    # (every copy taking copy 0's twist, the inverse twist kept consistent) must
    # break the identity, so the check does not compare a table with itself
    lat = lattice_from_generators(n, gens)
    target = adjoint_lattice(lat) if side == "adjoint" else lat
    times, twist, untwist, *rest = target._sector_tables
    assert len(twist) > 1 and not np.allclose(twist, twist[:1])
    sigs = [random_signal(n, rng) for _ in range(4)]
    assert figa_check(*sigs, lat) <= 1e-12
    twist, untwist = (np.broadcast_to(t[:1], t.shape) for t in (twist, untwist))
    vars(target)["_sector_tables"] = (times, twist, untwist, *rest)
    assert figa_check(*sigs, lat) > 1e-10


def test_analysis_and_left_action_run_in_o_n_plus_l_memory(rng):
    # N=4096 on <(1,0),(0,64)>, |L| = 262144: one (N/a) x N array of windows at the
    # lattice's time shifts would take 256 MiB; in L's sectors each route holds a
    # few arrays of N or |L| entries, 4 MiB each, tables included
    n = 4096
    lat = lattice_from_generators(n, [(1, 0), (0, 64)])
    f, g = random_signal(n, rng), random_signal(n, rng)
    pts = rng.choice(lat.size, 3, replace=False)
    coeffs = np.zeros(lat.size, dtype=complex)
    coeffs[pts] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = CoeffSeq(lat, coeffs)
    for route in (lambda: analysis_coefficients(f, g, lat), lambda: act_left(a, g)):
        with traced_memory() as memory:
            out = route()
        assert memory.peak < 32 * 2**20
    # spot checks against the loop oracle
    shifted = oracles.shifted(lat.as_array()[pts].tolist(), g.values)
    samples = analysis_coefficients(f, g, lat)[pts]
    expect = np.array([np.vdot(v, f.values) for v in shifted])
    assert np.abs(samples - expect).max() <= 1e-12 * np.abs(expect).max()
    expect = sum(c * v for c, v in zip(coeffs[pts], shifted))
    assert np.abs(out.values - expect).max() <= 1e-12 * np.abs(expect).max()


def test_reconstruct_orthonormal_basis_case(rng):
    n = 8
    lat = lattice_from_generators(n, [(1, 0)])
    d = Signal.delta(n)
    sys = GaborSystem((d,), lat)
    f = random_signal(n, rng)
    out = reconstruct(f, sys, [d])
    np.testing.assert_allclose(out.values, f.values, atol=1e-12)


def test_reconstruct_zero_duals(rng):
    n = 6
    lat = full_lattice(n)
    g = random_signal(n, rng)
    out = reconstruct(random_signal(n, rng), GaborSystem((g,), lat), [Signal.zero(n)])
    assert np.abs(out.values).max() == 0.0


def test_reconstruct_shape_mismatch(rng):
    n = 6
    sys = GaborSystem((random_signal(n, rng),), full_lattice(n))
    with pytest.raises(ValueError):
        reconstruct(random_signal(n, rng), sys, [])


def test_signals_of_another_order_rejected(rng):
    lat = lattice_from_generators(6, [(2, 0), (0, 2)])
    sigs = [random_signal(12, rng) for _ in range(4)]
    with pytest.raises(DimensionMismatch):
        figa_check(*sigs, lat)
    with pytest.raises(DimensionMismatch):
        analysis_coefficients(sigs[0], sigs[1], lat)
    with pytest.raises(DimensionMismatch):
        analysis_coefficients(random_signal(6, rng), sigs[1], lat)
    sys = GaborSystem((random_signal(12, rng),), lattice_from_generators(12, [(2, 0), (0, 3)]))
    with pytest.raises(DimensionMismatch):
        reconstruct(random_signal(24, rng), sys, [random_signal(24, rng)])


def count_builds(monkeypatch) -> tuple[dict, list]:
    """Count projected-Gram builds, window transforms and eigh calls from here
    on, and record how many sectors each eigh batch holds."""
    calls = {"_projected_gram": 0, "_sector_vectors": 0, "eigh": 0}
    batches = []

    def counted(owner, name):
        inner = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            if name == "eigh":
                batches.append(int(np.prod(args[0].shape[:-2])))
            return inner(*args)

        monkeypatch.setattr(owner, name, call)

    counted(frames, "_projected_gram")
    counted(frames, "_sector_vectors")
    counted(np.linalg, "eigh")
    return calls, batches


def distinct_sectors(lat):
    """|L°|/c^2 = |L ∩ L°|, the distinct sectors of A(L°), counted on the point sets."""
    points = [set(map(tuple, x.as_array().tolist())) for x in (lat, adjoint_lattice(lat))]
    return len(points[0] & points[1])


@pytest.mark.parametrize(
    "design",
    [canonical_dual, canonical_tight, lambda sys: tight_multiwindow(sys.windows, sys.lattice)],
    ids=["dual", "tight", "multiwindow"],
)
def test_design_builds_the_frame_operator_once(monkeypatch, rng, design):
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])
    sys = GaborSystem((random_signal(8, rng), random_signal(8, rng)), lat)
    calls, batches = count_builds(monkeypatch)
    design(sys)
    assert calls == {"_projected_gram": 1, "_sector_vectors": 1, "eigh": 1}
    assert batches == [distinct_sectors(lat)]


@pytest.mark.parametrize("count", [2, 1], ids=["frame", "not-a-frame"])
def test_one_system_answers_every_design_from_one_spectrum(monkeypatch, rng, count):
    # |L| = 4 on Z_8: two windows make a frame, one cannot
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])
    sys = GaborSystem(tuple(random_signal(8, rng) for _ in range(count)), lat)
    calls, batches = count_builds(monkeypatch)
    assert frame_bounds(sys).is_frame == (count == 2)
    for design in (canonical_dual, canonical_tight):
        if count == 2:
            design(sys)
        else:
            with pytest.raises(NotAFrame):
                design(sys)
    assert calls == {"_projected_gram": 1, "_sector_vectors": 1, "eigh": 1}
    assert batches == [distinct_sectors(lat)]
    y, eigs, vecs = sys._spectrum
    assert not any(arr.flags.writeable for arr in (y, eigs, vecs))


def test_eigh_runs_on_the_distinct_sectors(monkeypatch, rng):
    # A(L°) of <(3,3),(0,6)> on Z_12 acts as q' = 2 copies of |L°|/c^2 = 2
    # distinct 3 x 3 sectors: one eigh of those 2, not of all N/c = 4, answers
    # every design, and its bounds are the dense frame operator's
    lat = lattice_from_generators(12, [(3, 3), (0, 6)])
    sys = GaborSystem((random_signal(12, rng), random_signal(12, rng)), lat)
    calls, batches = count_builds(monkeypatch)
    bounds = frame_bounds(sys)
    duals, tight = canonical_dual(sys), canonical_tight(sys)
    assert calls == {"_projected_gram": 1, "_sector_vectors": 1, "eigh": 1}
    assert batches == [distinct_sectors(lat)] == [2]
    eigs = np.linalg.eigvalsh(oracles.frame_operator(sys))
    assert abs(bounds.lower - eigs[0]) <= 1e-12 * eigs[-1]
    assert abs(bounds.upper - eigs[-1]) <= 1e-12 * eigs[-1]
    got = np.stack([w.values for w in (*duals, *tight)])
    expect = np.concatenate([oracles.frame_power(sys, -1.0), oracles.frame_power(sys, -0.5)])
    assert np.abs(got - expect).max() <= 1e-12 * (eigs[-1] / eigs[0]) * np.abs(expect).max()


def test_reused_system_designs_match_a_fresh_one(rng):
    lat = lattice_from_generators(12, [(2, 1), (0, 6)])
    windows = (random_signal(12, rng), random_signal(12, rng))
    reused = GaborSystem(windows, lat)
    frame_bounds(reused)
    for design in (canonical_dual, canonical_tight, canonical_dual):
        got = design(reused)
        fresh = design(GaborSystem(windows, lat))
        assert all(np.array_equal(a.values, b.values) for a, b in zip(got, fresh))


def test_multiwindow_dual_reconstructs(rng):
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])
    sys = GaborSystem((random_signal(8, rng), random_signal(8, rng)), lat)
    f = random_signal(8, rng)
    out = reconstruct(f, sys, canonical_dual(sys))
    assert np.linalg.norm(out.values - f.values) <= 1e-9 * f.norm2()
