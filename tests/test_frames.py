"""Frame operators, adjoint-lattice expansion, duals, tight windows, reconstruction."""
import numpy as np
import pytest

from ncgabor import (
    DimensionMismatch,
    GaborSystem,
    NotAFrame,
    Signal,
    adjoint_lattice,
    analysis_coefficients,
    canonical_dual,
    canonical_tight,
    coefficients_of,
    figa_check,
    frame_bounds,
    frame_operator,
    full_lattice,
    hermitian_inverse_sqrt,
    janssen_representation,
    lattice_from_generators,
    random_signal,
    reconstruct,
    represent,
    shift_matrix,
    tf_shift,
    tight_multiwindow,
)
from ncgabor import frames
from conftest import SEEDS
import oracles


def gaussian_like(n):
    half = n // 2
    lifted = np.where(np.arange(n) <= half, np.arange(n), np.arange(n) - n)
    return Signal(n, np.exp(-np.pi * lifted.astype(float) ** 2 / n) + 0j)


def test_full_lattice_frame_operator_is_scalar(rng):
    n = 6
    g = random_signal(n, rng)
    sys = GaborSystem((g,), full_lattice(n))
    expect = n * g.norm2() ** 2 * np.eye(n)
    got = frame_operator(sys).entries
    np.testing.assert_allclose(got, expect, atol=1e-10 * n * g.norm2() ** 2)
    np.testing.assert_allclose(oracles.frame_operator_direct(sys), got, atol=1e-10)


def test_zero_window_contributes_nothing(rng):
    n = 8
    lat = lattice_from_generators(n, [(2, 0), (0, 2)])
    g = random_signal(n, rng)
    with_zero = frame_operator(GaborSystem((g, Signal.zero(n)), lat)).entries
    alone = frame_operator(GaborSystem((g,), lat)).entries
    np.testing.assert_allclose(with_zero, alone, atol=1e-12)


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
    S = frame_operator(GaborSystem((g,), lat)).entries
    eigs = np.linalg.eigvalsh(S)
    assert np.sum(eigs > 1e-10 * eigs[-1]) <= lat.size  # rank <= |L| = 4 < 8
    assert not frame_bounds(GaborSystem((g,), lat)).is_frame


def test_frame_operator_hermitian_psd(rng):
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    op = frame_operator(GaborSystem((random_signal(12, rng),), lat))
    assert oracles.is_hermitian(op.entries)
    assert np.linalg.eigvalsh(op.entries)[0] > -1e-10


def test_frame_operator_commutes_with_lattice_shifts(rng):
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    S = frame_operator(GaborSystem((random_signal(12, rng),), lat)).entries
    for p in oracles.tf_points(lat):
        P = shift_matrix(p)
        assert np.linalg.norm(S @ P - P @ S) < 1e-10 * np.linalg.norm(S)


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


def test_adjoint_expansion_matches_frame_operator():
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    for seed in SEEDS:
        g = random_signal(12, np.random.default_rng(seed))
        S = oracles.frame_operator(GaborSystem((g,), lat))
        J = represent(janssen_representation(g, g, lat)).entries
        assert np.linalg.norm(S - J) < 1e-10 * np.linalg.norm(S)


def test_adjoint_expansion_two_windows(rng):
    # same expansion reproduces the operator analyzing with g, synthesizing with h
    n, lat = 8, lattice_from_generators(8, [(2, 0), (0, 2)])
    g, h = random_signal(n, rng), random_signal(n, rng)
    S = np.zeros((n, n), dtype=complex)
    for p in oracles.tf_points(lat):
        wg, wh = tf_shift(p, g).values, tf_shift(p, h).values
        S += np.outer(wh, wg.conj())
    J = represent(janssen_representation(g, h, lat)).entries
    assert np.linalg.norm(S - J) < 1e-10 * np.linalg.norm(S)


def test_frame_bounds_full_lattice_unit_window(rng):
    n = 6
    g = random_signal(n, rng)
    g = Signal(n, g.values / g.norm2())
    b = frame_bounds(GaborSystem((g,), full_lattice(n)))
    assert b.lower == pytest.approx(n, rel=1e-10)
    assert b.upper == pytest.approx(n, rel=1e-10)
    assert b.is_frame


def test_frame_bounds_translation_basis():
    n = 8
    lat = lattice_from_generators(n, [(1, 0)])
    b = frame_bounds(GaborSystem((Signal.delta(n),), lat))
    assert b.lower == pytest.approx(1.0, rel=1e-12)
    assert b.upper == pytest.approx(1.0, rel=1e-12)
    assert b.is_frame


def test_canonical_dual_tight_case(rng):
    n = 6
    g = random_signal(n, rng)
    g = Signal(n, g.values / g.norm2())
    duals = canonical_dual(GaborSystem((g,), full_lattice(n)))
    np.testing.assert_allclose(duals[0].values, g.values / n, atol=1e-12)


def test_canonical_dual_reconstruction(rng):
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    for g in (gaussian_like(12), random_signal(12, rng)):
        sys = GaborSystem((g,), lat)
        duals = canonical_dual(sys)
        f = random_signal(12, rng)
        out = reconstruct(f, sys, duals)
        assert np.linalg.norm(out.values - f.values) < 1e-9 * f.norm2()


def test_tight_route_also_reconstructs(rng):
    # the third expansion: analyze and synthesize with the tight window
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    g = random_signal(12, rng)
    tight = canonical_tight(GaborSystem((g,), lat))
    tight_sys = GaborSystem(tuple(tight), lat)
    f = random_signal(12, rng)
    out = reconstruct(f, tight_sys, tight)
    assert np.linalg.norm(out.values - f.values) < 1e-9 * f.norm2()


def test_dual_analysis_route_also_reconstructs(rng):
    # analyzing with the windows and synthesizing with the duals works too
    lat = lattice_from_generators(12, [(3, 0), (0, 2)])
    g = random_signal(12, rng)
    sys = GaborSystem((g,), lat)
    dual = canonical_dual(sys)[0]
    dual_sys = GaborSystem((dual,), lat)
    f = random_signal(12, rng)
    out = reconstruct(f, dual_sys, [g])
    assert np.linalg.norm(out.values - f.values) < 1e-9 * f.norm2()


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


def test_canonical_tight_parseval_and_idempotent(rng):
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    g = random_signal(12, rng)
    tight = canonical_tight(GaborSystem((g,), lat))
    S = frame_operator(GaborSystem(tuple(tight), lat)).entries
    assert np.linalg.norm(S - np.eye(12)) < 1e-9
    again = canonical_tight(GaborSystem(tuple(tight), lat))
    assert np.linalg.norm(again[0].values - tight[0].values) < 1e-10


def test_tight_window_stays_in_adjoint_span(rng):
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    g = random_signal(12, rng)
    S = frame_operator(GaborSystem((g,), lat)).entries
    inv_sqrt = hermitian_inverse_sqrt(S)
    _, residual = coefficients_of(inv_sqrt, adjoint_lattice(lat))
    assert residual < 1e-9 * np.linalg.norm(inv_sqrt)


def test_inverse_sqrt_helper(rng):
    n = 8
    X = random_signal(n, rng)
    base = np.outer(X.values, X.values.conj()) + 2 * np.eye(n)
    half = hermitian_inverse_sqrt(base)
    np.testing.assert_allclose(half @ base @ half, np.eye(n), atol=1e-10)


def test_inverse_sqrt_floors_null_directions():
    mat = np.diag([4.0, 1.0, 0.0])
    half = hermitian_inverse_sqrt(mat)
    np.testing.assert_allclose(half, np.diag([0.5, 1.0, 0.0]), atol=1e-12)


def figa_sides_by_hand(f1, f2, g1, g2, lat):
    """Oracle: both identity sides by literal double summation."""
    adj = adjoint_lattice(lat)
    lhs = sum(
        np.vdot(tf_shift(p, g1).values, f1.values)
        * np.vdot(f2.values, tf_shift(p, g2).values)
        for p in oracles.tf_points(lat)
    )
    rhs = (lat.size / lat.n) * sum(
        np.vdot(tf_shift(q, f2).values, f1.values)
        * np.vdot(g1.values, tf_shift(q, g2).values)
        for q in oracles.tf_points(adj)
    )
    return lhs, rhs


def test_figa_delta_case_full_lattice():
    n = 4
    d = Signal.delta(n)
    lat = full_lattice(n)
    lhs, rhs = figa_sides_by_hand(d, d, d, d, lat)
    assert lhs == pytest.approx(n)
    assert rhs == pytest.approx(n)
    assert figa_check(d, d, d, d, lat) < 1e-12


def test_figa_zero_window(rng):
    n = 6
    lat = lattice_from_generators(n, [(2, 0), (0, 3)])
    f1, f2, g2 = (random_signal(n, rng) for _ in range(3))
    assert figa_check(f1, f2, Signal.zero(n), g2, lat) == 0.0


def test_figa_random_quadruples():
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    worst = 0.0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(20):
            sigs = [random_signal(12, rng) for _ in range(4)]
            worst = max(worst, figa_check(*sigs, lat))
            lhs, rhs = figa_sides_by_hand(*sigs, lat)
            assert abs(lhs - rhs) / (1 + abs(lhs)) < 1e-10
    assert worst < 1e-10


def test_figa_reference_mode_matches(rng):
    lat = lattice_from_generators(8, [(2, 0), (0, 4)])
    sigs = [random_signal(8, rng) for _ in range(4)]
    assert abs(figa_check(*sigs, lat) - oracles.figa_residual(*sigs, lat)) < 1e-12


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


def test_analysis_coefficients_reference_matches(rng):
    lat = lattice_from_generators(12, [(2, 1), (0, 6)])
    f, g = random_signal(12, rng), random_signal(12, rng)
    fast = analysis_coefficients(f, g, lat)
    ref = oracles.analysis_coefficients(f, g, lat)
    np.testing.assert_allclose(fast, ref, atol=1e-11)


def test_multiwindow_frame_bounds(rng):
    # two windows on an undersampled lattice can restore the frame property
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])
    g1, g2 = random_signal(8, rng), random_signal(8, rng)
    assert not frame_bounds(GaborSystem((g1,), lat)).is_frame
    assert frame_bounds(GaborSystem((g1, g2), lat)).is_frame


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


def count_builds(monkeypatch) -> dict:
    """Count frame-element builds and eigh calls from here on."""
    calls = {"_frame_element": 0, "eigh": 0}

    def counted(owner, name):
        inner = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(owner, name, call)

    counted(frames, "_frame_element")
    counted(np.linalg, "eigh")
    return calls


@pytest.mark.parametrize(
    "design",
    [canonical_dual, canonical_tight, lambda sys: tight_multiwindow(sys.windows, sys.lattice)],
    ids=["dual", "tight", "multiwindow"],
)
def test_design_builds_the_frame_operator_once(monkeypatch, rng, design):
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])
    sys = GaborSystem((random_signal(8, rng), random_signal(8, rng)), lat)
    calls = count_builds(monkeypatch)
    design(sys)
    assert calls == {"_frame_element": 1, "eigh": 1}


@pytest.mark.parametrize("count", [2, 1], ids=["frame", "not-a-frame"])
def test_one_system_answers_every_design_from_one_spectrum(monkeypatch, rng, count):
    # |L| = 4 on Z_8: two windows make a frame, one cannot
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])
    sys = GaborSystem(tuple(random_signal(8, rng) for _ in range(count)), lat)
    calls = count_builds(monkeypatch)
    assert frame_bounds(sys).is_frame == (count == 2)
    for design in (canonical_dual, canonical_tight):
        if count == 2:
            design(sys)
        else:
            with pytest.raises(NotAFrame):
                design(sys)
    assert calls == {"_frame_element": 1, "eigh": 1}
    _, eigs, vecs = sys._spectrum
    assert not eigs.flags.writeable and not vecs.flags.writeable


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
