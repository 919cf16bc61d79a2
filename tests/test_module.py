"""Module inner products, actions, associativity, module frames, window counts."""
import math
from fractions import Fraction

import numpy as np
import pytest

from ncgabor import (
    CoeffSeq,
    DimensionMismatch,
    GaborSystem,
    NotAFrame,
    Signal,
    act_left,
    act_right,
    adjoint_lattice,
    associativity_residual,
    delta_seq,
    frame_bounds,
    frame_operator,
    frame_type_operator,
    full_lattice,
    inner_left,
    inner_right,
    lattice_from_generators,
    min_windows,
    module_frame_check,
    module_frame_identity_residual,
    multiwindow_parseval_residual,
    random_signal,
    represent,
    right_operator,
    shift_matrix,
    tf_shift,
    tight_multiwindow,
    trace_tau,
    unit,
    volume,
)
from conftest import SEEDS, matrix_lattices
from oracles import oracle_cases, tf_points


def test_inner_left_delta_full_lattice():
    n = 4
    d = Signal.delta(n)
    seq = inner_left(d, d, full_lattice(n))
    for (k, _), c in zip(seq.lattice.as_array(), seq.coeffs):
        assert c == pytest.approx(1.0 if k == 0 else 0.0)


def test_inner_left_orthogonal_vanishes():
    n = 6
    lat = lattice_from_generators(n, [])  # trivial lattice: span is just g
    f, g = Signal.delta(n, 1), Signal.delta(n, 0)
    assert np.abs(inner_left(f, g, lat).coeffs).max() == 0.0


def test_inner_right_full_lattice_coefficient(rng):
    n = 6
    f = random_signal(n, rng)
    f = Signal(n, f.values / f.norm2())
    seq = inner_right(f, f, full_lattice(n))
    assert seq.lattice.size == 1
    # the covolume factor lives in the right action, so the stored
    # coefficient is the plain inner product
    assert seq.coeffs[0] == pytest.approx(1.0)
    # as an operator it carries vol^{-1} = N and equals the frame operator
    op = right_operator(seq).entries
    np.testing.assert_allclose(op, n * np.eye(n), atol=1e-10)


def test_right_inner_product_operator_is_frame_operator(lattices):
    # the represented right inner product of f with itself IS the frame
    # operator of f over the original lattice
    for lat in lattices:
        rng = np.random.default_rng(SEEDS[2])
        f = random_signal(lat.n, rng)
        op = right_operator(inner_right(f, f, lat)).entries
        S = frame_operator(GaborSystem((f,), lat)).entries
        assert np.linalg.norm(op - S) < 1e-10 * np.linalg.norm(S)


def test_inner_right_positive(lattices):
    for lat in lattices:
        rng = np.random.default_rng(SEEDS[3])
        f = random_signal(lat.n, rng)
        op = right_operator(inner_right(f, f, lat)).entries
        assert np.linalg.norm(op - op.conj().T) < 1e-10 * np.linalg.norm(op)
        assert np.linalg.eigvalsh((op + op.conj().T) / 2)[0] > -1e-10


def test_inner_right_zero():
    n = 6
    lat = lattice_from_generators(n, [(2, 0), (0, 2)])
    seq = inner_right(Signal.zero(n), Signal.zero(n), lat)
    assert np.abs(seq.coeffs).max() == 0.0


def test_act_left_unit_and_delta(rng):
    lat = lattice_from_generators(8, [(2, 0), (0, 2)])
    g = random_signal(8, rng)
    np.testing.assert_allclose(act_left(unit(lat), g).values, g.values, atol=1e-14)
    p = tf_points(lat)[5]
    np.testing.assert_allclose(
        act_left(delta_seq(lat, p), g).values, tf_shift(p, g).values, atol=1e-14
    )


def test_act_left_matches_matrix(rng):
    lat = lattice_from_generators(12, [(2, 1), (0, 6)])
    a = CoeffSeq(lat, rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size))
    g = random_signal(12, rng)
    np.testing.assert_allclose(
        act_left(a, g).values, represent(a).entries @ g.values, atol=1e-11
    )


def test_act_right_unit_normalization(rng):
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    adj = adjoint_lattice(lat)
    g = random_signal(12, rng)
    b = CoeffSeq(adj, float(volume(lat)) * unit(adj).coeffs)
    np.testing.assert_allclose(act_right(g, b, lat).values, g.values, atol=1e-12)


def test_act_right_zero_signal():
    lat = lattice_from_generators(6, [(2, 0), (0, 2)])
    adj = adjoint_lattice(lat)
    b = unit(adj)
    out = act_right(Signal.zero(6), b, lat)
    assert np.abs(out.values).max() == 0.0


def test_act_right_dense_matrix_oracle(rng):
    lat = lattice_from_generators(8, [(2, 0), (0, 4)])
    adj = adjoint_lattice(lat)
    g = random_signal(8, rng)
    b = CoeffSeq(adj, rng.standard_normal(adj.size) + 1j * rng.standard_normal(adj.size))
    dense = np.zeros((8, 8), dtype=complex)
    for c, q in zip(b.coeffs, tf_points(adj)):
        dense += c * shift_matrix(q).conj().T
    expect = (1.0 / float(volume(lat))) * dense @ g.values
    np.testing.assert_allclose(act_right(g, b, lat).values, expect, atol=1e-11)


def test_act_right_linear(rng):
    lat = lattice_from_generators(6, [(1, 1)])
    adj = adjoint_lattice(lat)
    g = random_signal(6, rng)
    b1 = CoeffSeq(adj, rng.standard_normal(adj.size) + 0j)
    b2 = CoeffSeq(adj, rng.standard_normal(adj.size) + 0j)
    lhs = act_right(g, CoeffSeq(adj, 2 * b1.coeffs - 1j * b2.coeffs), lat).values
    rhs = 2 * act_right(g, b1, lat).values - 1j * act_right(g, b2, lat).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_act_right_lattice_mismatch(rng):
    lat = lattice_from_generators(8, [(2, 0), (0, 2)])
    wrong = lattice_from_generators(8, [(1, 0)])
    b = unit(wrong)
    with pytest.raises(DimensionMismatch):
        act_right(random_signal(8, rng), b, lat)


def test_frame_type_operator_tight_case(rng):
    n = 6
    g = random_signal(n, rng)
    g = Signal(n, g.values / g.norm2())
    f = random_signal(n, rng)
    out = frame_type_operator(g, g, full_lattice(n), f)
    np.testing.assert_allclose(out.values, n * f.values, atol=1e-10)


def test_frame_type_operator_zero():
    n = 6
    lat = lattice_from_generators(n, [(2, 0), (0, 2)])
    g, h = Signal.delta(n), Signal.delta(n, 1)
    out = frame_type_operator(g, h, lat, Signal.zero(n))
    assert np.abs(out.values).max() == 0.0


def test_frame_type_operator_direct_sum_oracle(rng):
    n = 12
    lat = lattice_from_generators(n, [(2, 0), (0, 3)])
    g, h, f = (random_signal(n, rng) for _ in range(3))
    expect = np.zeros(n, dtype=complex)
    for p in tf_points(lat):
        expect += np.vdot(tf_shift(p, g).values, f.values) * tf_shift(p, h).values
    got = frame_type_operator(g, h, lat, f)
    np.testing.assert_allclose(got.values, expect, atol=1e-11 * np.linalg.norm(expect))


def test_frame_type_matches_frame_operator(rng):
    n = 8
    lat = lattice_from_generators(n, [(2, 0), (0, 2)])
    g, f = random_signal(n, rng), random_signal(n, rng)
    S = frame_operator(GaborSystem((g,), lat)).entries
    np.testing.assert_allclose(
        frame_type_operator(g, g, lat, f).values, S @ f.values, atol=1e-10
    )


def test_associativity_zero_case(rng):
    n = 6
    lat = lattice_from_generators(n, [(2, 0), (0, 3)])
    f, h = random_signal(n, rng), random_signal(n, rng)
    assert associativity_residual(f, Signal.zero(n), h, lat) == 0.0


def test_associativity_delta_full_lattice():
    n = 4
    d = Signal.delta(n)
    lat = full_lattice(n)
    lhs = act_left(inner_left(d, d, lat), d)
    rhs = act_right(d, inner_right(d, d, lat))
    np.testing.assert_allclose(lhs.values, n * d.values, atol=1e-12)
    np.testing.assert_allclose(rhs.values, n * d.values, atol=1e-12)
    assert associativity_residual(d, d, d, lat) < 1e-12


def test_associativity_random_triples():
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    worst = 0.0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(20):
            f, g, h = (random_signal(12, rng) for _ in range(3))
            worst = max(worst, associativity_residual(f, g, h, lat))
    assert worst < 1e-10


def test_associativity_across_matrix():
    for lat in matrix_lattices():
        rng = np.random.default_rng(SEEDS[1])
        f, g, h = (random_signal(lat.n, rng) for _ in range(3))
        assert associativity_residual(f, g, h, lat) < 1e-10


def test_module_frame_check_orthonormal_basis():
    n = 8
    lat = lattice_from_generators(n, [(1, 0)])
    report = module_frame_check([Signal.delta(n)], lat)
    assert report.is_module_frame
    assert report.residual < 1e-10
    assert report.window_count == 1
    assert report.vol == Fraction(1)


def test_module_frame_check_undersampled_single_window(rng):
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])
    report = module_frame_check([random_signal(8, rng)], lat)
    assert not report.is_module_frame
    assert math.isinf(report.residual)
    assert report.vol == Fraction(2)


def test_module_frame_check_two_windows(rng):
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])
    report = module_frame_check([random_signal(8, rng), random_signal(8, rng)], lat)
    assert report.is_module_frame
    assert report.residual < 1e-9
    assert report.window_count == 2
    assert report.window_count >= math.ceil(report.vol)


def test_module_frame_verdict_matches_stacked_system(lattices):
    for lat in lattices:
        rng = np.random.default_rng(SEEDS[3])
        need = max(1, math.ceil(float(volume(lat))))
        for count in (need, need + 1):
            ws = [random_signal(lat.n, rng) for _ in range(count)]
            report = module_frame_check(ws, lat)
            assert report.is_module_frame == frame_bounds(GaborSystem(tuple(ws), lat)).is_frame


def test_module_frame_check_builds_no_dense_operator(lattices, monkeypatch):
    # the residual ||S_tight - I||_F is read on the adjoint lattice, so no
    # route of module_frame_check may assemble an N x N frame operator
    import ncgabor
    from ncgabor import algebra, frames, module

    def refuse(*args):
        raise AssertionError("module_frame_check built a dense matrix")

    for mod in (ncgabor, algebra, frames, module):
        for name in ("represent", "frame_operator"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    for lat in lattices:
        rng = np.random.default_rng(SEEDS[3])
        need = max(1, math.ceil(float(volume(lat))))
        for count in (need, need + 1):
            report = module_frame_check([random_signal(lat.n, rng) for _ in range(count)], lat)
            if report.is_module_frame:
                assert report.residual < 1e-10
                assert len(report.tight_windows) == count


def test_module_reconstruction_identity(rng):
    # after tightening, analyzing against each window and synthesizing with
    # the same window resolves the identity
    lat = lattice_from_generators(12, [(3, 0), (0, 4)])
    tight = tight_multiwindow([random_signal(12, rng)], lat)
    f = random_signal(12, rng)
    out = np.zeros(12, dtype=complex)
    for w in tight:
        out += act_left(inner_left(f, w, lat), w).values
    assert np.linalg.norm(out - f.values) < 1e-9 * f.norm2()


def test_module_frame_identity_convolution_form(rng):
    lat = lattice_from_generators(8, [(2, 0), (0, 2)])
    tight = tight_multiwindow([random_signal(8, rng), random_signal(8, rng)], lat)
    for _ in range(3):
        f = random_signal(8, rng)
        assert module_frame_identity_residual(tight, lat, f) < 1e-10 * (1 + f.norm2() ** 2)


def test_trace_bridge_parseval(rng):
    # the origin coefficient of the module identity is the scalar identity
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    tight = tight_multiwindow([random_signal(12, rng)], lat)
    for _ in range(4):
        f = random_signal(12, rng)
        assert multiwindow_parseval_residual(tight, lat, f) < 1e-10
        lhs = trace_tau(inner_left(f, f, lat))
        assert lhs == pytest.approx(f.norm2() ** 2, rel=1e-12)


def test_tight_multiwindow_idempotent_on_tight(rng):
    lat = lattice_from_generators(8, [(2, 0), (0, 2)])
    tight = tight_multiwindow([random_signal(8, rng)], lat)
    again = tight_multiwindow(tight, lat)
    for w1, w2 in zip(tight, again):
        assert np.linalg.norm(w1.values - w2.values) < 1e-10


def test_tight_multiwindow_orthonormal_case():
    n = 6
    lat = lattice_from_generators(n, [(1, 0)])
    d = Signal.delta(n)
    out = tight_multiwindow([d], lat)
    np.testing.assert_allclose(out[0].values, d.values, atol=1e-12)


def test_tight_multiwindow_rejects_non_frame(rng):
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])
    with pytest.raises(NotAFrame):
        tight_multiwindow([random_signal(8, rng)], lat)


def test_min_windows_redundant_lattice():
    lat = lattice_from_generators(8, [(2, 0), (0, 2)])  # vol 1/2
    assert min_windows(lat) == 1


def test_min_windows_undersampled_lattice(rng):
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])  # vol 2
    assert min_windows(lat) == 2
    # one window can never reach rank 8
    assert not frame_bounds(GaborSystem((random_signal(8, rng),), lat)).is_frame


def test_min_windows_full_lattice():
    assert min_windows(full_lattice(6)) == 1


def test_min_windows_is_the_rank_bound():
    # both halves of the rank bound: ceil(vol) windows make a frame (the
    # witness inside min_windows), and one window fewer never does
    rng = np.random.default_rng(SEEDS[2])
    for lat in oracle_cases():
        need = math.ceil(volume(lat))
        assert min_windows(lat) == need
        if need > 1:
            fewer = tuple(random_signal(lat.n, rng) for _ in range(need - 1))
            assert not frame_bounds(GaborSystem(fewer, lat)).is_frame
