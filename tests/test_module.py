"""Module inner products, actions, associativity, module frames, window counts."""
import math
from fractions import Fraction

import numpy as np
import pytest

from ncgabor import (
    CoeffSeq,
    GaborSystem,
    NotAFrame,
    Signal,
    act_left,
    act_right,
    adjoint_lattice,
    delta_seq,
    frame_bounds,
    full_lattice,
    inner_left,
    inner_right,
    janssen_representation,
    lattice_from_generators,
    min_windows,
    module_frame_check,
    random_signal,
    represent,
    tf_shift,
    tight_multiwindow,
    trace_tau,
    unit,
    volume,
)
from conftest import SEEDS
import oracles
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
    op = np.stack([oracles.act_right(Signal.delta(n, t), seq) for t in range(n)], axis=1)
    np.testing.assert_allclose(op, n * np.eye(n), atol=1e-10)


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


def test_act_right_unit_normalization(rng):
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    adj = adjoint_lattice(lat)
    g = random_signal(12, rng)
    b = CoeffSeq(adj, float(volume(lat)) * unit(adj).coeffs)
    np.testing.assert_allclose(act_right(g, b).values, g.values, atol=1e-12)


def test_act_right_zero_signal():
    lat = lattice_from_generators(6, [(2, 0), (0, 2)])
    adj = adjoint_lattice(lat)
    b = unit(adj)
    out = act_right(Signal.zero(6), b)
    assert np.abs(out.values).max() == 0.0


def test_act_right_linear(rng):
    lat = lattice_from_generators(6, [(1, 1)])
    adj = adjoint_lattice(lat)
    g = random_signal(6, rng)
    b1 = CoeffSeq(adj, rng.standard_normal(adj.size) + 0j)
    b2 = CoeffSeq(adj, rng.standard_normal(adj.size) + 0j)
    lhs = act_right(g, CoeffSeq(adj, 2 * b1.coeffs - 1j * b2.coeffs)).values
    rhs = 2 * act_right(g, b1).values - 1j * act_right(g, b2).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_frame_type_operator_tight_case(rng):
    n = 6
    g = random_signal(n, rng)
    g = Signal(n, g.values / g.norm2())
    f = random_signal(n, rng)
    out = act_left(inner_left(f, g, full_lattice(n)), g)
    np.testing.assert_allclose(out.values, n * f.values, atol=1e-10)


def test_frame_type_operator_zero():
    n = 6
    lat = lattice_from_generators(n, [(2, 0), (0, 2)])
    g, h = Signal.delta(n), Signal.delta(n, 1)
    out = act_left(inner_left(Signal.zero(n), g, lat), h)
    assert np.abs(out.values).max() == 0.0


def test_frame_type_operator_direct_sum_oracle(rng):
    n = 12
    lat = lattice_from_generators(n, [(2, 0), (0, 3)])
    g, h, f = (random_signal(n, rng) for _ in range(3))
    expect = oracles.frame_type(g, h, lat) @ f.values
    got = act_left(inner_left(f, g, lat), h)
    np.testing.assert_allclose(got.values, expect, atol=1e-11 * np.linalg.norm(expect))


def test_frame_type_matches_frame_operator(rng):
    n = 8
    lat = lattice_from_generators(n, [(2, 0), (0, 2)])
    g, f = random_signal(n, rng), random_signal(n, rng)
    S = represent(janssen_representation(g, g, lat)).entries
    np.testing.assert_allclose(
        act_left(inner_left(f, g, lat), g).values, S @ f.values, atol=1e-10
    )


def test_associativity_zero_case(rng):
    n = 6
    lat = lattice_from_generators(n, [(2, 0), (0, 3)])
    f, g, h = random_signal(n, rng), Signal.zero(n), random_signal(n, rng)
    assert not act_left(inner_left(f, g, lat), h).values.any()
    assert not act_right(f, inner_right(g, h, lat)).values.any()


def test_associativity_delta_full_lattice():
    n = 4
    d = Signal.delta(n)
    lat = full_lattice(n)
    lhs = act_left(inner_left(d, d, lat), d)
    rhs = act_right(d, inner_right(d, d, lat))
    np.testing.assert_allclose(lhs.values, n * d.values, atol=1e-12)
    np.testing.assert_allclose(rhs.values, n * d.values, atol=1e-12)


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


def test_module_frame_check_builds_no_dense_operator(lattices, monkeypatch):
    # the residual ||S_tight - I||_F is read on the adjoint lattice, so no
    # route of module_frame_check may assemble an N x N frame operator; the
    # frames and the module reach represent only through the algebra module
    from ncgabor import algebra, frames, module

    def refuse(*args):
        raise AssertionError("module_frame_check built a dense matrix")

    assert "represent" not in vars(frames) and "represent" not in vars(module)
    monkeypatch.setattr(algebra, "represent", refuse)
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


def test_trace_bridge_parseval(rng):
    # the origin coefficient of the module identity is the scalar identity,
    # tau(<f, f>_L) = ||f||^2; the Parseval identity itself is a registry entry
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    for _ in range(4):
        f = random_signal(12, rng)
        assert trace_tau(inner_left(f, f, lat)) == pytest.approx(f.norm2() ** 2, rel=1e-12)


def test_tight_multiwindow_idempotent_on_tight(rng):
    # tight_multiwindow is canonical_tight of the system: tightening a tight system changes nothing
    for n, gens in ((8, [(2, 0), (0, 2)]), (12, [(2, 0), (0, 3)])):
        lat = lattice_from_generators(n, gens)
        tight = tight_multiwindow([random_signal(n, rng)], lat)
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
