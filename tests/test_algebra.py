"""Twisted convolution, involution, representation, inversion, trace, spectrum."""
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ncgabor import (
    CoeffSeq,
    DimensionMismatch,
    GaborSystem,
    Lattice,
    SingularElement,
    TFPoint,
    Weight,
    cocycle,
    coefficients_of,
    adjoint_lattice,
    delta_seq,
    frame_bounds,
    full_lattice,
    invert_in_algebra,
    involution,
    lattice_from_generators,
    random_signal,
    represent,
    shift_matrix,
    spectrum,
    trace_tau,
    twisted_conv,
    unit,
    weighted_norm,
)
from conftest import SEEDS, matrix_lattices


def rand_seq(lat, rng):
    return CoeffSeq(lat, rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size))


def test_delta_seq_rejects_another_group_order():
    lat = lattice_from_generators(8, [(2, 0), (0, 2)])
    with pytest.raises(DimensionMismatch):
        delta_seq(lat, TFPoint(12, 10, 2))  # (10, 2) reduced mod 8 would be the point (2, 2)


def test_delta_convolution():
    lat = lattice_from_generators(6, [(1, 0), (0, 1)])
    for pair in (((1, 2), (3, 4)), ((0, 5), (2, 0)), ((3, 3), (3, 3))):
        lam, mu = (TFPoint(6, *p) for p in pair)
        out = twisted_conv(delta_seq(lat, lam), delta_seq(lat, mu))
        expect = delta_seq(lat, lam + mu, cocycle(lam, mu)).coeffs
        np.testing.assert_allclose(out.coeffs, expect, atol=1e-15)


def test_unit_element(rng):
    lat = lattice_from_generators(8, [(2, 0), (0, 2)])
    a = rand_seq(lat, rng)
    np.testing.assert_allclose(twisted_conv(a, unit(lat)).coeffs, a.coeffs, atol=1e-14)
    np.testing.assert_allclose(twisted_conv(unit(lat), a).coeffs, a.coeffs, atol=1e-14)


def test_convolution_matches_matrix_product():
    lat = lattice_from_generators(6, [(2, 0), (0, 2)])
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        a, b = rand_seq(lat, rng), rand_seq(lat, rng)
        lhs = represent(twisted_conv(a, b)).entries
        rhs = represent(a).entries @ represent(b).entries
        assert np.linalg.norm(lhs - rhs) < 1e-11 * np.linalg.norm(rhs)


def test_lattice_mismatch_rejected(rng):
    a = rand_seq(lattice_from_generators(6, [(2, 0)]), rng)
    b = rand_seq(lattice_from_generators(6, [(3, 0)]), rng)
    with pytest.raises(Exception):
        twisted_conv(a, b)


def test_involution_of_unit():
    lat = lattice_from_generators(4, [(1, 0), (0, 1)])
    np.testing.assert_allclose(involution(unit(lat)).coeffs, unit(lat).coeffs, atol=0)


def test_involution_of_delta():
    lat = full_lattice(5)
    lam = TFPoint(5, 2, 3)
    out = involution(delta_seq(lat, lam))
    expect = delta_seq(lat, -lam, cocycle(lam, lam)).coeffs
    np.testing.assert_allclose(out.coeffs, expect, atol=1e-15)


def test_double_involution_identity(rng):
    lat = lattice_from_generators(12, [(2, 1), (0, 6)])
    a = rand_seq(lat, rng)
    np.testing.assert_allclose(involution(involution(a)).coeffs, a.coeffs, atol=1e-14)


def test_involution_isometric(rng):
    lat = lattice_from_generators(12, [(2, 0), (0, 3)])
    a = rand_seq(lat, rng)
    v = Weight.polynomial(1)
    for s in (0.0, 1.0, 2.0):
        lhs = weighted_norm(involution(a), v, s)
        rhs = weighted_norm(a, v, s)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_weighted_norm_values():
    lat = full_lattice(12)
    assert weighted_norm(unit(lat), Weight.polynomial(1), 2.0) == pytest.approx(1.0)
    a = delta_seq(lat, TFPoint(12, 3, 4))
    assert weighted_norm(a, Weight.polynomial(1), 2.0) == pytest.approx(26.0)


def test_weighted_norm_rejects_non_finite_exponent():
    a = unit(full_lattice(4))
    for s in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            weighted_norm(a, Weight.polynomial(1), s)


def test_weighted_norm_s_zero_is_l1(rng):
    lat = lattice_from_generators(8, [(2, 0), (0, 2)])
    a = rand_seq(lat, rng)
    assert weighted_norm(a, Weight.polynomial(1), 0.0) == pytest.approx(
        float(np.abs(a.coeffs).sum())
    )


def test_weighted_norm_submultiplicative():
    v = Weight.polynomial(1)
    for lat in matrix_lattices(12):
        rng = np.random.default_rng(SEEDS[2])
        a, b = rand_seq(lat, rng), rand_seq(lat, rng)
        for s in (0.0, 1.0, 2.0):
            lhs = weighted_norm(twisted_conv(a, b), v, s)
            assert lhs <= weighted_norm(a, v, s) * weighted_norm(b, v, s) * (1 + 1e-12)


def test_represent_unit_is_identity():
    lat = lattice_from_generators(6, [(2, 0), (0, 3)])
    np.testing.assert_allclose(represent(unit(lat)).entries, np.eye(6), atol=0)


def test_represent_delta_is_cyclic_shift():
    lat = full_lattice(4)
    mat = represent(delta_seq(lat, TFPoint(4, 1, 0))).entries
    expect = np.zeros((4, 4))
    expect[np.arange(4), (np.arange(4) - 1) % 4] = 1.0
    np.testing.assert_allclose(mat, expect, atol=0)


def test_coefficient_round_trip_faithful(lattices):
    for lat in lattices:
        if lat.size == lat.n**2:
            continue  # proper sublattices are the interesting case
        rng = np.random.default_rng(SEEDS[3])
        a = rand_seq(lat, rng)
        recovered, residual = coefficients_of(represent(a), lat)
        assert np.abs(recovered.coeffs - a.coeffs).max() < 1e-12 * max(
            1.0, np.abs(a.coeffs).max()
        )
        assert residual < 1e-11


def test_coefficients_of_identity():
    lat = lattice_from_generators(6, [(2, 0), (0, 2)])
    seq, residual = coefficients_of(np.eye(6), lat)
    np.testing.assert_allclose(seq.coeffs, unit(lat).coeffs, atol=1e-14)
    assert residual < 1e-12


def test_coefficients_of_outside_point():
    n = 6
    lat = lattice_from_generators(n, [(2, 0), (0, 2)])
    mu = TFPoint(n, 1, 0)
    assert lat.indices(mu.k, mu.l) == -1
    seq, residual = coefficients_of(shift_matrix(mu), lat)
    assert np.abs(seq.coeffs).max() < 1e-14
    assert residual == pytest.approx(np.sqrt(n), rel=1e-12)


def test_coefficients_of_holds_one_matrix_temporary(rng):
    # represent(a) is 16 MiB at N=1024; the residual is the norm of one copy
    # with the bands replaced by what is left of them outside the lattice's
    # frequencies, so the peak of a cold call holds that copy and band-sized
    # arrays, not a second N x N matrix
    lat = lattice_from_generators(1024, [(8, 0), (0, 8)])
    a = rand_seq(lat, rng)
    mat = represent(a)
    tracemalloc.start()
    try:
        seq, residual = coefficients_of(mat, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20
    assert np.abs(seq.coeffs - a.coeffs).max() < 1e-12 * np.abs(a.coeffs).max()
    assert residual < 1e-11 * np.linalg.norm(mat.entries)


def test_represent_and_coefficients_of_leave_nothing_behind(rng):
    # with a = 1 a band table would hold N x N entries per lattice; once the
    # matrix and the coefficients are dropped, only O(N + |L|) may remain
    lat = lattice_from_generators(1024, [(1, 0), (0, 64)])
    a = rand_seq(lat, rng)
    tracemalloc.start()
    try:
        seq, residual = coefficients_of(represent(a), lat)
        assert residual < 1e-9
        del seq
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20


def test_dropped_lattices_leave_no_tables_behind(rng):
    # a lattice keeps its points, involution and sector tables and its adjoint
    # with theirs: once the lattices, elements and systems are dropped, none
    # of it stays (the N=1024 <(2,0),(0,4)> points alone take 2 MiB)
    tracemalloc.start()
    try:
        lat = lattice_from_generators(1024, [(2, 0), (0, 4)])
        a = rand_seq(lat, rng)
        involution(a)
        twisted_conv(a, a)
        frame = lattice_from_generators(1024, [(16, 0), (0, 32)])
        assert frame_bounds(GaborSystem((random_signal(1024, rng),), frame)).is_frame
        del a, lat, frame
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**19


def test_a_lattice_builds_each_table_once(monkeypatch, rng):
    # repeated routes on one lattice read the tables it carries, built on first use
    builds = Counter()

    def counted(name, build):
        def wrapper(lat):
            builds[name] += 1
            return build(lat)

        return wrapper

    names = ("_points", "_adjoint", "_involution_tables", "_grid_index", "_sector_tables")
    for name in names:
        prop = vars(Lattice)[name]
        monkeypatch.setattr(prop, "func", counted(name, prop.func))
    lat = lattice_from_generators(12, [(2, 1), (0, 6)])
    a = rand_seq(lat, rng)
    for _ in range(3):
        involution(a)
        twisted_conv(a, a)
        represent(a)
        adjoint_lattice(lat)
    assert builds == Counter(names)
    assert adjoint_lattice(lat) is adjoint_lattice(lat)


def test_trace_orthogonality_exhaustive():
    n = 6
    pts = [TFPoint(n, k, l) for k in range(n) for l in range(n)]
    for p in pts:
        for q in pts:
            val = np.trace(shift_matrix(p) @ shift_matrix(q).conj().T)
            expect = n if (p.k, p.l) == (q.k, q.l) else 0.0
            assert abs(val - expect) < 1e-12


def test_invert_unit_and_scalar():
    lat = lattice_from_generators(8, [(2, 0), (0, 4)])
    np.testing.assert_allclose(
        invert_in_algebra(unit(lat)).coeffs, unit(lat).coeffs, atol=1e-12
    )
    c = 2.5 - 1.5j
    scaled = CoeffSeq(lat, c * unit(lat).coeffs)
    np.testing.assert_allclose(
        invert_in_algebra(scaled).coeffs, unit(lat).coeffs / c, atol=1e-12
    )


def neumann_series_inverse(lat, lam, coeff, terms=60):
    """Oracle: inverse of unit + coeff * delta_lam as a geometric series."""
    acc = unit(lat)
    power = unit(lat)
    for _ in range(1, terms):
        power = twisted_conv(power, delta_seq(lat, lam, -coeff))
        acc = CoeffSeq(lat, acc.coeffs + power.coeffs)
    return acc


def test_invert_against_neumann_series():
    lat = lattice_from_generators(6, [(2, 0), (0, 2)])
    lam = TFPoint(6, 2, 2)
    elem = CoeffSeq(lat, unit(lat).coeffs + 0.3 * delta_seq(lat, lam).coeffs)
    inv = invert_in_algebra(elem)
    residual = twisted_conv(elem, inv).coeffs - unit(lat).coeffs
    assert np.abs(residual).sum() < 1e-10
    oracle = neumann_series_inverse(lat, lam, 0.3)
    np.testing.assert_allclose(inv.coeffs, oracle.coeffs, atol=1e-10)


def test_invert_support_preservation(lattices):
    for lat in lattices:
        rng = np.random.default_rng(SEEDS[4])
        noise = rand_seq(lat, rng)
        elem = CoeffSeq(
            lat, unit(lat).coeffs + 0.25 * noise.coeffs / np.abs(noise.coeffs).max()
        )
        inv_matrix = np.linalg.inv(represent(elem).entries)
        _, residual = coefficients_of(inv_matrix, lat)
        assert residual < 1e-9 * np.linalg.norm(inv_matrix)
        both = twisted_conv(elem, invert_in_algebra(elem)).coeffs
        np.testing.assert_allclose(both, unit(lat).coeffs, atol=1e-10)


def test_invert_singular_raises():
    n = 4
    lat = full_lattice(n)
    # identity plus the order-two shift has eigenvalue 0
    elem = CoeffSeq(lat, unit(lat).coeffs + delta_seq(lat, TFPoint(n, 2, 0)).coeffs)
    with pytest.raises(SingularElement) as excinfo:
        invert_in_algebra(elem)
    assert excinfo.value.smallest_singular_value < 1e-12


def test_trace_values(rng):
    lat = lattice_from_generators(12, [(3, 0), (0, 4)])
    assert trace_tau(unit(lat)) == 1.0
    assert trace_tau(delta_seq(lat, TFPoint(12, 3, 4))) == 0.0
    a = rand_seq(lat, rng)
    assert trace_tau(a) == pytest.approx(
        complex(np.trace(represent(a).entries)) / 12, abs=1e-12
    )


def test_spectrum_of_unit_and_shift():
    lat = full_lattice(4)
    np.testing.assert_allclose(sorted(spectrum(unit(lat)).real), np.ones(4), atol=1e-12)
    eigs = spectrum(delta_seq(lat, TFPoint(4, 1, 0)))
    expect = sorted(np.exp(2j * np.pi * np.arange(4) / 4), key=lambda z: (z.real, z.imag))
    got = sorted(eigs, key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(got, expect, atol=1e-10)


