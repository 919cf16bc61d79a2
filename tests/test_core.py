"""Shifts, cocycles, the STFT on Z_N and the byte-bounded table cache."""
import sys
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgabor import (
    CoeffSeq,
    DimensionMismatch,
    ModNormSpec,
    OperatorMatrix,
    PhaseSpaceArray,
    Signal,
    TFPoint,
    Weight,
    cocycle,
    full_lattice,
    lattice_from_generators,
    mod_norm,
    random_signal,
    represent,
    shift_matrix,
    stft,
    symplectic_bicharacter,
    tf_shift,
)
from ncgabor.algebra import _band_index
from ncgabor.lattice import _TableCache, _tables
from ncgabor.modspaces import _lifted_weight_table
from oracles import stft_direct, stft_sample


def test_shift_of_delta_is_translation():
    f = Signal.delta(4)
    out = tf_shift(TFPoint(4, 1, 0), f)
    np.testing.assert_allclose(out.values, [0, 1, 0, 0], atol=0)


def test_modulation_acts_trivially_on_delta_at_origin():
    f = Signal.delta(4)
    out = tf_shift(TFPoint(4, 0, 1), f)
    np.testing.assert_allclose(out.values, [1, 0, 0, 0], atol=0)


def test_combined_shift_picks_up_phase():
    f = Signal.delta(4)
    out = tf_shift(TFPoint(4, 1, 1), f)
    np.testing.assert_allclose(out.values, [0, 1j, 0, 0], atol=1e-15)


def test_shift_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        tf_shift(TFPoint(4, 1, 0), Signal.delta(6))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=16),
    k=st.integers(min_value=-20, max_value=20),
    l=st.integers(min_value=-20, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_shift_preserves_norm(n, k, l, seed):
    f = random_signal(n, np.random.default_rng(seed))
    shifted = tf_shift(TFPoint(n, k, l), f)
    assert abs(shifted.norm2() - f.norm2()) <= 1e-12 * f.norm2()


def test_cocycle_identity_case():
    mu = TFPoint(4, 2, 3)
    assert cocycle(TFPoint(4, 0, 0), mu) == 1.0


def test_cocycle_forced_by_composition():
    # the value at ((0,1),(2,0)) is forced to 1 by the composition law:
    # pi(0,1) pi(2,0) equals pi(2,1) exactly
    lam, mu = TFPoint(4, 0, 1), TFPoint(4, 2, 0)
    lhs = shift_matrix(lam) @ shift_matrix(mu)
    np.testing.assert_allclose(lhs, shift_matrix(lam + mu), atol=1e-15)
    assert cocycle(lam, mu) == pytest.approx(1.0)
    # a genuinely twisted pair
    assert cocycle(TFPoint(4, 1, 0), TFPoint(4, 0, 1)) == pytest.approx(-1j)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=12),
    coords=st.tuples(*[st.integers(min_value=0, max_value=11)] * 6),
)
def test_two_cocycle_identity(n, coords):
    lam = TFPoint(n, coords[0], coords[1])
    mu = TFPoint(n, coords[2], coords[3])
    nu = TFPoint(n, coords[4], coords[5])
    lhs = cocycle(lam, mu) * cocycle(lam + mu, nu)
    rhs = cocycle(mu, nu) * cocycle(lam, mu + nu)
    assert abs(lhs - rhs) < 1e-12


def test_symplectic_examples():
    lam = TFPoint(4, 2, 3)
    assert symplectic_bicharacter(lam, lam) == pytest.approx(1.0)
    assert symplectic_bicharacter(TFPoint(4, 1, 0), TFPoint(4, 0, 1)) == pytest.approx(-1j)


def test_symplectic_antisymmetry_and_cocycle_relation(rng):
    n = 6
    for _ in range(50):
        lam = TFPoint(n, int(rng.integers(n)), int(rng.integers(n)))
        mu = TFPoint(n, int(rng.integers(n)), int(rng.integers(n)))
        s = symplectic_bicharacter(lam, mu)
        assert abs(s * symplectic_bicharacter(mu, lam) - 1) < 1e-12
        assert abs(s - cocycle(lam, mu) * np.conj(cocycle(mu, lam))) < 1e-12


def test_shift_matrix_matches_tf_shift(rng):
    n = 7
    f = random_signal(n, rng)
    p = TFPoint(n, 3, 5)
    np.testing.assert_allclose(shift_matrix(p) @ f.values, tf_shift(p, f).values, atol=1e-14)


def test_stft_of_deltas():
    f = Signal.delta(4)
    arr = stft(f, f).values
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, :] = 1.0
    np.testing.assert_allclose(arr, expect, atol=1e-14)


def test_stft_of_zero_signal(rng):
    g = random_signal(5, rng)
    arr = stft(Signal.zero(5), g).values
    assert np.abs(arr).max() == 0.0


def test_moyal_identity(rng):
    n = 8
    f, g = random_signal(n, rng), random_signal(n, rng)
    total = np.sum(np.abs(stft(f, g).values) ** 2)
    expect = n * f.norm2() ** 2 * g.norm2() ** 2
    assert abs(total - expect) <= 1e-10 * expect


def test_stft_fast_agrees_with_direct(rng):
    for n in (2, 5, 8, 13):
        f, g = random_signal(n, rng), random_signal(n, rng)
        fast, direct = stft(f, g).values, stft_direct(f, g)
        scale = max(1.0, np.abs(direct).max())
        assert np.abs(fast - direct).max() <= 1e-12 * scale


def test_stft_matches_pointwise_samples(rng):
    n = 6
    f, g = random_signal(n, rng), random_signal(n, rng)
    arr = stft(f, g).values
    for k in range(n):
        for l in range(n):
            assert abs(arr[k, l] - stft_sample(f, g, k, l)) < 1e-12


def test_stft_covariance_magnitudes(rng):
    n = 9
    f, g = random_signal(n, rng), random_signal(n, rng)
    mu = TFPoint(n, 4, 7)
    shifted = np.abs(stft(tf_shift(mu, f), g).values)
    base = np.abs(stft(f, g).values)
    rolled = np.roll(np.roll(base, mu.k, axis=0), mu.l, axis=1)
    np.testing.assert_allclose(shifted, rolled, atol=1e-10)


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(1, np.array([1.0]))
    with pytest.raises(ValueError):
        Signal(3, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Signal(2, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        Signal(2, np.array([0.0, 1j * np.inf]))


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: TFPoint(4.0, 5, 1), None, None),
        (lambda: Signal(4.0, np.ones(4)), None, None),
        (lambda: Signal(np.int64(4), np.ones(4)), None, None),
        (lambda: Signal.zero(4.0), None, None),
        (lambda: Signal.delta(np.float64(4.0), 1), None, None),
        (lambda: random_signal(4.0, np.random.default_rng(0)), None, None),
        (lambda: OperatorMatrix(4.0, np.eye(4)), None, None),
        (lambda: TFPoint(4.5, 1, 1), ValueError, "group order n = 4.5 is not an integer"),
        (lambda: Signal(4.5, np.ones(4)), ValueError, "group order n = 4.5 is not an integer"),
        (lambda: Signal.zero(4.5), ValueError, "group order n = 4.5 is not an integer"),
        (lambda: Signal.delta(1), ValueError, "group order must be >= 2, got 1"),
        (lambda: random_signal(4.5, np.random.default_rng(0)), ValueError,
         "group order n = 4.5 is not an integer"),
        (lambda: PhaseSpaceArray(1, np.ones((1, 1))), ValueError, "group order must be >= 2, got 1"),
        (lambda: CoeffSeq(None, np.ones(1)), TypeError, "must be a Lattice, got NoneType"),
        (lambda: CoeffSeq((4, (1, 0, 1), ()), np.ones(16)), TypeError,
         "must be a Lattice, got tuple"),
    ],
    ids=["tfpoint-4.0", "signal-4.0", "signal-int64", "zero-4.0", "delta-4.0", "random-4.0",
         "operator-4.0", "tfpoint-4.5", "signal-4.5", "zero-4.5", "delta-1", "random-4.5",
         "phase-space-1", "coeffseq-none", "coeffseq-tuple"],
)
def test_constructors_take_an_integral_order_as_int_and_refuse_the_rest(build, error, match):
    if error is None:
        n = build().n
        assert (n, type(n)) == (4, int)
    else:
        with pytest.raises(error, match=match):
            build()


def test_signal_from_a_strided_view():
    # the columns of a solve or matmul result are strided views
    cols = np.arange(8, dtype=complex).reshape(4, 2)
    assert Signal(4, cols[:, 1]).values.tolist() == [1, 3, 5, 7]


def test_value_types_leave_the_callers_array_writable():
    # they used to freeze the caller's own complex array in place; a
    # read-only view still aliases memory its base can write, so it is copied too
    v = np.zeros(4, dtype=complex)
    square = np.zeros((2, 2), dtype=complex)
    v_view, square_view = v[:], square[:]
    for arr in (v_view, square_view):
        arr.setflags(write=False)
    stored = [
        held
        for vec, mat in ((v, square), (v_view, square_view))
        for held in (
            Signal(4, vec).values,
            CoeffSeq(full_lattice(2), vec).coeffs,
            PhaseSpaceArray(2, mat).values,
            OperatorMatrix(2, mat).entries,
        )
    ]
    v[0] = 1
    square[0, 0] = 1
    for held in stored:
        assert not held.any() and not held.flags.writeable
    frozen = np.zeros(4, dtype=complex)
    frozen.setflags(write=False)
    assert Signal(4, frozen).values is frozen  # a read-only array that owns its data is shared


def test_tfpoint_reduction_and_lift():
    p = TFPoint(8, -3, 13)
    assert (p.k, p.l) == (5, 5)
    assert p.lift() == (-3, -3)
    assert TFPoint(8, 4, 2).lift() == (4, 2)  # tie at N/2 stays positive


def test_phase_space_moyal_invariant(rng):
    n = 6
    f, g = random_signal(n, rng), random_signal(n, rng)
    arr = stft(f, g)
    total = np.sum(np.abs(arr.values) ** 2)
    assert total == pytest.approx(n * f.norm2() ** 2 * g.norm2() ** 2, rel=1e-10)


def test_table_cache_holds_its_budget(rng):
    # mod_norm on a ladder of N and represent on 20 lattices drive the cache
    # past its 32 MiB budget.  After each call the total fits the budget, no
    # table over the 2 MiB cap is kept (the weight table and the a = 1 band
    # index at N=1024 are 8 MiB each), every table the call looked up that
    # fits the cap is kept, so the newest survives the evictions it caused,
    # and each lookup counts once, as a hit or a miss
    calls = []
    for n in (64, 128, 256, 384, 448, 512, 1024):
        f, g = random_signal(n, rng), random_signal(n, rng)
        for m in (
            Weight.polynomial(2),
            Weight.polynomial(0.5),
            Weight.subexponential(0.5, 0.5),
            Weight.exponential(0.01),
            Weight.exponential(0.02),
        ):
            calls.append((partial(mod_norm, f, ModNormSpec(1.0, 2.0, m, g)), [(_lifted_weight_table, (m, n))]))
    gens = [(512, [(a, a // 2), (0, b)]) for a in (1, 2, 4, 8) for b in (1, 2, 4, 8)]
    gens += [(1024, [(a, 0), (0, 64 // a)]) for a in (1, 2, 4, 8)]
    for n, basis in gens:
        lat = lattice_from_generators(n, basis)
        seq = CoeffSeq(lat, rng.standard_normal(lat.size))
        calls.append((partial(represent, seq), [(_band_index, (n, lat.basis[0]))]))
    _tables.clear()
    evictions = 0
    for call, keys in calls:
        before, lookups = set(_tables.kept), _tables.hits + _tables.misses
        call()
        assert _tables.hits + _tables.misses == lookups + len(keys)
        charges = [table.nbytes for table in _tables.kept.values()]
        assert _tables.nbytes == sum(charges) <= _tables.budget
        assert max(charges) <= _tables.cap
        for build, args in keys:
            nbytes = build(*args).nbytes
            assert ((build, args) in _tables.kept) == (nbytes <= _tables.cap), (build.__name__, args[1:])
        evictions += len(before - set(_tables.kept))
    assert evictions and len(_tables.kept) > 1
    hits, misses = _tables.hits, _tables.misses
    calls[-1][0]()
    assert (_tables.hits, _tables.misses) == (hits + 1, misses)
    for table in _tables.kept.values():
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0


def test_table_cache_total_survives_concurrent_misses():
    # eight threads miss, insert and evict on shared keys with the switch
    # interval shortened: none may raise, and the byte total must still be
    # the kept tables' sum
    cache = _TableCache(budget=64 * 2**10, cap=16 * 2**10)
    errors = []

    def work(seed):
        try:
            for i in range(3000):
                cache(np.zeros, (seed * 37 + i) % 300 + 1)
        except Exception as exc:  # a thread's exception would otherwise go unseen
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert cache.nbytes == sum(table.nbytes for table in cache.kept.values()) <= cache.budget
    assert cache.misses >= len(cache.kept) > 1
