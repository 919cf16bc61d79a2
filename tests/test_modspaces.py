"""Mixed weighted STFT norms and window equivalence."""
import math

import numpy as np
import pytest

from ncgabor import (
    ModNormSpec,
    Signal,
    TFPoint,
    Weight,
    feichtinger_norm,
    mod_norm,
    random_signal,
    stft,
    tf_shift,
)
from ncgabor.lattice import _tables
from ncgabor.modspaces import _lifted_weight_table
from conftest import SEEDS, traced_memory


def mixed_norm_oracle(f, g, p, q, m):
    """Independent oracle: explicit loops over the weighted STFT table."""
    n = f.n
    half = n // 2
    lift = lambda t: t if t <= half else t - n
    table = np.abs(stft(f, g).values)
    inner = []
    for l in range(n):
        vals = [table[k, l] * m((lift(k), lift(l))) for k in range(n)]
        inner.append(max(vals) if p == math.inf else sum(v**p for v in vals) ** (1 / p))
    return max(inner) if q == math.inf else sum(v**q for v in inner) ** (1 / q)


def test_delta_case_value():
    d = Signal.delta(4)
    assert mod_norm(d, ModNormSpec(1.0, 1.0, Weight.one(), d)) == pytest.approx(4.0)


def test_zero_signal():
    d = Signal.delta(4)
    assert mod_norm(Signal.zero(4), ModNormSpec(1.0, 1.0, Weight.one(), d)) == 0.0


def test_matches_oracle_all_exponent_shapes(rng):
    n = 6
    f, g = random_signal(n, rng), random_signal(n, rng)
    m = Weight.polynomial(1)
    for p, q in ((1.0, 1.0), (2.0, 1.0), (1.0, math.inf), (math.inf, 2.0), (math.inf, math.inf)):
        got = mod_norm(f, ModNormSpec(p, q, m, g))
        assert got == pytest.approx(mixed_norm_oracle(f, g, p, q, m), rel=1e-12)


@pytest.mark.parametrize("n", [7, 16])
def test_weight_table_matches_pointwise_weights(n):
    table = {(x, y): 1.0 + x * x + 2 * y * y for x in range(-8, 9) for y in range(-8, 9)}
    weights = (
        Weight.one(),
        Weight.polynomial(2.5),
        Weight.subexponential(0.5, 0.5),
        Weight.exponential(0.3),
        Weight.custom(table),
        Weight.custom(table).power(1.5),
    )
    lift = [t if t <= n // 2 else t - n for t in range(n)]
    for m in weights:
        expect = np.array([[m((k, l)) for l in lift] for k in lift])
        # numpy's and math's exp/log1p may differ in the last few ulp
        np.testing.assert_allclose(_lifted_weight_table(m, n), expect, rtol=1e-13, atol=0)


def test_mod_norm_from_a_filled_cache_is_bit_identical(rng):
    # a weight equal by value, built anew for every call, finds the table
    # the first call cached, and the norm is the same to the last bit
    n = 16
    table = {(x, y): 1.0 + x * x + 2 * y * y for x in range(-8, 9) for y in range(-8, 9)}
    f, g = random_signal(n, rng), random_signal(n, rng)
    for make in (
        lambda: Weight.polynomial(2.5),
        lambda: Weight.subexponential(0.5, 0.5),
        lambda: Weight.exponential(0.3),
        lambda: Weight.custom(table).power(1.5),
    ):
        _tables.clear()
        values = [mod_norm(f, ModNormSpec(1.0, 2.0, make(), g)).hex() for _ in range(3)]
        assert (_tables.misses, _tables.hits) == (1, 2)
        assert values == values[:1] * 3


def test_stft_and_mod_norm_hold_one_phase_space_array(rng):
    # the STFT is one N x N complex array, 16 MiB at N=1024: f times the
    # translate view of the window, transformed in place and shared, not
    # copied; mod_norm weights its magnitudes in place
    n = 1024
    f, g = random_signal(n, rng), random_signal(n, rng)
    spec = ModNormSpec(1.0, 1.0, Weight.polynomial(2), g)
    for call, bound in ((lambda: stft(f, g), 1.5), (lambda: mod_norm(f, spec), 2.0)):
        call()  # warm
        with traced_memory() as memory:
            call()
        assert memory.peak < bound * n * n * 16


def test_zero_window_rejected():
    with pytest.raises(ValueError):
        ModNormSpec(1.0, 1.0, Weight.one(), Signal.zero(4))


def test_bad_exponent_rejected():
    d = Signal.delta(4)
    with pytest.raises(ValueError):
        ModNormSpec(0.5, 1.0, Weight.one(), d)


def test_feichtinger_computed_delta_case():
    # lifted frequencies for N=4 are {0, 1, 2, -1}; with the half-power
    # quadratic weight at power 2 the four surviving samples weigh
    # 1 + 2 + 5 + 2
    d = Signal.delta(4)
    val = feichtinger_norm(d, Weight.polynomial(1), 2.0, d)
    oracle = mixed_norm_oracle(d, d, 1.0, 1.0, Weight.polynomial(1).power(2.0))
    assert oracle == pytest.approx(10.0)
    assert val == pytest.approx(10.0)


def test_feichtinger_s_zero_is_plain_l1(rng):
    n = 6
    f, g = random_signal(n, rng), random_signal(n, rng)
    val = feichtinger_norm(f, Weight.polynomial(1), 0.0, g)
    assert val == pytest.approx(float(np.abs(stft(f, g).values).sum()), rel=1e-12)


def window_ratios(fs, g1, g2, p, q):
    """mod_norm(f; g1) / mod_norm(f; g2) over the signals fs, flat weight."""
    spec1, spec2 = (ModNormSpec(p, q, Weight.one(), g) for g in (g1, g2))
    return np.array([mod_norm(f, spec1) / mod_norm(f, spec2) for f in fs])


def test_window_equivalence_scalar_multiple(rng):
    n = 8
    g1 = random_signal(n, rng)
    c = 2.0 - 1.0j
    g2 = Signal(n, c * g1.values)
    fs = [random_signal(n, rng) for _ in range(10)]
    ratios = window_ratios(fs, g1, g2, 1.0, 1.0)
    assert ratios.min() == pytest.approx(1 / abs(c), rel=1e-10)
    assert ratios.max() == pytest.approx(1 / abs(c), rel=1e-10)


def test_window_equivalence_shifted_window(rng):
    # with a flat weight the mixed norm is exactly shift invariant on the
    # torus, so the observed constant sits well inside the stated bound of 2
    n = 12
    g1 = random_signal(n, rng)
    g2 = tf_shift(TFPoint(n, 3, 5), g1)
    fs = [random_signal(n, rng) for _ in range(50)]
    ratios = window_ratios(fs, g1, g2, 1.0, 2.0)
    assert 0.5 <= ratios.min() <= ratios.max() <= 2.0


def test_window_equivalence_independent_windows():
    n = 12
    spreads = []
    for seed in SEEDS[:3]:
        rng = np.random.default_rng(seed)
        g1, g2 = random_signal(n, rng), random_signal(n, rng)
        fs = [random_signal(n, rng) for _ in range(100)]
        ratios = window_ratios(fs, g1, g2, 1.0, 1.0)
        assert ratios.shape == (100,) and np.all(ratios > 0)
        spreads.append(ratios.max() / ratios.min())
    assert all(s < 1e3 for s in spreads)
