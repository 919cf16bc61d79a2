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
    window_equivalence_ratio,
)
from ncgabor.modspaces import _lifted_weight_table
from conftest import SEEDS


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


def test_moyal_two_two(rng):
    n = 8
    f, g = random_signal(n, rng), random_signal(n, rng)
    val = mod_norm(f, ModNormSpec(2.0, 2.0, Weight.one(), g))
    assert val**2 == pytest.approx(n * f.norm2() ** 2 * g.norm2() ** 2, rel=1e-10)


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


def test_feichtinger_monotone_in_power(rng):
    n = 8
    g = random_signal(n, rng)
    for _ in range(10):
        f = random_signal(n, rng)
        vals = [feichtinger_norm(f, Weight.polynomial(1), s, g) for s in (0.0, 1.0, 2.0)]
        assert vals[0] <= vals[1] * (1 + 1e-12) <= vals[2] * (1 + 1e-12)


def test_homogeneity_and_triangle(rng):
    n = 10
    g = random_signal(n, rng)
    for p, q in ((1.0, 1.0), (1.5, 3.0), (2.0, math.inf)):
        spec = ModNormSpec(p, q, Weight.polynomial(1), g)
        for _ in range(30):
            f1, f2 = random_signal(n, rng), random_signal(n, rng)
            c = complex(rng.standard_normal(), rng.standard_normal())
            scaled = mod_norm(Signal(n, c * f1.values), spec)
            assert scaled == pytest.approx(abs(c) * mod_norm(f1, spec), rel=1e-10)
            total = mod_norm(Signal(n, f1.values + f2.values), spec)
            assert total <= mod_norm(f1, spec) + mod_norm(f2, spec) + 1e-10


def test_shift_covariance_bound(rng):
    n = 12
    g = random_signal(n, rng)
    v = Weight.polynomial(1)
    spec = ModNormSpec(1.0, 1.0, v.power(2.0), g)
    for _ in range(30):
        f = random_signal(n, rng)
        mu = TFPoint(n, int(rng.integers(n)), int(rng.integers(n)))
        bound = v(mu.lift()) ** 2 * mod_norm(f, spec)
        assert mod_norm(tf_shift(mu, f), spec) <= bound * (1 + 1e-10)


def test_window_equivalence_scalar_multiple(rng):
    n = 8
    g1 = random_signal(n, rng)
    c = 2.0 - 1.0j
    g2 = Signal(n, c * g1.values)
    fs = [random_signal(n, rng) for _ in range(10)]
    ratios = window_equivalence_ratio(fs, g1, g2, 1.0, 1.0)
    assert ratios.min_ratio == pytest.approx(1 / abs(c), rel=1e-10)
    assert ratios.max_ratio == pytest.approx(1 / abs(c), rel=1e-10)


def test_window_equivalence_shifted_window(rng):
    # with a flat weight the mixed norm is exactly shift invariant on the
    # torus, so the observed constant sits well inside the stated bound of 2
    n = 12
    g1 = random_signal(n, rng)
    g2 = tf_shift(TFPoint(n, 3, 5), g1)
    fs = [random_signal(n, rng) for _ in range(50)]
    ratios = window_equivalence_ratio(fs, g1, g2, 1.0, 2.0)
    assert 0.5 <= ratios.min_ratio <= ratios.max_ratio <= 2.0


def test_window_equivalence_independent_windows():
    n = 12
    spreads = []
    for seed in SEEDS[:3]:
        rng = np.random.default_rng(seed)
        g1, g2 = random_signal(n, rng), random_signal(n, rng)
        fs = [random_signal(n, rng) for _ in range(100)]
        ratios = window_equivalence_ratio(fs, g1, g2, 1.0, 1.0)
        assert ratios.used == 100
        spreads.append(ratios.max_ratio / ratios.min_ratio)
    assert all(s < 1e3 for s in spreads)


def test_window_equivalence_rejects_zero_windows(rng):
    n = 6
    g = random_signal(n, rng)
    with pytest.raises(ValueError):
        window_equivalence_ratio([g], Signal.zero(n), g, 1.0, 1.0)
    with pytest.raises(ValueError):
        window_equivalence_ratio([Signal.zero(n)], g, g, 1.0, 1.0)
