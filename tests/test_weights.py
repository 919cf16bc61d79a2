"""Weight families, the polynomial submultiplicativity constant, growth probes."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgabor import GRS_CONSISTENT, GRS_INCONCLUSIVE, GRS_VIOLATES, Weight, grs_probe, weights


def test_polynomial_values():
    v = Weight.polynomial(2)
    assert v((0, 0)) == pytest.approx(1.0)
    assert v((3, 4)) == pytest.approx(26.0)


def test_exponential_value():
    assert Weight.exponential(1.0)((1, 0)) == pytest.approx(math.e)


def test_subexponential_value():
    v = Weight.subexponential(1.0, 0.5)
    assert v((4, 0)) == pytest.approx(math.exp(2.0))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(x=st.integers(-100, 100), y=st.integers(-100, 100))
def test_symmetry_and_normalization(x, y):
    for v in (Weight.polynomial(2), Weight.subexponential(1, 0.5), Weight.exponential(0.5)):
        assert v((x, y)) >= 1.0
        assert v((-x, -y)) == v((x, y))


@pytest.mark.parametrize(
    "weight, point",
    [(Weight.exponential(1000), (1, 0)), (Weight.polynomial(1e308), (5, 0))],
    ids=["exponential", "polynomial"],
)
def test_a_value_past_the_float_range_names_the_weight(weight, point):
    # its log is finite, its exponential is not
    with pytest.raises(OverflowError, match=f"^weight {weight.family} exceeds the float range$"):
        weight(point)


def test_power_method_folds_parameters():
    assert Weight.polynomial(2).power(3) == Weight.polynomial(6)
    assert Weight.exponential(1.0).power(2.0) == Weight.exponential(2.0)
    assert Weight.subexponential(1.0, 0.5).power(0) == Weight.one()
    custom = Weight.custom({(0, 0): 1.0, (1, 0): 2.0}).power(2.0)
    assert custom((1, 0)) == pytest.approx(4.0)


def test_polynomial_submultiplicative_exhaustive_small_range():
    # exhaustive scan: the ratio exceeds 1 only at aligned unit pairs
    # (|p| = |q| = 1, p = q), where 1 + |2p|^2 = 5 > 4; sharp bound 5/4 for s=2
    v = Weight.polynomial(2)
    rng_vals = range(-6, 7)
    ratios = []
    violators = set()
    for px in rng_vals:
        for py in rng_vals:
            vp = v((px, py))
            for qx in rng_vals:
                for qy in rng_vals:
                    ratio = v((px + qx, py + qy)) / (vp * v((qx, qy)))
                    ratios.append(ratio)
                    if ratio > 1 + 1e-12:
                        violators.add(((px, py), (qx, qy)))
    assert np.max(ratios) == pytest.approx(1.25)
    assert violators == {
        (p, p) for p in (((1, 0)), ((-1, 0)), ((0, 1)), ((0, -1)))
    }


def test_custom_table_lookup_error():
    v = Weight.custom({(1, 0): 1.0})
    with pytest.raises(KeyError):
        v((5, 5))


def test_custom_table_validation():
    with pytest.raises(ValueError):
        Weight.custom({(1, 0): -1.0})
    with pytest.raises(ValueError):
        Weight.custom({(1, 0): 2.0, (-1, 0): 3.0})
    with pytest.raises(ValueError):
        Weight.custom({(0, 0): 0.5})
    with pytest.raises(ValueError):
        Weight.custom({})


def test_custom_table_symmetrized():
    v = Weight.custom({(1, 2): 5.0})
    assert v((-1, -2)) == pytest.approx(5.0)


def test_grs_polynomial_consistent():
    report = grs_probe(Weight.polynomial(2), (1, 0), 1024)
    assert report.verdict == GRS_CONSISTENT
    final_n, final = report.samples[-1]
    assert final_n == 1024
    assert final == pytest.approx((1 + 1024**2) ** (1 / 1024), rel=1e-12)
    assert final < 1.02


def test_grs_exponential_violates():
    report = grs_probe(Weight.exponential(1.0), (1, 0), 1024)
    assert report.verdict == GRS_VIOLATES
    for _, val in report.samples:
        assert val == pytest.approx(math.e, rel=1e-12)


def test_grs_exponential_samples_analytic_general_point():
    b, point = 0.5, (3, -4)
    report = grs_probe(Weight.exponential(b), point, 256)
    for _, val in report.samples:
        assert val == pytest.approx(math.exp(b * 5.0), rel=1e-12)


def test_grs_subexponential_consistent():
    report = grs_probe(Weight.subexponential(1.0, 0.5), (1, 0), 1024)
    assert report.verdict == GRS_CONSISTENT
    for n, val in report.samples:
        assert val == pytest.approx(math.exp(n ** (0.5 - 1.0)), rel=1e-12)


def test_grs_parameter_errors():
    with pytest.raises(ValueError):
        grs_probe(Weight.polynomial(2), (0, 0), 64)
    with pytest.raises(ValueError):
        grs_probe(Weight.polynomial(2), (1, 0), 8)


def test_grs_inconclusive_possible():
    # decreasing but still far above 1 at the probe depth
    report = grs_probe(Weight.subexponential(8.0, 0.9), (5, 5), 16)
    assert report.verdict == GRS_INCONCLUSIVE


def test_weight_family_validation():
    with pytest.raises(ValueError):
        Weight.polynomial(-1)
    with pytest.raises(ValueError):
        Weight.exponential(0.0)
    with pytest.raises(ValueError):
        Weight.subexponential(1.0, 1.0)


def test_custom_weight_hashable_and_immutable():
    v = Weight.custom({(0, 0): 1.0, (1, 0): 2.0})
    same = Weight.custom({(1, 0): 2.0, (0, 0): 1.0})
    assert v == same and hash(v) == hash(same)
    assert len({v, same, Weight.custom({(1, 0): 3.0}), v.power(2.0)}) == 3
    with pytest.raises(TypeError):
        v.table[(2, 0)] = 4.0


def test_hashing_a_built_custom_weight_builds_nothing(monkeypatch):
    # mod_norm hashes its weight on every table-cache lookup: the hash is
    # computed once, at construction, not from a fresh frozenset of the table
    table = {(x, y): 1.0 + x * x + y * y for x in range(-8, 9) for y in range(-8, 9)}
    v, same = Weight.custom(table), Weight.custom(dict(reversed(table.items())))

    def refuse(*args):
        raise AssertionError("hashing built a frozenset")

    monkeypatch.setattr(weights, "frozenset", refuse, raising=False)
    assert hash(v) == hash(v) == hash(same)
    assert len({v, same}) == 1
