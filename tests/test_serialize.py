"""Schema round trips and malformed-input diagnostics."""
import json
from fractions import Fraction

import numpy as np
import pytest

from ncgabor import (
    CoeffSeq,
    FrameBounds,
    Weight,
    lattice_from_generators,
    random_signal,
    stft,
)
from ncgabor.module import ModuleFrameReport
from ncgabor.serialize import (
    bounds_to_dict,
    coeffseq_from_dict,
    coeffseq_to_dict,
    fraction_from_str,
    fraction_to_str,
    grs_report_to_csv,
    lattice_from_dict,
    lattice_to_dict,
    module_report_to_dict,
    phase_space_from_csv,
    phase_space_to_csv,
    signal_from_dict,
    signal_to_dict,
    weight_from_dict,
    weight_to_dict,
)
from ncgabor.weights import grs_probe


def test_signal_round_trip_bit_exact(rng):
    f = random_signal(9, rng)
    text = json.dumps(signal_to_dict(f))
    back = signal_from_dict(json.loads(text))
    assert back.n == f.n
    assert back.values.tolist() == f.values.tolist()


def test_signal_missing_field():
    with pytest.raises(ValueError, match="'im'"):
        signal_from_dict({"n": 2, "re": [1, 0]})


def test_signal_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        signal_from_dict({"n": 3, "re": [1, 0], "im": [0, 0]})


def test_lattice_round_trip():
    lat = lattice_from_generators(12, [(2, 1), (0, 6)])
    back = lattice_from_dict(json.loads(json.dumps(lattice_to_dict(lat))))
    assert back.as_array().tolist() == lat.as_array().tolist()
    assert back.n == lat.n


def test_lattice_bad_generator_entry():
    with pytest.raises(ValueError, match="generators"):
        lattice_from_dict({"n": 4, "generators": [[1, 2, 3]]})


def test_coeffseq_round_trip(rng):
    lat = lattice_from_generators(8, [(2, 0), (0, 4)])
    a = CoeffSeq(lat, rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size))
    back = coeffseq_from_dict(json.loads(json.dumps(coeffseq_to_dict(a))))
    assert back.coeffs.tolist() == a.coeffs.tolist()
    assert back.lattice.as_array().tolist() == lat.as_array().tolist()


def test_coeffseq_length_mismatch():
    lat = lattice_from_generators(4, [(2, 0)])
    d = coeffseq_to_dict(CoeffSeq(lat, np.zeros(lat.size, dtype=complex)))
    d["coeffs"] = d["coeffs"][:-1]
    with pytest.raises(ValueError, match="coeffs"):
        coeffseq_from_dict(d)


def test_weight_round_trips():
    for v in (
        Weight.polynomial(2.5),
        Weight.subexponential(0.7, 0.3),
        Weight.exponential(1.2),
        Weight.custom({(0, 0): 1.0, (2, 1): 4.0}),
        Weight.custom({(1, 0): 2.0}).power(2.0),
    ):
        back = weight_from_dict(json.loads(json.dumps(weight_to_dict(v))))
        assert back == v


def test_weight_unknown_family():
    with pytest.raises(ValueError, match="family"):
        weight_from_dict({"family": "gaussian"})


def test_fraction_round_trip():
    assert fraction_to_str(Fraction(3, 7)) == "3/7"
    assert fraction_from_str("3/7") == Fraction(3, 7)
    with pytest.raises(ValueError, match="rational"):
        fraction_from_str("0.5")


def test_bounds_dict():
    d = bounds_to_dict(FrameBounds(1.0, 2.0, True))
    assert d == {"A": 1.0, "B": 2.0, "is_frame": True}


def test_module_report_dict_with_infinite_residual():
    report = ModuleFrameReport(float("inf"), False, 1, Fraction(2))
    d = module_report_to_dict(report)
    assert d["residual"] is None
    assert d["vol"] == "2/1"
    json.dumps(d)  # must stay strict-JSON serializable


def test_phase_space_csv_round_trip(rng):
    f, g = random_signal(5, rng), random_signal(5, rng)
    arr = stft(f, g)
    back = phase_space_from_csv(phase_space_to_csv(arr))
    assert back.values.tolist() == arr.values.tolist()


def test_phase_space_csv_bad_header():
    with pytest.raises(ValueError, match="header"):
        phase_space_from_csv("a,b,c\n1,2,3\n")


def test_grs_csv_shape():
    report = grs_probe(Weight.exponential(1.0), (1, 0), 64)
    text = grs_report_to_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == "n,sample"
    assert len(lines) == 1 + len(report.samples)
    n, val = lines[1].split(",")
    assert int(n) == 1
    assert float(val) == report.samples[0][1]
