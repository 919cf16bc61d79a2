"""Acceptance checks kept beside the invariant registry.

The module-axiom and multi-window criteria draw fresh inputs per matrix
lattice with their own seeds, so they cover inputs the registry's seed-0
entries do not.  Run with `pytest tests/test_acceptance.py -v -s` to see one
pass line per criterion.
"""
import math

import numpy as np

from ncgabor import (
    CoeffSeq,
    GaborSystem,
    Signal,
    act_left,
    associativity_residual,
    frame_bounds,
    inner_left,
    inner_right,
    involution,
    lattice_from_generators,
    module_frame_check,
    multiwindow_parseval_residual,
    random_signal,
    represent,
    right_operator,
    tight_multiwindow,
    twisted_conv,
    volume,
)
from conftest import SEEDS, matrix_lattices


def report(line):
    print(line)


def unit_signal(n, rng):
    f = random_signal(n, rng)
    return Signal(n, f.values / f.norm2())


def test_ac5_module_axioms():
    worst_pos = 0.0
    worst_inv = 0.0
    worst_compat = 0.0
    worst_assoc = 0.0
    for lat in matrix_lattices():
        rng = np.random.default_rng(SEEDS[2] + lat.n + lat.size)
        for _ in range(50):
            f = unit_signal(lat.n, rng)
            g = unit_signal(lat.n, rng)
            h = unit_signal(lat.n, rng)
            a = CoeffSeq(
                lat,
                (rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size))
                / lat.size,
            )
            left = represent(inner_left(f, f, lat)).entries
            worst_pos = max(worst_pos, -float(np.linalg.eigvalsh(left)[0]))
            right = right_operator(inner_right(f, f, lat)).entries
            worst_pos = max(
                worst_pos, -float(np.linalg.eigvalsh((right + right.conj().T) / 2)[0])
            )
            inv_gap = np.abs(
                involution(inner_left(f, g, lat)).coeffs - inner_left(g, f, lat).coeffs
            ).max()
            worst_inv = max(worst_inv, float(inv_gap))
            lc = np.abs(
                inner_left(act_left(a, f), g, lat).coeffs
                - twisted_conv(a, inner_left(f, g, lat)).coeffs
            ).max()
            rc = np.abs(
                inner_right(act_left(a, f), g, lat).coeffs
                - inner_right(f, act_left(involution(a), g), lat).coeffs
            ).max()
            worst_compat = max(worst_compat, float(lc), float(rc))
            worst_assoc = max(worst_assoc, associativity_residual(f, g, h, lat))
    assert worst_pos < 1e-10
    assert worst_inv < 1e-12
    assert worst_compat < 1e-10
    assert worst_assoc < 1e-10
    report(
        "AC-5 module axioms, 50 instances per lattice: PASS "
        f"(pos {worst_pos:.2e}, inv {worst_inv:.2e}, compat {worst_compat:.2e}, assoc {worst_assoc:.2e})"
    )


def test_ac8_multiwindow_module_frames():
    worst_bridge = 0.0
    for lat in matrix_lattices():
        rng = np.random.default_rng(SEEDS[0] + 7 * lat.n + lat.size)
        need = max(1, math.ceil(float(volume(lat))))
        for count in (need, need + 1):
            ws = [random_signal(lat.n, rng) for _ in range(count)]
            check = module_frame_check(ws, lat)
            stacked = frame_bounds(GaborSystem(tuple(ws), lat))
            assert check.is_module_frame == stacked.is_frame
            if check.is_module_frame:
                tight = tight_multiwindow(ws, lat)
                for _ in range(3):
                    f = random_signal(lat.n, rng)
                    worst_bridge = max(
                        worst_bridge, multiwindow_parseval_residual(tight, lat, f)
                    )
    assert worst_bridge < 1e-10
    # the undersampled lattice: covolume 2 forces at least two windows
    lat = lattice_from_generators(8, [(4, 0), (0, 4)])
    rng = np.random.default_rng(SEEDS[1])
    single = sum(
        frame_bounds(GaborSystem((random_signal(8, rng),), lat)).is_frame
        for _ in range(100)
    )
    double = sum(
        frame_bounds(
            GaborSystem((random_signal(8, rng), random_signal(8, rng)), lat)
        ).is_frame
        for _ in range(100)
    )
    assert single == 0
    assert double >= 90
    report(
        "AC-8 module frames equal multi-window frames: PASS "
        f"(bridge {worst_bridge:.2e}, single {single}/100, double {double}/100)"
    )
