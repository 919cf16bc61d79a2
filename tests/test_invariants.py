"""Every entry of the invariant registry behind `ncgabor selftest`, at seed 0."""
import numpy as np
import pytest

from ncgabor import selftest


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in selftest.run_selftest(seed=0)}


@pytest.mark.parametrize("name", [name for name, _, _ in selftest.REGISTRY])
def test_invariant(results, name):
    assert results[name].passed, results[name]


def test_reversed_registry_gives_each_name_the_same_residual(results, monkeypatch):
    monkeypatch.setattr(selftest, "REGISTRY", selftest.REGISTRY[::-1])
    for r in selftest.run_selftest(seed=0):
        assert (r.residual, r.error) == (results[r.name].residual, results[r.name].error), r.name


def test_nan_in_the_frame_operator_fails_its_entries(monkeypatch):
    """One NaN entry in every frame operator fails each entry that reads it."""
    frame_operator = selftest._frame_operator

    def poisoned(sys):
        entries = frame_operator(sys).copy()
        entries[0, 0] = np.nan
        return entries

    monkeypatch.setattr(selftest, "_frame_operator", poisoned)
    for name in ("frame operator shift commutation", "canonical tight parseval",
                 "adjoint-lattice expansion of frame operator"):
        entry = next(e for e in selftest.REGISTRY if e[0] == name)
        assert not selftest.run_check(entry, seed=0).passed, name
