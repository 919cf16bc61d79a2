"""Every entry of the invariant registry behind `ncgabor selftest`, at seed 0."""
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
