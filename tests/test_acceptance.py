"""What `ncgabor` exports is what its modules declare; the README's Quick start runs.

The module axioms and the multi-window module-frame criteria are registry
entries (`ncgabor.selftest.REGISTRY`), which tier-1 runs at seeds 0 and 1
and CI at seeds 2 and 3; see the README's "Testing" section.
"""
import re
from pathlib import Path
from types import ModuleType

import numpy as np

import ncgabor
import ncgabor.serialize


def test_public_surface_is_the_modules_all():
    modules = ("core", "lattice", "weights", "algebra", "frames", "module", "modspaces")
    declared = set().union(*(getattr(ncgabor, m).__all__ for m in modules))
    # the package resolves its names on first access: what it lists and
    # what dir() shows, each name the defining module's own object
    listed = {
        name for name in dir(ncgabor)
        if not name.startswith("_") and not isinstance(getattr(ncgabor, name), ModuleType)
    }
    assert set(ncgabor.__all__) == declared == listed
    for m in modules:
        module = getattr(ncgabor, m)
        assert isinstance(module, ModuleType)
        for name in module.__all__:
            assert getattr(ncgabor, name) is getattr(module, name), name
    exported = {
        name for name, value in vars(ncgabor).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == declared
    deleted = {
        "check_submultiplicative", "check_moderate", "_sample_pairs",
        "SubmultiplicativityReport", "ModerateReport", "window_equivalence_ratio",
        "EquivalenceRatios", "frame_type_operator", "hermitian_inverse_sqrt",
        "EIGENVALUE_FLOOR_REL", "phase_space_to_csv", "phase_space_from_csv",
        "associativity_residual", "_shifted", "_right_element", "_band_phase",
        "shift_matrix", "frame_operator", "right_operator", "module_frame_identity_residual",
        "_roots", "fraction_from_str",
    }
    for module in (ncgabor, ncgabor.serialize, *(getattr(ncgabor, m) for m in modules)):
        assert not deleted & set(vars(module)), module.__name__


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (source,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    namespace = {}
    exec(compile(source, "README.md", "exec"), namespace)
    capsys.readouterr()  # the block's prints stay out of the test log
    S, J, f, f_hat = (namespace[name] for name in ("S", "J", "f", "f_hat"))
    assert np.linalg.norm(S - J) <= 1e-12 * np.linalg.norm(S)
    assert np.linalg.norm(f_hat.values - f.values) <= 1e-12 * f.norm2()
