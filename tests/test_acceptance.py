"""The package's public surface: what `ncgabor` exports is what its modules declare.

The module axioms and the multi-window module-frame criteria are registry
entries (`ncgabor.selftest.REGISTRY`), which tier-1 runs at seeds 0 and 1
and CI at seeds 2 and 3; see the README's "Testing" section.
"""
from types import ModuleType

import ncgabor
import ncgabor.serialize


def test_public_surface_is_the_modules_all():
    modules = ("core", "lattice", "weights", "algebra", "frames", "module", "modspaces")
    declared = set().union(*(getattr(ncgabor, m).__all__ for m in modules))
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
    }
    for module in (ncgabor, ncgabor.serialize, *(getattr(ncgabor, m) for m in modules)):
        assert not deleted & set(vars(module)), module.__name__
