"""Gabor frames, twisted group algebras and Hilbert-module structure on Z_N.

Everything the continuous theory states about Gabor systems, adjoint
lattices and lattice algebras becomes exact finite linear algebra on the
cyclic group, so each identity here is verifiable to machine precision.

The public names resolve on first access (PEP 562): `import ncgabor` loads
no submodule and no numpy, and `ncgabor.X` or `from ncgabor import X`
imports the one submodule that defines X.
"""
import importlib

# each submodule's __all__, in the order the package lists its surface
_EXPORTS = {
    "core": (
        "DimensionMismatch",
        "PhaseSpaceArray",
        "Signal",
        "TFPoint",
        "cocycle",
        "random_signal",
        "stft",
        "symplectic_bicharacter",
        "tf_shift",
    ),
    "lattice": (
        "Lattice",
        "adjoint_lattice",
        "enumerate_subgroups",
        "full_lattice",
        "lattice_from_generators",
        "trivial_lattice",
        "volume",
    ),
    "weights": (
        "GRS_CONSISTENT",
        "GRS_INCONCLUSIVE",
        "GRS_VIOLATES",
        "GrsReport",
        "Weight",
        "grs_probe",
    ),
    "algebra": (
        "CoeffSeq",
        "OperatorMatrix",
        "SingularElement",
        "coefficients_of",
        "delta_seq",
        "invert_in_algebra",
        "involution",
        "represent",
        "spectrum",
        "trace_tau",
        "twisted_conv",
        "unit",
        "weighted_norm",
    ),
    "frames": (
        "FrameBounds",
        "GaborSystem",
        "NotAFrame",
        "analysis_coefficients",
        "canonical_dual",
        "canonical_tight",
        "figa_check",
        "frame_bounds",
        "janssen_representation",
        "reconstruct",
    ),
    "module": (
        "ModuleFrameReport",
        "act_left",
        "act_right",
        "inner_left",
        "inner_right",
        "min_windows",
        "module_frame_check",
        "multiwindow_parseval_residual",
        "tight_multiwindow",
    ),
    "modspaces": ("ModNormSpec", "feichtinger_norm", "mod_norm"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name or one of the submodules above, imported on first access."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
