"""Gabor frames, twisted group algebras and Hilbert-module structure on Z_N.

Everything the continuous theory states about Gabor systems, adjoint
lattices and lattice algebras becomes exact finite linear algebra on the
cyclic group, so each identity here is verifiable to machine precision.
"""
from .core import (
    DimensionMismatch,
    PhaseSpaceArray,
    Signal,
    TFPoint,
    cocycle,
    random_signal,
    shift_matrix,
    stft,
    symplectic_bicharacter,
    tf_shift,
)
from .lattice import (
    Lattice,
    adjoint_lattice,
    enumerate_subgroups,
    full_lattice,
    lattice_from_generators,
    trivial_lattice,
    volume,
)
from .weights import (
    GRS_CONSISTENT,
    GRS_INCONCLUSIVE,
    GRS_VIOLATES,
    GrsReport,
    Weight,
    grs_probe,
)
from .algebra import (
    CoeffSeq,
    OperatorMatrix,
    SingularElement,
    coefficients_of,
    delta_seq,
    invert_in_algebra,
    involution,
    represent,
    spectrum,
    trace_tau,
    twisted_conv,
    unit,
    weighted_norm,
)
from .frames import (
    FrameBounds,
    GaborSystem,
    NotAFrame,
    analysis_coefficients,
    canonical_dual,
    canonical_tight,
    figa_check,
    frame_bounds,
    frame_operator,
    janssen_representation,
    reconstruct,
)
from .module import (
    ModuleFrameReport,
    act_left,
    act_right,
    inner_left,
    inner_right,
    min_windows,
    module_frame_check,
    module_frame_identity_residual,
    multiwindow_parseval_residual,
    right_operator,
    tight_multiwindow,
)
from .modspaces import ModNormSpec, feichtinger_norm, mod_norm

__version__ = "0.1.0"
