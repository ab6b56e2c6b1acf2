"""Holonomy of closed-surface groups from complex Fenchel-Nielsen
coordinates, with tools to verify the symplectic identities they satisfy.

Quick start: build a pants decomposition graph, pick one complex
(length, twist) pair per decomposition curve, and call ``holonomy``.  The
Gram matrix of the cup-product pairing over the coordinate directions is
the canonical symplectic form, which ``darboux_residual`` quantifies.

The names of the ``hexagon``, ``limitset`` and ``schwarzian`` modules (and
the modules themselves) are given on first access, through the module
``__getattr__``: nothing on the holonomy and Gram path uses them, and they
load numpy.  Every other name is bound on import, without numpy, and
``holonomy``, ``symplectic_gram`` and ``darboux_residual`` run without it:
numpy loads only where a complex128 array is built.  Holonomy and cocycle
values live at the working precision of ``matrix2``; a matrix leaves it
through one exit, ``Representation.matrix_of_word`` (or
``matrix2.flat_to_complex`` for any flat matrix).
"""

import importlib

from .cocycles import (
    BaseMismatch,
    COEFFICIENT_SCALE,
    PAIRING_SIGN,
    PrecisionExhausted,
    SymplecticGram,
    TangentCocycle,
    coboundary,
    cocycle_gram,
    cocycle_residual,
    darboux_residual,
    fd_basis_cocycles,
    goldman_pairing,
    symplectic_gram,
)
from .config import (
    CountMismatch,
    DanglingCuff,
    SchemaError,
    SurfaceConfig,
    config_to_json,
    parse_config,
)
from .pants import ReduciblePants
from .presentation import (
    GluingEdge,
    MalformedGraph,
    PantsDecompositionGraph,
    SurfaceGroupPresentation,
)
from .surface import (
    BranchFailure,
    DegenerateFN,
    FNCoordinates,
    NotLoxodromic,
    Representation,
    UnknownGenerator,
    complex_length_of_curve,
    holonomy,
    normalize_complex_length,
    twist_flow,
)

__version__ = "0.1.0"

_ON_ACCESS = {
    "hexagon": ("DegenerateSide", "Hexagon", "hexagon_residuals", "solve_hexagon"),
    "limitset": ("LimitSetCloud", "cloud_to_csv", "cloud_to_svg", "limit_set"),
    "schwarzian": ("CriticalPoint", "HolomorphicSample", "cocycle_check", "schwarzian_at"),
}
_HOME = {name: module for module, names in _ON_ACCESS.items() for name in names}


def __getattr__(name):
    if name in _ON_ACCESS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
