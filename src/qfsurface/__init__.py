"""Holonomy of closed-surface groups from complex Fenchel-Nielsen
coordinates, with tools to verify the symplectic identities they satisfy.

Quick start: build a pants decomposition graph, pick one complex
(length, twist) pair per decomposition curve, and call ``holonomy``.  The
Gram matrix of the cup-product pairing over the coordinate directions is
the canonical symplectic form, which ``darboux_residual`` quantifies.
"""

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
from .hexagon import DegenerateSide, Hexagon, hexagon_residuals, solve_hexagon
from .limitset import LimitSetCloud, cloud_to_csv, cloud_to_svg, limit_set
from .moebius import (
    DegenerateGeodesic,
    MoebiusMap,
    NotLoxodromic,
    OrientedGeodesic,
    ParabolicOrIdentity,
    ProjectivePoint,
    SharedEndpoint,
    apply,
    classify,
    complex_displacement,
    complex_distance,
    compose,
    fixed_points,
    normalize_complex_length,
)
from .pants import PantsBoundaryData, ReduciblePants, pants_representation
from .presentation import (
    GluingEdge,
    MalformedGraph,
    PantsDecompositionGraph,
    SurfaceGroupPresentation,
    build_presentation,
)
from .schwarzian import CriticalPoint, HolomorphicSample, cocycle_check, schwarzian_at
from .surface import (
    BranchFailure,
    DegenerateFN,
    FNCoordinates,
    Representation,
    UnknownGenerator,
    complex_length_of_curve,
    evaluate_word,
    fuchsian_residual,
    holonomy,
    twist_flow,
)

__version__ = "0.1.0"
