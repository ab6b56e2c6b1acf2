"""Pair-of-pants representations with prescribed boundary traces.

For boundary data (sigma_1, sigma_2, sigma_3) with positive real parts,
builds the representation of <c1, c2, c3 | c1 c2 c3 = 1> into SL2(C) with
tr(C_i) = -2 cosh(sigma_i), in a fixed normal form:

    C1 = [[t1, -1], [1, 0]]            (companion matrix, t1 = -2 cosh s1)
    C2 = [[0, zeta], [-1/zeta, t2]]    (zeta = -exp(s3))
    C3 = (C1 C2)^(-1)

Every entry is an entire function of the sigma_i, so derivatives of
assembled holonomies never meet a branch cut.  Real boundary data gives
real matrices (a Fuchsian pair of pants).

The module also exposes the cuff frames used to glue pants together: for
cuff k, a basis matrix F_k whose columns are the attracting and repelling
eigenvectors of C_k, scaled so that det(F_k) = -2 sinh(sigma_k) and
F_k^(-1) C_k F_k = diag(-exp(sigma_k), -exp(-sigma_k)).  The scaling makes
the determinant depend only on the cuff's own length, so gluing maps
between frames of matching cuffs automatically have unit determinant.

The entry formulas take h_k = exp(sigma_k / 2), the one transcendental per
cuff, and derive every cosh and exponential from it by arithmetic alone.  So
the surface assembly evaluates them on any scalar with the four operations:
on fixed-point numbers (:class:`matrix2.Fixed`) or on jets that carry exact
derivatives (:class:`matrix2.Jet`).  They return (a, b, c, d) tuples, which
the assembly turns into the flat matrices of the :mod:`matrix2` kernel.
:func:`leaf_entries` evaluates C1, C2 and the three frames, all the
assembly reads of a pants, once; :func:`pants_entries` adds C3.  The
complex128 arrays of :func:`pants_matrices` and :func:`cuff_frames` are the
same leaves at the working precision, rounded once.
"""

from __future__ import annotations

import cmath

from . import matrix2 as m2
from .moebius import MoebiusMap

__all__ = ["ReduciblePants", "PantsBoundaryData", "pants_representation",
           "pants_matrices", "cuff_frames", "leaf_entries", "pants_entries",
           "frame_entries", "validate_pants"]

_SINH_TOL = 1e-12


class ReduciblePants(Exception):
    """The trace triple forces a reducible (degenerate) representation."""


class PantsBoundaryData:
    """Three complex half-lengths with positive real part."""

    __slots__ = ("sigmas",)

    def __init__(self, sigma1, sigma2, sigma3):
        sigmas = (complex(sigma1), complex(sigma2), complex(sigma3))
        for s in sigmas:
            if s.real <= 0.0:
                raise ValueError(f"boundary data needs Re > 0, got {s}")
            if abs(cmath.sinh(s)) <= _SINH_TOL:
                raise ValueError(f"degenerate boundary (sinh ~ 0) at {s}")
        self.sigmas = sigmas

    def __iter__(self):
        return iter(self.sigmas)


def validate_pants(sigmas):
    """Raise ReduciblePants for degenerate boundary triples."""
    s1, s2, s3 = (complex(s) for s in sigmas)
    t1 = -2.0 * cmath.cosh(s1)
    t2 = -2.0 * cmath.cosh(s2)
    t3 = -2.0 * cmath.cosh(s3)
    commutator_trace = t1 * t1 + t2 * t2 + t3 * t3 - t1 * t2 * t3 - 2.0
    if abs(commutator_trace - 2.0) <= 1e-8:
        raise ReduciblePants(f"commutator trace {commutator_trace} is (near) 2")
    for s in (s1, s2, s3):
        if abs(cmath.sinh(s)) <= _SINH_TOL:
            raise ReduciblePants(f"degenerate boundary (sinh ~ 0) at {s}")


def leaf_entries(halves):
    """Boundary matrices (C1, C2) and cuff frames (F1, F2, F3) as flat
    (a, b, c, d) tuples, from h_k = exp(sigma_k/2).

    Frame columns are the attracting and repelling vectors.
    """
    h1, h2, h3 = halves
    e1, e2 = h1 * h1, h2 * h2
    t1, t2, zeta = -(e1 + 1 / e1), -(e2 + 1 / e2), -(h3 * h3)
    mu = -e1
    lam = -e2
    scale = 1 / h3
    zeta_scale = zeta * scale
    matrices = (t1, -1, 1, 0), (0, zeta, -1 / zeta, t2)
    frames = ((mu, 1 / mu, 1, 1),
              (zeta_scale, zeta_scale, lam * scale, scale / lam),
              (1, t1 * zeta - t2, 0, zeta - 1 / zeta))
    return matrices, frames


def pants_entries(halves):
    """Boundary matrices (C1, C2, C3) as flat tuples, C3 = (C1 C2)^(-1)."""
    (c1, c2), frames = leaf_entries(halves)
    zeta = c2[1]
    # the second entry of F3 is t1 zeta - t2
    return c1, c2, (zeta, -frames[2][1], 0, 1 / zeta)


def frame_entries(halves):
    """Cuff frames (F1, F2, F3) as flat tuples."""
    return leaf_entries(halves)[1]


def _rounded(entries, sigmas):
    """The matrices of an entry formula at the working precision, rounded
    once to complex128 2x2 arrays."""
    halves = tuple(m2.exp(m2.lift(s) / 2) for s in sigmas)
    return tuple(m2.flat_to_complex(m2.flat(m)) for m in entries(halves))


def pants_matrices(sigmas):
    """The three boundary matrices as complex128 2x2 arrays."""
    validate_pants(sigmas)
    return _rounded(pants_entries, sigmas)


def cuff_frames(sigmas):
    """Frame matrices (F1, F2, F3) as complex128 2x2 arrays."""
    return _rounded(frame_entries, sigmas)


def pants_representation(data):
    """Boundary holonomies (C1, C2, C3) with C1 C2 C3 = I as MoebiusMaps."""
    if not isinstance(data, PantsBoundaryData):
        data = PantsBoundaryData(*data)
    c1, c2, c3 = pants_matrices(data.sigmas)
    return (
        MoebiusMap(c1, normalize=False),
        MoebiusMap(c2, normalize=False),
        MoebiusMap(c3, normalize=False),
    )
