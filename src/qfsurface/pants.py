"""Pair-of-pants representations with prescribed boundary traces.

For boundary data (sigma_1, sigma_2, sigma_3) with positive real parts,
the representation of <c1, c2, c3 | c1 c2 c3 = 1> into SL2(C) with
tr(C_i) = -2 cosh(sigma_i) is taken in a fixed normal form:

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
assembly reads of a pants, once.
"""

from __future__ import annotations

import cmath

__all__ = ["ReduciblePants", "leaf_entries", "validate_pants"]

_SINH_TOL = 1e-12


class ReduciblePants(Exception):
    """The trace triple forces a reducible (degenerate) representation."""


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
