"""Right-angled hexagons in H^3 solved from three alternate complex sides.

The defining relations, with sides sigma_1..sigma_6 indexed mod 6:

  cosine rule:  cosh s_n * sinh s_{n+1} * sinh s_{n-1}
                  + cosh s_{n+1} * cosh s_{n-1} - cosh s_{n+3} = 0
  sine rule:    sinh s_1 / sinh s_4 = sinh s_3 / sinh s_6 = sinh s_5 / sinh s_2

Given the odd sides, the cosine rule determines the cosh of each even side.
The side itself is recovered as follows: side 4 takes the principal arccosh
branch (Im wrapped to (-pi, pi]); sides 2 and 6 take whichever of the two
branches +/-arccosh makes all six cosine instances and the sine rule hold.
The relative sinh signs matter (the relations are blind only to flipping all
three even sinh's at once), so a side may be stored with negative real part.

Branch bookkeeping for real hexagons: a planar right-angled hexagon with
side lengths a_k enters these relations with every side shifted to
a_k + i*pi.  Feeding the three shifted odd sides returns the even sides in
the same shifted form; this was confirmed against an independent
hyperboloid-model construction (see the test suite) and is relied on by the
real-case tests.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .surface import normalize_complex_length

__all__ = ["DegenerateSide", "Hexagon", "solve_hexagon", "hexagon_residuals"]

_SINH_TOL = 1e-12


class DegenerateSide(Exception):
    """A sinh denominator vanished; the configuration is degenerate."""


class Hexagon:
    """Six complex side lengths, cyclically indexed; sides[k] is side k+1."""

    __slots__ = ("sides",)

    def __init__(self, sides):
        sides = tuple(complex(s) for s in sides)
        if len(sides) != 6:
            raise ValueError("a hexagon has six sides")
        self.sides = sides

    def __getitem__(self, index):
        return self.sides[index]

    def __repr__(self):
        return f"Hexagon({self.sides!r})"


def hexagon_residuals(hexagon):
    """(cosine_residual, sine_residual): worst violations of the two rules."""
    sides = np.asarray(hexagon.sides if isinstance(hexagon, Hexagon) else hexagon, dtype=complex)
    c = np.cosh(sides)
    s = np.sinh(sides)
    cosine = 0.0
    for n in range(6):
        lhs = c[n] * s[(n + 1) % 6] * s[(n - 1) % 6] + c[(n + 1) % 6] * c[(n - 1) % 6] - c[(n + 3) % 6]
        cosine = max(cosine, abs(lhs))
    ratios = (s[0] / s[3], s[2] / s[5], s[4] / s[1])
    sine = max(
        abs(ratios[0] - ratios[1]),
        abs(ratios[1] - ratios[2]),
        abs(ratios[0] - ratios[2]),
    )
    return cosine, sine


def _flip(side):
    return normalize_complex_length(-side)


def solve_hexagon(sigma1, sigma3, sigma5):
    """Unique right-angled hexagon with the given alternate sides.

    Raises DegenerateSide when a sinh of an input side vanishes.
    """
    s1, s3, s5 = complex(sigma1), complex(sigma3), complex(sigma5)
    h1, h3, h5 = cmath.sinh(s1), cmath.sinh(s3), cmath.sinh(s5)
    if min(abs(h1), abs(h3), abs(h5)) <= _SINH_TOL:
        raise DegenerateSide("sinh of an odd side vanishes")
    c1, c3, c5 = cmath.cosh(s1), cmath.cosh(s3), cmath.cosh(s5)

    cosh2 = (c5 - c3 * c1) / (h3 * h1)
    cosh4 = (c1 - c5 * c3) / (h5 * h3)
    cosh6 = (c3 - c1 * c5) / (h1 * h5)

    w2 = normalize_complex_length(complex(np.arccosh(cosh2)))
    w4 = normalize_complex_length(complex(np.arccosh(cosh4)))
    w6 = normalize_complex_length(complex(np.arccosh(cosh6)))

    best = None
    for side2 in (w2, _flip(w2)):
        for side6 in (w6, _flip(w6)):
            candidate = Hexagon((s1, side2, s3, w4, s5, side6))
            residual = max(hexagon_residuals(candidate))
            if best is None or residual < best[0]:
                best = (residual, candidate)
    residual, hexagon = best
    if residual > 1e-10 * max(1.0, max(abs(v) for v in (c1, c3, c5, cosh2, cosh4, cosh6))):
        raise DegenerateSide(f"no coherent branch assignment (residual {residual:.2e})")
    return hexagon
