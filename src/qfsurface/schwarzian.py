"""Numerical Schwarzian derivative and its transformation identities.

For a locally injective holomorphic f,

    Sf = f'''/f' - (3/2) (f''/f')^2,

vanishing exactly on Moebius maps and satisfying the chain-rule cocycle
S(g o f) = Sf + (Sg o f) * (f')^2, the chart form of pulling back a
quadratic differential.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CriticalPoint", "HolomorphicSample", "schwarzian_at", "cocycle_check",
           "selftest"]

_DERIV_TOL = 1e-10
SELFTEST_DRAWS = 50


class CriticalPoint(Exception):
    """f'(z0) vanishes; the Schwarzian is undefined there."""


class HolomorphicSample:
    """A holomorphic function on a disk, with optional exact derivatives.

    ``f`` is an evaluation callback.  When the first three derivative
    callbacks are supplied they are used directly; otherwise derivatives
    come from fourth-order central stencils with step 1e-3 * radius.
    """

    def __init__(self, f, df=None, d2f=None, d3f=None, radius=1.0):
        self.f = f
        self.df = df
        self.d2f = d2f
        self.d3f = d3f
        self.radius = float(radius)

    @property
    def has_exact_derivatives(self):
        return self.df is not None and self.d2f is not None and self.d3f is not None

    def _step(self):
        return 1e-3 * self.radius

    def derivatives(self, z0):
        """(f'(z0), f''(z0), f'''(z0)), exact when callbacks permit."""
        z0 = complex(z0)
        if self.has_exact_derivatives:
            return (
                complex(self.df(z0)),
                complex(self.d2f(z0)),
                complex(self.d3f(z0)),
            )
        h = self._step()
        f = self.f
        values = {k: complex(f(z0 + k * h)) for k in range(-3, 4)}
        d1 = (-values[2] + 8 * values[1] - 8 * values[-1] + values[-2]) / (12 * h)
        d2 = (-values[2] + 16 * values[1] - 30 * values[0]
              + 16 * values[-1] - values[-2]) / (12 * h * h)
        d3 = (-values[3] + 8 * values[2] - 13 * values[1]
              + 13 * values[-1] - 8 * values[-2] + values[-3]) / (8 * h ** 3)
        return d1, d2, d3


def _as_sample(f):
    if isinstance(f, HolomorphicSample):
        return f
    return HolomorphicSample(f)


def schwarzian_at(f, z0):
    """Sf(z0); raises CriticalPoint when f'(z0) is (numerically) zero."""
    sample = _as_sample(f)
    d1, d2, d3 = sample.derivatives(z0)
    if abs(d1) <= _DERIV_TOL:
        raise CriticalPoint(f"f'({z0}) = {d1}")
    ratio = d2 / d1
    return d3 / d1 - 1.5 * ratio * ratio


def cocycle_check(f, g, z0):
    """Residual of S(g o f) = Sf + (Sg o f) * (f')^2 at z0."""
    f = _as_sample(f)
    g = _as_sample(g)
    z0 = complex(z0)
    d1f = f.derivatives(z0)[0]
    if abs(d1f) <= _DERIV_TOL:
        raise CriticalPoint(f"f'({z0}) = {d1f}")
    composed = _compose_samples(g, f)
    lhs = schwarzian_at(composed, z0)
    rhs = schwarzian_at(f, z0) + schwarzian_at(g, f.f(z0)) * d1f * d1f
    return abs(lhs - rhs)


def _compose_samples(g, f):
    """g o f with exact derivatives chained when both sides have them."""
    if f.has_exact_derivatives and g.has_exact_derivatives:
        def df(z):
            return g.df(f.f(z)) * f.df(z)

        def d2f(z):
            u, du, d2u = f.f(z), f.df(z), f.d2f(z)
            return g.d2f(u) * du * du + g.df(u) * d2u

        def d3f(z):
            u, du, d2u, d3u = f.f(z), f.df(z), f.d2f(z), f.d3f(z)
            return (g.d3f(u) * du ** 3 + 3 * g.d2f(u) * du * d2u
                    + g.df(u) * d3u)

        return HolomorphicSample(lambda z: g.f(f.f(z)), df, d2f, d3f,
                                 radius=f.radius)
    return HolomorphicSample(lambda z: g.f(f.f(z)), radius=f.radius)


def moebius_sample(a, b, c, d):
    """The projective map z -> (az + b)/(cz + d) with exact derivatives."""
    det = a * d - b * c
    if abs(det) < 1e-14:
        raise ValueError("singular coefficient matrix")

    def f(z):
        return (a * z + b) / (c * z + d)

    def df(z):
        return det / (c * z + d) ** 2

    def d2f(z):
        return -2 * c * det / (c * z + d) ** 3

    def d3f(z):
        return 6 * c * c * det / (c * z + d) ** 4

    return HolomorphicSample(f, df, d2f, d3f)


def polynomial_sample(coeffs):
    """Polynomial sum(coeffs[k] z^k) with exact derivatives."""
    coeffs = [complex(c) for c in coeffs]

    def horner(cs, z):
        out = 0.0 + 0.0j
        for c in reversed(cs):
            out = out * z + c
        return out

    def deriv_coeffs(cs):
        return [k * cs[k] for k in range(1, len(cs))]

    d1 = deriv_coeffs(coeffs)
    d2 = deriv_coeffs(d1)
    d3 = deriv_coeffs(d2)
    return HolomorphicSample(
        lambda z: horner(coeffs, z),
        lambda z: horner(d1, z),
        lambda z: horner(d2, z),
        lambda z: horner(d3, z),
    )


def exp_sample(scale=1.0):
    """z -> exp(scale z) with exact derivatives."""
    scale = complex(scale)

    def make(k):
        return lambda z: scale ** k * np.exp(scale * z)

    return HolomorphicSample(make(0), make(1), make(2), make(3))


def selftest(rng):
    """(worst |Sf| of Moebius maps, worst cocycle_check residual of
    compositions), each over SELFTEST_DRAWS counted draws from the numpy
    RandomState rng; a draw near a pole or a critical point is redrawn.
    """
    worst_kernel = 0.0
    trials = 0
    while trials < SELFTEST_DRAWS:
        a, b, c, d = rng.randn(4) + 1j * rng.randn(4)
        if abs(a * d - b * c) <= 0.1:
            continue
        z0 = rng.randn() + 1j * rng.randn()
        if abs(c * z0 + d) < 0.2:
            continue
        worst_kernel = max(worst_kernel, abs(schwarzian_at(moebius_sample(a, b, c, d), z0)))
        trials += 1

    family = (polynomial_sample([0.2, 1.0, 0.1, 0.03]),
              polynomial_sample([0.0, 1.0, 0.0, 0.05]), exp_sample(0.7), exp_sample(1.0))
    worst_cocycle = 0.0
    pairs = 0
    while pairs < SELFTEST_DRAWS:
        f = family[rng.randint(len(family))]
        g = family[rng.randint(len(family))]
        z0 = 0.5 * (rng.randn() + 1j * rng.randn())
        try:
            residual = cocycle_check(f, g, z0)
        except CriticalPoint:
            continue
        worst_cocycle = max(worst_cocycle, residual)
        pairs += 1
    return worst_kernel, worst_cocycle
