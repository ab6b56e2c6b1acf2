"""Flat 2x2 matrix helpers over mpmath scalars and their jets.

Matrices are (a, b, c, d) tuples.  Used by the holonomy assembly and the
cocycle pipeline, where intermediate products cancel catastrophically and
fixed precision is not enough.

An entry may also be a :class:`Jet`, an mpmath value carrying its first
derivatives along (forward-mode differentiation).  The helpers here and the
scalar functions ``exp``, ``cosh`` and ``sqrt`` accept both, so one
evaluation of an entire function gives its value and its exact derivatives
at the working precision.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

FEYE = (1, 0, 0, 1)
FZERO = (0, 0, 0, 0)
FS = (0, 1, -1, 0)


class Jet:
    """An mpmath value with a sparse gradient {direction: derivative}.

    Directions missing from ``grad`` have derivative zero.  A product with
    the constant 0 is the plain number 0 again, so the zeros of the normal
    forms carry no gradient.  The value is computed by the same operations,
    in the same order, as on plain numbers, so it is bit-identical to them.
    Gradients are shared between jets and never mutated.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value = value
        self.grad = grad

    def __neg__(self):
        return Jet(-self.value, {k: -g for k, g in self.grad.items()})

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.value + other, self.grad)
        grad = dict(self.grad)
        for k, g in other.grad.items():
            grad[k] = grad[k] + g if k in grad else g
        return Jet(self.value + other.value, grad)

    def __radd__(self, other):
        return Jet(other + self.value, self.grad)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if not other:
                return self.value * other
            return Jet(self.value * other, {k: g * other for k, g in self.grad.items()})
        a, b = self.value, other.value
        grad = {k: g * b for k, g in self.grad.items()}
        for k, g in other.grad.items():
            grad[k] = grad[k] + a * g if k in grad else a * g
        return Jet(a * b, grad)

    def __rmul__(self, other):
        if not other:
            return other * self.value
        return Jet(other * self.value, {k: other * g for k, g in self.grad.items()})

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.value / other, {k: g / other for k, g in self.grad.items()})
        q = self.value / other.value
        inv = 1 / other.value
        grad = {k: g * inv for k, g in self.grad.items()}
        for k, g in other.grad.items():
            grad[k] = grad[k] - q * g * inv if k in grad else -q * g * inv
        return Jet(q, grad)

    def __rtruediv__(self, other):
        q = other / self.value
        scale = -q / self.value
        return Jet(q, {k: scale * g for k, g in self.grad.items()})


def _chain(x, value, slope):
    """f(x) as a jet, given f(x.value) and f'(x.value)."""
    return Jet(value, {k: slope * g for k, g in x.grad.items()})


def exp(x):
    if not isinstance(x, Jet):
        return mp.exp(x)
    value = mp.exp(x.value)
    return _chain(x, value, value)


def cosh(x):
    if not isinstance(x, Jet):
        return mp.cosh(x)
    return _chain(x, mp.cosh(x.value), mp.sinh(x.value))


def sqrt(x):
    if not isinstance(x, Jet):
        return mp.sqrt(x)
    value = mp.sqrt(x.value)
    return _chain(x, value, 1 / (2 * value))


def value_of(x):
    """The value of a jet, or the plain number itself."""
    return x.value if isinstance(x, Jet) else x


def partial(x, direction):
    """The derivative of a jet in one direction; 0 for a plain number."""
    return x.grad.get(direction, 0) if isinstance(x, Jet) else 0


def fmul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def fadd(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def fscale(x, s):
    return (s * x[0], s * x[1], s * x[2], s * x[3])


def fdet(x):
    return x[0] * x[3] - x[1] * x[2]


def fadj(x):
    return (x[3], -x[1], -x[2], x[0])


def finv(x):
    d = fdet(x)
    return (x[3] / d, -x[1] / d, -x[2] / d, x[0] / d)


def frenorm(x):
    s = sqrt(fdet(x))
    return (x[0] / s, x[1] / s, x[2] / s, x[3] / s)


def ftrace(x):
    return x[0] + x[3]


def ftraceless(x):
    half = (x[0] + x[3]) / 2
    return (x[0] - half, x[1], x[2], x[3] - half)


def ftwist(tau):
    half = exp(tau / 2)
    return (half, 0, 0, 1 / half)


def fconj(p, x):
    """p x p^(-1) for unit-determinant p."""
    return fmul(fmul(p, x), fadj(p))


def longdouble_of(x):
    hi = float(x)
    lo = float(x - mp.mpf(hi))
    return np.longdouble(hi) + np.longdouble(lo)


def flat_to_clongdouble(flat):
    out = np.empty((2, 2), dtype=np.clongdouble)
    for k, z in enumerate(flat):
        z = mp.mpc(z)
        out[k // 2, k % 2] = np.clongdouble(longdouble_of(z.real)) \
            + np.clongdouble(1j) * np.clongdouble(longdouble_of(z.imag))
    return out


def flat_to_complex(flat):
    return np.array(
        [[complex(flat[0]), complex(flat[1])], [complex(flat[2]), complex(flat[3])]],
        dtype=complex,
    )


def flat_from_array(m):
    m = np.asarray(m)
    return (mp.mpc(complex(m[0, 0])), mp.mpc(complex(m[0, 1])),
            mp.mpc(complex(m[1, 0])), mp.mpc(complex(m[1, 1])))


def fmax_abs(flat):
    return max(abs(complex(v)) for v in flat)
