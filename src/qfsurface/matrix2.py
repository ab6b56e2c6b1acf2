"""The working precision: a fixed-point complex scalar, its jets, and a
flat Gaussian-integer 2x2 kernel.

This is the one precision layer of the package: the holonomy assembly, the
cocycle pipeline and the relator, curve-length and word checks all compute
here, where intermediate products cancel catastrophically and complex128 is
not enough, and round to complex128 once, at the end (:func:`flat_entries`,
or :func:`flat_to_complex` for a numpy array).  numpy is imported only by
the two functions that build or read arrays, so a command that needs no
array starts without it.

Numbers are held as Python ints at the scale 2^-FRAC_BITS.  Sums are exact
and every product or quotient rounds once, so the error is absolute, the
same 2^-FRAC_BITS at every magnitude: the large holonomy entries of long
curves cost no digits below the binary point, where the cancellations they
feed end up.

There are two layers:

* The leaf formulas (the pants and frame entries of :mod:`qfsurface.pants`,
  :func:`twist_entries`, :func:`inverse_entries`) evaluate (a, b, c, d)
  tuples of scalars: :class:`Fixed`, a complex number as two ints, or
  :class:`Jet`, a scalar carrying its first derivatives along (forward-mode
  differentiation).  :func:`exp`, the one transcendental function, works
  on the integers directly, so the working precision needs nothing beyond
  the standard library.
* Everything built from the leaves is a flat matrix (:func:`flat`),
  multiplied, conjugated and summed by the kernel functions ``f*`` below,
  or a matrix jet, a flat value with its flat derivatives
  (:func:`flat_jet`, :func:`jet_mul`).  The kernel gives the results of
  the same formulas on Fixed entries bit for bit, without an object per
  scalar.  A trace-free value can also be conjugated as a triple, by an
  adjoint action built once per conjugating matrix (:func:`fadjoint`).
"""

from __future__ import annotations

import math
import operator

# Bits below the binary point.  Holonomy entries reach 2^36 at lengths 20
# and their cancellations lose about three times that many bits; 128 bits
# leave lengths 20 at 2e-10, 192 bits at 1e-29.
FRAC_BITS = 192
_ONE = 1 << FRAC_BITS
# Bits carried by exp beyond those its result needs: they absorb the
# floored Taylor terms and squarings, about 2^7 units at most (see exp).
_EXP_GUARD_BITS = 24


class Fixed:
    """A complex number re + i im, held as the ints (re, im) * 2^FRAC_BITS.

    ``+`` and ``-`` are exact; ``*`` and ``/`` do exact integer work and
    round once (toward minus infinity).  Python ints mix in exactly, floats
    and complex numbers are lifted first (see :func:`lift`); anything else
    must be lifted by the caller.
    """

    __slots__ = ("re", "im")
    # numpy scalars defer to the reflected operators instead of converting
    __array_ufunc__ = None

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __repr__(self):
        return f"Fixed({complex(self)!r})"

    def __complex__(self):
        return complex(self.re / _ONE, self.im / _ONE)

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __neg__(self):
        return Fixed(-self.re, -self.im)

    def __add__(self, other):
        if type(other) is not Fixed:
            if type(other) is int:
                return Fixed(self.re + (other << FRAC_BITS), self.im)
            other = _operand(other)
            if other is None:
                return NotImplemented
        return Fixed(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Fixed:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return Fixed(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return Fixed(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        if type(other) is not Fixed:
            if type(other) is int:
                return Fixed(self.re * other, self.im * other)
            other = _operand(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return Fixed((a * c - b * d) >> FRAC_BITS, (a * d + b * c) >> FRAC_BITS)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Fixed:
            if type(other) is int:
                return Fixed(self.re // other, self.im // other)
            other = _operand(other)
            if other is None:
                return NotImplemented
        return _divide(self.re, self.im, other)

    def __rtruediv__(self, other):
        if type(other) is int:
            return _divide(other << FRAC_BITS, 0, self)
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _divide(other.re, other.im, self)


def _divide(a, b, other):
    """(a + i b) 2^-FRAC_BITS / other, floored."""
    c, d = other.re, other.im
    norm = c * c + d * d
    return Fixed(((a * c + b * d) << FRAC_BITS) // norm,
                 ((b * c - a * d) << FRAC_BITS) // norm)


def _fixed_of_float(x):
    # exact when the double's last bit is at or above 2^-FRAC_BITS, that is
    # for magnitudes from 2^(52 - FRAC_BITS) up; finer bits are cut off
    return int(math.ldexp(x, FRAC_BITS))


def lift(x):
    """x as a Fixed.

    Exact for ints and for doubles of magnitude 2^(52 - FRAC_BITS) and up;
    finer bits are cut off.
    """
    if type(x) is Fixed:
        return x
    if isinstance(x, int):
        return Fixed(int(x) << FRAC_BITS, 0)
    z = complex(x)
    return Fixed(_fixed_of_float(z.real), _fixed_of_float(z.imag))


def _operand(x):
    """x as a Fixed for mixed arithmetic, or None where Fixed must defer."""
    if type(x) is Fixed:
        return x
    if isinstance(x, (int, float, complex)):
        return lift(x)
    return None


def _exp_bits(re):
    # |exp(z)| = e^Re(z) < 2^(1.5 floor(Re z) + 2) for Re z >= 0
    return (re >> FRAC_BITS) * 3 // 2 + 2


class Jet:
    """A scalar value with a sparse gradient {direction: derivative}.

    The four operations and :func:`exp`, the one transcendental function,
    carry the gradient along; the chain rule of anything else is built from
    those.  Directions missing from ``grad`` have derivative zero.  A
    product with the constant 0 is the plain number 0 again, so the zeros
    of the normal forms carry no gradient.  The value is computed by the
    same operations, in the same order, as on plain numbers, so it is
    bit-identical to them.  Gradients are shared between jets and never
    mutated.
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
    """e^x, floored to a Fixed: within 2 units of 2^-FRAC_BITS of e^x.

    Scaling and squaring on the integers: x / 2^s, with |x / 2^s| < 2^-8,
    is summed as a Taylor series and squared s times.  The work is carried
    at W = FRAC_BITS + (bits of |e^x| above 1) + s + _EXP_GUARD_BITS bits
    below the binary point.  Every term and square is floored once, and the
    series stops at the first term of at most 1 in each part (floored
    negative terms settle at -1, never at 0), so the sum is off by about
    2^7 units of 2^-W.  Each squaring at most doubles that error, relative
    to the value where it grows and absolutely where it shrinks, so the
    result is off by about 2^(7 - _EXP_GUARD_BITS) units of 2^-FRAC_BITS
    before the final floor.

    The Taylor terms are multiplied by x's significant bits only.  A lifted
    double fills about 53 of the FRAC_BITS bits below the binary point, so
    x's two parts share some 130 trailing zero bits: they are shifted out
    of x, and each product is shifted right by that much less.  A product
    with x = x' 2^z, floored at 2^shift, is the product with x' floored at
    2^(shift - z), bit for bit, so every term, the sum and its floors, and
    with them the error bound above, are unchanged.
    """
    if isinstance(x, Jet):
        value = exp(x.value)
        return _chain(x, value, value)
    x = lift(x)
    re, im = x.re, x.im
    s = max(0, max(abs(re), abs(im)).bit_length() - FRAC_BITS + 1) + 8
    bits = FRAC_BITS + max(0, _exp_bits(re)) + s + _EXP_GUARD_BITS
    # term k is term k-1 times x / 2^s / k; x / 2^s at scale 2^-bits is x
    # shifted left by bits - FRAC_BITS - s, so the product shifts right by
    # FRAC_BITS + s, less the zero bits taken off x
    shift = FRAC_BITS + s
    low = re | im
    if low:
        zeros = min((low & -low).bit_length() - 1, shift)
        re, im, shift = re >> zeros, im >> zeros, shift - zeros
    term_re = sum_re = 1 << bits
    term_im = sum_im = 0
    k = 1
    while True:
        term_re, term_im = (((term_re * re - term_im * im) >> shift) // k,
                            ((term_re * im + term_im * re) >> shift) // k)
        if abs(term_re) <= 1 and abs(term_im) <= 1:
            break
        sum_re += term_re
        sum_im += term_im
        k += 1
    for _ in range(s):
        sum_re, sum_im = (((sum_re + sum_im) * (sum_re - sum_im)) >> bits,
                          (sum_re * sum_im) >> (bits - 1))
    return Fixed(sum_re >> (bits - FRAC_BITS), sum_im >> (bits - FRAC_BITS))


def value_of(x):
    """The value of a jet, or the plain number itself."""
    return x.value if isinstance(x, Jet) else x


def partial(x, direction):
    """The derivative of a jet in one direction; 0 for a plain number."""
    return x.grad.get(direction, 0) if isinstance(x, Jet) else 0


def twist_entries(tau):
    """The twist diag(exp(tau/2), exp(-tau/2)) as a leaf (a, b, c, d)."""
    half = exp(tau / 2)
    return (half, 0, 0, 1 / half)


def inverse_entries(x):
    """The inverse of a leaf (a, b, c, d), divided by its determinant."""
    det = x[0] * x[3] - x[1] * x[2]
    return (x[3] / det, -x[1] / det, -x[2] / det, x[0] / det)


# -- the flat kernel ----------------------------------------------------
#
# A working-precision matrix is the flat tuple (ar, ai, br, bi, cr, ci, dr,
# di) of ints: the parts of a, b, c, d at the scale 2^-FRAC_BITS of Fixed.
# Every complex product is floored once, exactly as Fixed.__mul__ floors
# it, and sums are exact, so a kernel result is bit-identical to the same
# formula evaluated on Fixed entries.

def _parts(x):
    """A leaf entry (Fixed or int) as its (re, im) ints."""
    if type(x) is int:
        return x << FRAC_BITS, 0
    return x.re, x.im


def flat(entries):
    """A leaf (a, b, c, d) of Fixed or int entries as a flat matrix."""
    return (*_parts(entries[0]), *_parts(entries[1]),
            *_parts(entries[2]), *_parts(entries[3]))


FEYE = flat((1, 0, 0, 1))
FZERO = flat((0, 0, 0, 0))


def fmul(x, y):
    ar, ai, br, bi, cr, ci, dr, di = x
    er, ei, fr, fi, gr, gi, hr, hi = y
    return (
        ((ar * er - ai * ei) >> FRAC_BITS) + ((br * gr - bi * gi) >> FRAC_BITS),
        ((ar * ei + ai * er) >> FRAC_BITS) + ((br * gi + bi * gr) >> FRAC_BITS),
        ((ar * fr - ai * fi) >> FRAC_BITS) + ((br * hr - bi * hi) >> FRAC_BITS),
        ((ar * fi + ai * fr) >> FRAC_BITS) + ((br * hi + bi * hr) >> FRAC_BITS),
        ((cr * er - ci * ei) >> FRAC_BITS) + ((dr * gr - di * gi) >> FRAC_BITS),
        ((cr * ei + ci * er) >> FRAC_BITS) + ((dr * gi + di * gr) >> FRAC_BITS),
        ((cr * fr - ci * fi) >> FRAC_BITS) + ((dr * hr - di * hi) >> FRAC_BITS),
        ((cr * fi + ci * fr) >> FRAC_BITS) + ((dr * hi + di * hr) >> FRAC_BITS),
    )


def fadd(x, y):
    return tuple(map(operator.add, x, y))


def fsub(x, y):
    return tuple(map(operator.sub, x, y))


def fscale(x, s):
    """s x, for s anything :func:`lift` takes."""
    s = lift(s)
    return fmul(flat((s, 0, 0, s)), x)


def fadj(x):
    ar, ai, br, bi, cr, ci, dr, di = x
    return (dr, di, -br, -bi, -cr, -ci, ar, ai)


def fconj(p, x):
    """p x p^(-1) for unit-determinant p."""
    return fmul(fmul(p, x), fadj(p))


def ftraceless(x):
    ar, ai, br, bi, cr, ci, dr, di = x
    # half the trace, floored like Fixed / 2
    hr, hi = (ar + dr) // 2, (ai + di) // 2
    return (ar - hr, ai - hi, br, bi, cr, ci, dr - hr, di - hi)


def flat_entries(x):
    """The entries [a, b, c, d], each rounded once to complex128."""
    return [complex(x[k] / _ONE, x[k + 1] / _ONE) for k in range(0, 8, 2)]


def ftrace(x):
    """The trace, rounded once to complex128."""
    return complex((x[0] + x[6]) / _ONE, (x[1] + x[7]) / _ONE)


def flat_to_complex(x):
    import numpy as np
    return np.array(flat_entries(x)).reshape(2, 2)


def flat_from_array(m):
    import numpy as np
    return flat(tuple(lift(z) for z in np.asarray(m, dtype=complex).ravel()))


def fmax_abs(x):
    return max(map(abs, flat_entries(x)))


# -- the adjoint action on sl2 ------------------------------------------
#
# A trace-free matrix [[x1, x2], [x3, -x1]] is the triple (x1, x2, x3), held
# as the six ints (x1r, x1i, x2r, x2i, x3r, x3i) at 2^-FRAC_BITS: the first
# six parts of its flat matrix.  X -> p X adj(p) is linear on triples, so
# one 3x3 matrix serves every X conjugated by the same p.

def fadjoint(p):
    """The action X -> p X adj(p) on triples, as the 18 ints of its 3x3
    rows (re, im of each entry, row by row).

    Its entries are the ten products of p's entries taken pairwise, exact:
    unfloored, at the scale 2^-2 FRAC_BITS.  For a product p of
    unit-determinant factors it is Ad(p) up to the determinant's rounding.
    """
    ar, ai, br, bi, cr, ci, dr, di = p
    ac = (ar * cr - ai * ci, ar * ci + ai * cr)
    bd = (br * dr - bi * di, br * di + bi * dr)
    ab2 = (2 * (ar * br - ai * bi), 2 * (ar * bi + ai * br))
    cd2 = (2 * (cr * dr - ci * di), 2 * (cr * di + ci * dr))
    return (
        ar * dr - ai * di + br * cr - bi * ci, ar * di + ai * dr + br * ci + bi * cr,
        -ac[0], -ac[1], bd[0], bd[1],
        -ab2[0], -ab2[1], ar * ar - ai * ai, 2 * ar * ai, bi * bi - br * br, -2 * br * bi,
        cd2[0], cd2[1], ci * ci - cr * cr, -2 * cr * ci, dr * dr - di * di, 2 * dr * di,
    )


def fadjoint_apply(action, x):
    """The triple of p X adj(p), for the action of :func:`fadjoint` and the
    trace-free flat X (its d entry is not read).

    Each part is an exact sum of three complex products at 2^-3 FRAC_BITS,
    floored once to 2^-FRAC_BITS.
    """
    (m11r, m11i, m12r, m12i, m13r, m13i, m21r, m21i, m22r, m22i, m23r, m23i,
     m31r, m31i, m32r, m32i, m33r, m33i) = action
    x1r, x1i, x2r, x2i, x3r, x3i = x[:6]
    shift = 2 * FRAC_BITS
    return (
        (m11r * x1r - m11i * x1i + m12r * x2r - m12i * x2i + m13r * x3r - m13i * x3i) >> shift,
        (m11r * x1i + m11i * x1r + m12r * x2i + m12i * x2r + m13r * x3i + m13i * x3r) >> shift,
        (m21r * x1r - m21i * x1i + m22r * x2r - m22i * x2i + m23r * x3r - m23i * x3i) >> shift,
        (m21r * x1i + m21i * x1r + m22r * x2i + m22i * x2r + m23r * x3i + m23i * x3r) >> shift,
        (m31r * x1r - m31i * x1i + m32r * x2r - m32i * x2i + m33r * x3r - m33i * x3i) >> shift,
        (m31r * x1i + m31i * x1r + m32r * x2i + m32i * x2r + m33r * x3i + m33i * x3r) >> shift,
    )


# -- matrix jets --------------------------------------------------------
#
# A matrix jet is (value, grads): a flat matrix and one flat derivative per
# direction, None where that derivative is zero.  Its product follows
# d(VW) = dV W + V dW, entry by entry the floored products Jet.__mul__
# makes, so values and derivatives are bit-identical to a Jet evaluation.

def flat_jet(entries, directions):
    """A leaf (a, b, c, d) of Jet, Fixed or int entries as a matrix jet."""
    value = flat([value_of(x) for x in entries])
    grads = [None] * directions
    for i, x in enumerate(entries):
        if isinstance(x, Jet):
            for k, g in x.grad.items():
                if grads[k] is None:
                    grads[k] = [0] * 8
                grads[k][2 * i], grads[k][2 * i + 1] = _parts(g)
    return value, [g if g is None else tuple(g) for g in grads]


def jet_mul(x, y):
    v, dv = x
    w, dw = y
    grads = []
    for a, b in zip(dv, dw):
        if a is None:
            grads.append(None if b is None else fmul(v, b))
        elif b is None:
            grads.append(fmul(a, w))
        else:
            grads.append(fadd(fmul(a, w), fmul(v, b)))
    return fmul(v, w), grads


def jet_adj(x):
    v, dv = x
    return fadj(v), [d if d is None else fadj(d) for d in dv]
