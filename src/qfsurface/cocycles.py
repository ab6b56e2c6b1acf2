"""Tangent cocycles, the trace-form cup-product pairing, and Gram matrices.

A tangent vector to the representation variety at rho is recorded as a
1-cocycle u: generators -> sl2(C), extended to words by the crossed
homomorphism rule u(gh) = u(g) + Ad_rho(g) u(h).  The cocycles of the
Fenchel-Nielsen coordinate directions come from one forward-mode holonomy
assembly: every coordinate enters the leaf formulas as a jet
(:class:`matrix2.Jet`) with unit derivative in its own direction, the
products above the leaves carry matrix jets, and every holonomy entry is an
entire function of the coordinates, so each generator image comes with its
exact derivatives in all 2N directions at the working precision.  The
cocycle of direction k on a generator x is d_k rho(x) rho(x)^(-1), projected
trace-free.  Cocycle values, like the images, are flat matrices of the
:mod:`matrix2` kernel: the ints of their entries at 2^-FRAC_BITS.

The symplectic pairing of two cocycles evaluates the cup product with the
trace form B(u, v) = tr(uv) on the fundamental class of the presentation
2-complex, realized by the relator-prefix chain: with relator r = y1...ym
and prefixes p_k,

    pairing(u, v) = sign * sum_k tr( u(q_k) Ad_rho(p_{k-1}) v(y_k) ),

where q_k = p_{k-1} when the letter y_k is a generator and q_k = p_k when
it is an inverse generator.  The inverse-letter convention is what makes
the underlying bar-resolution 2-chain an honest cycle for a relator in
which every generator appears once with each sign; with the prefix used
uniformly the pairing is well-defined only after antisymmetrization.

A cocycle meets a word in one walk over the word's prefix chain
(:meth:`Representation.prefixes`), shared by every cocycle over the same
representation.  Letter by letter the walk adds Ad_rho(p_{k-1}) u(y_k), one
conjugation on a generator or its inverse, and records the running sum
u(q_k) and that step, transposed so that each trace is a dot product of
flat entries.  pairing(u, v) is then one dot product of u's sums with v's
steps, so a Gram matrix over n cocycles costs n walks.  The final sum is
u(word): the cocycle residual u(r) and a Gram's worst residual are the same
bits.  Walk values grow like the squared norms of the prefix holonomies and
cancel down to size one, so the walk runs on the kernel's flat matrices,
whose int parts the dot product reads directly: it is exact, a sum of
Gaussian-integer products, rounded once to complex128.

Two frozen normalization constants relate the raw trace-form value to the
canonical symplectic form on the coordinate frame:

* ``PAIRING_SIGN``: orientation of the fundamental class relative to the
  relator-prefix chain, calibrated once by requiring that the length
  direction paired with its own twist direction be positive at a single
  Fuchsian reference point.
* ``COEFFICIENT_SCALE = 2``: with the bare trace form the coordinate frame
  pairs to half the canonical form, exactly and everywhere (the classical
  factor between the trace form and the intersection-dual normalization;
  confirmed here both numerically and against the trace-derivative model
  of the twist Hamiltonian).  The pairing includes this factor so that
  length/twist coordinates are Darboux on the nose; the bare trace-form
  value is the pairing divided by ``COEFFICIENT_SCALE``.

Both constants are global: they are fixed in source, identical for every
graph, every point, and every entry, so all structure in a Gram matrix
(zero blocks, identity blocks, antisymmetry) is a prediction, not a fit.
Goldman's product formula pins both without any calibration: with Pi the
inverse Gram, the bracket of the trace functions of a standard generator
pair (a, b) is (tr(ab) - tr a tr b / 2) / 2.
"""

from __future__ import annotations

import itertools
import math
import operator

from . import matrix2 as m2
# ``holonomy`` stays bound here for qfsbench, whose tracer wraps it in every
# module that binds it and whose tests look it up on this module
from .surface import Representation, assemble, complex128_stage, holonomy  # noqa: F401

__all__ = [
    "BaseMismatch",
    "PrecisionExhausted",
    "PAIRING_SIGN",
    "COEFFICIENT_SCALE",
    "TangentCocycle",
    "fd_basis_cocycles",
    "coboundary",
    "cocycle_residual",
    "cocycle_scale",
    "goldman_pairing",
    "SymplecticGram",
    "cocycle_gram",
    "symplectic_gram",
    "canonical_form",
    "darboux_residual",
]

# Orientation of the fundamental class relative to the relator-prefix
# chain; calibrated once at a Fuchsian reference point (see module docs).
PAIRING_SIGN = -1.0

# The bare trace form pairs the coordinate frame to half the canonical
# symplectic form; see module docs.  Reported, never fitted.
COEFFICIENT_SCALE = 2.0


class BaseMismatch(Exception):
    """Cocycles based at different representations cannot be paired."""


class PrecisionExhausted(Exception):
    """A stage's own health measure exceeds the tolerance of its result."""


class TangentCocycle:
    """Generator table of sl2(C) values over a base representation.

    ``flat`` maps each generator to its value, a flat working-precision
    matrix of the :mod:`matrix2` kernel; ``m2.flat_to_complex`` rounds one
    to complex128.
    """

    def __init__(self, rep, table):
        self.rep = rep
        self.flat = table

    def evaluate_flat(self, word):
        """Crossed-homomorphism extension to a word (flat matrix): the
        closing sum of the word's walk."""
        return _walk(self, word, self.rep.prefixes(word))[2]

    def scaled(self, factor):
        table = {g: m2.fscale(v, factor) for g, v in self.flat.items()}
        return TangentCocycle(self.rep, table)

    def plus(self, other):
        if other.rep is not self.rep:
            raise BaseMismatch("cocycles live over different representations")
        table = {g: m2.fadd(self.flat[g], other.flat[g]) for g in self.flat}
        return TangentCocycle(self.rep, table)


def fd_basis_cocycles(graph, fn):
    """The 2N coordinate cocycles (all length, then all twist directions).

    One jet assembly gives every generator image rho(x) with its exact
    derivatives; the cocycle of direction k is [d_k rho(x)] adj(rho(x)),
    projected trace-free.  The derivatives are exact, not finite
    differences: the name is kept from the finite-difference pipeline this
    replaced.
    """
    presentation, jets = assemble(graph, fn, True)
    images = {}
    tables = [{} for _direction in range(2 * len(fn))]
    for gen, (value, grads) in jets.items():
        images[gen] = value
        inverse = m2.fadj(value)
        for table, derivative in zip(tables, grads):
            table[gen] = (m2.FZERO if derivative is None
                          else m2.ftraceless(m2.fmul(derivative, inverse)))
    rep = Representation(graph, presentation, fn, images)
    return rep, [TangentCocycle(rep, table) for table in tables]


def coboundary(w, rep):
    """The principal cocycle x -> Ad_rho(x) w - w (an exact cocycle)."""
    flat_w = m2.flat_from_array(w)
    table = {}
    for gen, m in rep.mp_images.items():
        table[gen] = m2.fsub(m2.fconj(m, flat_w), flat_w)
    return TangentCocycle(rep, table)


def cocycle_residual(u):
    """max-norm of the cocycle evaluated on the relator."""
    return m2.fmax_abs(u.evaluate_flat(u.rep.presentation.relator))


def cocycle_scale(u):
    """Largest entry magnitude over the generator table (>= 1)."""
    return max(1.0, max(m2.fmax_abs(v) for v in u.flat.values()))


def _walk(u, word, prefixes):
    """One walk of a word y_1...y_m for the cocycle u, over its prefixes.

    The step of y_j is Ad(p_{j-1}) u(g) on a generator g, and -Ad(p_j) u(g)
    on g^-1, as p_{j-1} g^-1 = p_j.  Returns (sums, letters, closing): the
    running sums each letter pairs against and the steps, each as the
    (re, im) int lists of their 4m entries (steps transposed, so that tr(AB)
    is the dot product of A's entries with B's), and the final sum u(word).
    """
    sums, letters = [], []
    total = m2.FZERO
    for j, letter in enumerate(word):
        if letter > 0:
            step = m2.fconj(prefixes[j], u.flat[letter])
        else:
            step = m2.fneg(m2.fconj(prefixes[j + 1], u.flat[-letter]))
        after = m2.fadd(total, step)
        # inverse letters pair against the post-letter prefix; this is
        # the boundary correction making the evaluation chain a 2-cycle
        sums += total if letter > 0 else after
        letters += step[0:2] + step[4:6] + step[2:4] + step[6:8]
        total = after
    return (sums[0::2], sums[1::2]), (letters[0::2], letters[1::2]), total


# the scale of a product of two fixed-point numbers
_PRODUCT_SCALE = 1 << (2 * m2.FRAC_BITS)


def _contract(sums, letters):
    """Pairing value from one cocycle's sums and another's letter values.

    The dot product is exact in Gaussian integers and rounds once, to
    complex128.
    """
    (a, b), (c, d) = sums, letters
    mul = operator.mul
    re = sum(map(mul, a, c)) - sum(map(mul, b, d))
    im = sum(map(mul, a, d)) + sum(map(mul, b, c))
    total = complex(re / _PRODUCT_SCALE, im / _PRODUCT_SCALE)
    return PAIRING_SIGN * COEFFICIENT_SCALE * total


def goldman_pairing(u, v):
    """Cup-product pairing of two cocycles over the same representation."""
    if u.rep is not v.rep:
        raise BaseMismatch("cocycles live over different representations")
    relator = u.rep.presentation.relator
    prefixes = u.rep.prefixes(relator)
    sums, _letters, _closing = _walk(u, relator, prefixes)
    _sums, letters, _closing = _walk(v, relator, prefixes)
    with complex128_stage("goldman_pairing"):
        return _contract(sums, letters)


class SymplecticGram:
    """Pairing matrix over the FN coordinate frame (l_1..l_N, tau_1..tau_N).

    ``matrix`` is a list of rows of Python complex.  ``raw_asymmetry`` is
    the worst deviation of the raw pairings from antisymmetry, each
    deviation's modulus rounded as CPython's ``abs``, and
    ``cocycle_residual`` the worst basis cocycle residual.
    """

    def __init__(self, matrix, raw_asymmetry, cocycle_residual):
        self.matrix = matrix
        self.raw_asymmetry = raw_asymmetry
        self.cocycle_residual = cocycle_residual

    @property
    def size(self):
        return len(self.matrix)


def cocycle_gram(rep, cocycles):
    """Gram matrix of the pairing over cocycles based at rep.

    The returned matrix is antisymmetrized, (G - G^T)/2; the worst raw
    deviation from antisymmetry is reported separately.  Every raw entry
    comes from its own contraction, so that deviation is measured, never
    assumed away.
    """
    if any(u.rep is not rep for u in cocycles):
        raise BaseMismatch("cocycles live over different representations")
    relator = rep.presentation.relator
    prefixes = rep.prefixes(relator)
    sums, letters, closings = zip(*(_walk(u, relator, prefixes) for u in cocycles))
    dim = len(cocycles)
    raw = [[0j] * dim for _row in range(dim)]
    with complex128_stage("cocycle_gram"):
        for a, b in itertools.permutations(range(dim), 2):
            raw[a][b] = _contract(sums[a], letters[b])
        residual = max(m2.fmax_abs(closing) for closing in closings)
    pairs = [list(zip(row, column)) for row, column in zip(raw, zip(*raw))]
    asymmetry = max(abs(x + y) for row in pairs for x, y in row)
    # (G - G^T)/2 part by part: the bits of the complex128 array form, signed zeros included
    gram = [[complex((x.real - y.real) / 2.0, (x.imag - y.imag) / 2.0) for x, y in row]
            for row in pairs]
    return SymplecticGram(gram, asymmetry, residual)


def symplectic_gram(graph, fn):
    """Gram matrix of the pairing over the 2N coordinate directions."""
    return cocycle_gram(*fd_basis_cocycles(graph, fn))


def canonical_form(n):
    """The block matrix [[0, I_n], [-I_n, 0]]."""
    import numpy as np
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def darboux_residual(gram):
    """max-norm distance of the Gram matrix from the canonical form.

    A NaN entry gives NaN: ``max`` alone would drop it unless it came first.
    """
    n = gram.size // 2
    distances = [abs(entry - (1.0 if j == i + n else -1.0 if i == j + n else 0.0))
                 for i, row in enumerate(gram.matrix) for j, entry in enumerate(row)]
    return math.nan if any(map(math.isnan, distances)) else max(distances)
