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
(:meth:`Representation.prefixes`).  Walk values are trace-free, so the walk
holds each as its triple (x1, x2, x3), the matrix [[x1, x2], [x3, -x1]].
Each letter gets one adjoint action, that of p_{k-1} on a generator and of
p_k on an inverse (:func:`matrix2.fadjoint`: a 3x3 matrix of exact products
of the prefix's entries), built once and shared by every cocycle over the
same representation.  Letter by letter the walk adds the step
Ad_rho(p_{k-1}) u(y_k), floored once per part, takes no step where the
value u(y_k) is zero, and records the running sum u(q_k) and the step.  On
triples the trace form is tr(SL) = 2 s1 l1 + s2 l3 + s3 l2, three entries
per letter, so pairing(u, v) is one dot product of u's sums with v's steps
over the letters v steps on, and a Gram matrix over n cocycles costs n
walks and 4g adjoint actions.  The final sum is u(word): the cocycle
residual u(r) and a Gram's worst residual are the same bits.  Walk values
grow like the squared norms of the prefix holonomies and cancel down to
size one, so they are the kernel's ints at 2^-FRAC_BITS, which the dot
product reads directly: it is exact, three Gaussian-integer dot products,
rounded once to complex128.

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
    to complex128.  Values are trace-free: a walk reads the entries a, b, c
    of each and takes d = -a.
    """

    def __init__(self, rep, table):
        self.rep = rep
        self.flat = table

    def evaluate_flat(self, word):
        """Crossed-homomorphism extension to a word (flat matrix): the
        closing sum of the word's walk."""
        return _flat_of_triple(_walk(self, word, _actions(self.rep, word))[2])


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
    rep = Representation(presentation, images)
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
    closing = u.evaluate_flat(u.rep.presentation.relator)
    with complex128_stage("cocycle_residual"):
        return m2.fmax_abs(closing)


def _actions(rep, word):
    """The adjoint action each letter y_j of a word is walked with: that of
    p_{j-1} on a generator, of p_j on an inverse, as p_{j-1} g^-1 = p_j."""
    prefixes = rep.prefixes(word)
    return [m2.fadjoint(prefixes[j] if letter > 0 else prefixes[j + 1])
            for j, letter in enumerate(word)]


def _walk(u, word, actions):
    """One walk of a word y_1...y_m for the cocycle u, with the letters'
    adjoint actions (:func:`_actions`).

    The step of y_j is Ad(p_{j-1}) u(g) on a generator g, and -Ad(p_j) u(g)
    on g^-1, each an sl2 triple; a letter whose value u(g) is zero takes no
    step.  Returns (sums, letters, closing), the first two laid out for
    :func:`_contract`: the running sums each letter pairs against, as
    (re, im, re + im) int lists over all 3m triple entries; the steps, as a
    mask of the entries of the letters that took one and the (re, im,
    re + im) lists of those entries, in the order (2 l1, l3, l2) that makes
    tr(SL) = 2 s1 l1 + s2 l3 + s3 l2 a dot product; and the final sum
    u(word), a triple.
    """
    values = {g: v for g, v in u.flat.items() if any(v[:6])}
    sums, letters, mask = [], [], []
    total = _ZERO_TRIPLE
    for letter, action in zip(word, actions):
        value = values.get(abs(letter))
        if value is None:
            sums += total
            mask += _SKIPPED
            continue
        step = m2.fadjoint_apply(action, value)
        if letter < 0:
            step = tuple(map(operator.neg, step))
        after = tuple(map(operator.add, total, step))
        # inverse letters pair against the post-letter sum; this is the
        # boundary correction making the evaluation chain a 2-cycle
        sums += total if letter > 0 else after
        total = after
        l1r, l1i, l2r, l2i, l3r, l3i = step
        letters += (2 * l1r, 2 * l1i, l3r, l3i, l2r, l2i)
        mask += _TAKEN
    return _split(sums), (mask, *_split(letters)), total


_ZERO_TRIPLE = (0,) * 6
_SKIPPED, _TAKEN = (False,) * 3, (True,) * 3


def _split(parts):
    """Interleaved (re, im) ints as the lists re, im and re + im."""
    re, im = parts[0::2], parts[1::2]
    return re, im, list(map(operator.add, re, im))


def _flat_of_triple(x):
    x1r, x1i, x2r, x2i, x3r, x3i = x
    return (x1r, x1i, x2r, x2i, x3r, x3i, -x1r, -x1i)


# the scale of a product of two fixed-point numbers
_PRODUCT_SCALE = 1 << (2 * m2.FRAC_BITS)


def _contract(sums, letters):
    """Pairing value from one cocycle's sums and another's letter values.

    Three Gaussian dot products over the letters that took a step: with
    A = sum(s.re l.re), B = sum(s.im l.im) and C = sum((s.re + s.im)(l.re +
    l.im)), the value is A - B + i(C - A - B), exact in integers and rounded
    once, to complex128.
    """
    (sr, si, ss), (mask, lr, li, ls) = sums, letters
    mul = operator.mul
    real = sum(map(mul, itertools.compress(sr, mask), lr))
    imag = sum(map(mul, itertools.compress(si, mask), li))
    cross = sum(map(mul, itertools.compress(ss, mask), ls))
    total = complex((real - imag) / _PRODUCT_SCALE, (cross - real - imag) / _PRODUCT_SCALE)
    return PAIRING_SIGN * COEFFICIENT_SCALE * total


def goldman_pairing(u, v):
    """Cup-product pairing of two cocycles over the same representation."""
    if u.rep is not v.rep:
        raise BaseMismatch("cocycles live over different representations")
    relator = u.rep.presentation.relator
    actions = _actions(u.rep, relator)
    sums, _letters, _closing = _walk(u, relator, actions)
    _sums, letters, _closing = _walk(v, relator, actions)
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
    actions = _actions(rep, relator)
    sums, letters, closings = zip(*(_walk(u, relator, actions) for u in cocycles))
    dim = len(cocycles)
    raw = [[0j] * dim for _row in range(dim)]
    with complex128_stage("cocycle_gram"):
        for a, b in itertools.permutations(range(dim), 2):
            raw[a][b] = _contract(sums[a], letters[b])
        residual = max(m2.fmax_abs(_flat_of_triple(closing)) for closing in closings)
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
