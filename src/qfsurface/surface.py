"""Holonomy representations from complex Fenchel-Nielsen coordinates.

Given a pants decomposition graph and one (length, twist) pair of complex
numbers per decomposition curve, builds a representation of the standard
surface-group presentation into SL2(C) such that every decomposition curve
has complex length equal to its coordinate.

Assembly scheme: each pants is realized in the fixed normal form of
:mod:`qfsurface.pants` with half-lengths l/2 on its cuffs, then conjugated
into place walking a spanning tree of the graph.  Gluing across a curve
aligns the cuff frames of the two sides through

    F_parent @ twist(tau) @ (S @ F_child^(-1)),

where twist(tau) = diag(exp(tau/2), exp(-tau/2)) translates by tau along
the glued axis and S = [[0, 1], [-1, 0]] reverses the axis orientation, so
the two cuff holonomies are exact inverses.  S @ F_child^(-1) is formed as
a leaf, by swapping and negating entries, so each gluing costs two
products.  Its bits are those of ((F_parent @ twist(tau)) @ S) @
F_child^(-1): a product with S only swaps and negates, and (-x) y = x (-y)
holds exactly in the integers before each floor.  Edges outside the tree
get a stable-letter matrix built from the same frame data.  The root pants
sits in its own normal form, so its frame is the identity: its symbols are
its leaves, and no product with that frame is formed (the kernel would
return the other factor's bits unchanged).  All entries are
entire functions of the coordinates, so the same assembly run over jets
(see :func:`assemble`) gives their exact derivatives in every l and tau
direction, with no branch cut to cross.  Scalars appear only in the leaf
formulas (pants, frames, twists and frame inverses); every product above
them runs on the flat kernel of :mod:`matrix2`.

The zero-twist origin is the frame alignment itself; it is a convention,
and only twist differences are meaningful.

Complex lengths are read from traces.  A "complex length" is a plain
complex number, the real part a hyperbolic length and the imaginary part a
rotation angle, reduced modulo 2*pi*i to the strip Im in (-pi, pi].  The
projective sign of a trace is resolved by flipping it so that its real part
is nonnegative; half of the complex length is then the principal arccosh of
half the trace, taken as in Kahan's formula (see
:func:`displacement_from_trace`).
"""

from __future__ import annotations

import cmath
import functools
import math

from . import matrix2 as m2

from .pants import ReduciblePants, leaf_entries, validate_pants
from .presentation import UnknownGenerator
from .words import cyclic_reduce

__all__ = [
    "DegenerateFN",
    "BranchFailure",
    "NotLoxodromic",
    "UnknownGenerator",
    "FNCoordinates",
    "Representation",
    "holonomy",
    "assemble",
    "twist_flow",
    "complex_length_of_curve",
    "normalize_complex_length",
    "displacement_from_trace",
]

# Keep lengths away from the Im = +-pi seam, where the normalized complex
# length no longer recovers the input coordinate.
_IM_LENGTH_MARGIN = 1e-2
# A word with |tr^2 - 4| at or below it is parabolic or the identity.
_CLASSIFY_TOL = 1e-9
# Past it exp(-|Re tau| / 2), the small entry of a twist leaf, is below
# 2^-FRAC_BITS and floors to 0.
_TWIST_BOUND = 2 * m2.FRAC_BITS * math.log(2)


class DegenerateFN(Exception):
    """Coordinates outside the admissible region (pants degenerate)."""


class BranchFailure(Exception):
    """Length coordinate too close to the Im = +-pi seam."""


class NotLoxodromic(Exception):
    """Complex length requested for a parabolic word or the identity."""


def _coordinate(value):
    # working-precision values keep their bits, so a shift added at the
    # working precision reaches the assembly exactly
    if isinstance(value, m2.Fixed):
        return value
    value = complex(value)
    if not cmath.isfinite(value):
        raise DegenerateFN(f"coordinate {value} is not finite")
    return value


class FNCoordinates:
    """Complex length/twist pairs, ordered like graph.curve_labels.

    Entries are Python complex numbers, or working-precision scalars
    (:class:`matrix2.Fixed`) where a caller needs more than 53 bits (a shift
    smaller than complex128 resolves).
    """

    __slots__ = ("lengths", "twists")

    def __init__(self, lengths, twists):
        self.lengths = tuple(_coordinate(v) for v in lengths)
        self.twists = tuple(_coordinate(v) for v in twists)
        if len(self.lengths) != len(self.twists):
            raise ValueError("lengths and twists must have equal length")
        for l in self.lengths:
            if complex(l).real <= 0.0:
                raise DegenerateFN(f"length {l} has nonpositive real part")

    @classmethod
    def from_mapping(cls, graph, table):
        lengths, twists = [], []
        for label in graph.curve_labels:
            l, tau = table[label]
            lengths.append(l)
            twists.append(tau)
        return cls(lengths, twists)

    def __len__(self):
        return len(self.lengths)

    def shifted(self, index, kind, delta):
        """Coordinates with fn[kind][index] += delta; kind is 'l' or 'tau'."""
        lengths, twists = list(self.lengths), list(self.twists)
        if kind == "l":
            lengths[index] += delta
        elif kind == "tau":
            twists[index] += delta
        else:
            raise ValueError(f"unknown coordinate kind {kind!r}")
        return FNCoordinates(lengths, twists)


def twist_flow(fn, index, t):
    """Add t to the twist of the given curve index."""
    return fn.shifted(index, "tau", t)


class complex128_stage:
    """``with complex128_stage(stage):`` turns working-precision values past
    2^1024 (long curves or large twists) into DegenerateFN naming the stage."""

    __slots__ = ("stage",)

    def __init__(self, stage):
        self.stage = stage

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, _traceback):
        if kind is not None and issubclass(kind, OverflowError):
            raise DegenerateFN(f"{self.stage}: entries exceed complex128 "
                               f"(a length or twist is too large)") from exc
        return False


class Representation:
    """Images of the standard generators, evaluable on words.

    ``mp_images`` and ``mp_inverses`` hold the images and their inverses at
    the working precision, as flat matrices of the :mod:`matrix2` kernel
    (the ints (re, im) of a, b, c, d at 2^-FRAC_BITS).  Every check runs on
    them: holonomy entries grow like exp(length x tree depth), and the
    relator, curve-length, trace and cocycle computations cancel them back
    down to size one, which the absolute 2^-FRAC_BITS resolution keeps exact
    enough.  Every check reads a word through one chain, :meth:`prefixes`,
    and rounds its result to complex128 once, at the end; the one exit for a
    matrix is :meth:`matrix_of_word` (a generator g is the word ``(g,)``).

    :meth:`prefixes` keeps every prefix product it forms in a trie keyed by
    the letters, so words that share a prefix (the relator and the marking
    words, or a curve word and a longer one that starts with it) form its
    products once per representation.  A memoized prefix is the same left
    fold, with the same floors, as a fresh one, so the bits do not depend on
    the order in which words are read.  The memo, like :attr:`mp_inverses`,
    relies on ``mp_images`` never changing after construction: a changed
    image means a new Representation.
    """

    def __init__(self, presentation, mp_images):
        self.presentation = presentation
        self.mp_images = mp_images
        # letter -> (prefix image, subtrie of the words that continue it)
        self._prefix_trie = {}

    @functools.cached_property
    def mp_inverses(self):
        return {gen: m2.fadj(m) for gen, m in self.mp_images.items()}

    def generator_flat(self, letter):
        """Working-precision image of a single signed generator letter."""
        table = self.mp_images if letter > 0 else self.mp_inverses
        gen = abs(letter)
        if gen not in table:
            raise UnknownGenerator(f"generator id {gen}")
        return table[gen]

    def prefixes(self, word):
        """Working-precision images p_0 = 1, p_1, ..., p_m of the prefixes
        of a word y_1...y_m, as flat matrices: p_j = p_{j-1} rho(y_j).

        Only the products that no earlier word formed are formed here.
        """
        result, node = [m2.FEYE], self._prefix_trie
        for letter in word:
            entry = node.get(letter)
            if entry is None:
                entry = node[letter] = (
                    m2.fmul(result[-1], self.generator_flat(letter)), {})
            result.append(entry[0])
            node = entry[1]
        return result

    def flat_of_word(self, word):
        """Working-precision image of a word, as a flat matrix."""
        return self.prefixes(word)[-1]

    def matrix_of_word(self, word):
        """Image of a word, rounded once to a complex128 matrix."""
        with complex128_stage("matrix_of_word"):
            return m2.flat_to_complex(self.flat_of_word(word))

    def relator_residual(self):
        """Largest entry of rho(relator) - 1, at the working precision."""
        residual = m2.fsub(self.flat_of_word(self.presentation.relator), m2.FEYE)
        with complex128_stage("relator_residual"):
            return m2.fmax_abs(residual)

    def curve_word(self, label):
        try:
            return self.presentation.marking[label]
        except KeyError:
            raise UnknownGenerator(f"no decomposition curve {label!r}") from None


def holonomy(graph, fn):
    """Representation realizing the coordinates on the graph's curves.

    The images are the flat matrices of one value-only assembly: no jets.
    """
    presentation, images = assemble(graph, fn, False)
    return Representation(presentation, images)


def assemble(graph, fn, differentiate):
    """Presentation and generator images realizing the coordinates.

    Without ``differentiate`` the images are flat matrices of the
    :mod:`matrix2` kernel.  With it they are matrix jets (value, grads):
    every coordinate enters the leaf formulas as a :class:`matrix2.Jet`
    with unit derivative in its own direction (k < N is length k, N + k is
    twist k), and grads holds the exact derivative of the image in each of
    the 2N directions.  The kernel is picked once, here; the values are
    bit-identical either way.
    """
    n = len(fn)
    if n != graph.num_curves:
        raise DegenerateFN(
            f"{n} coordinate pairs for {graph.num_curves} curves"
        )
    for l in fn.lengths:
        if abs(complex(l).imag) >= math.pi - _IM_LENGTH_MARGIN:
            raise BranchFailure(
                f"Im(length) = {complex(l).imag} too close to the +-pi seam"
            )
    for label, tau in zip(graph.curve_labels, fn.twists):
        if abs(complex(tau).real) > _TWIST_BOUND:
            raise DegenerateFN(
                f"twist {complex(tau)} of {label!r}: |Re| past {_TWIST_BOUND:.1f}, "
                f"where exp(-|Re tau|/2) floors to 0 at 2^-{m2.FRAC_BITS}")
    plan = graph.plan()
    label_index = {label: k for k, label in enumerate(graph.curve_labels)}
    for cuffs in graph.pants_cuffs:
        try:
            validate_pants(tuple(complex(fn.lengths[k]) / 2 for k in cuffs))
        except (ReduciblePants, ValueError, OverflowError) as exc:
            raise DegenerateFN(str(exc)) from exc

    coordinates = []
    for kind, values in (("length", fn.lengths), ("twist", fn.twists)):
        for label, x in zip(graph.curve_labels, values):
            try:
                coordinates.append(m2.lift(x))
            except OverflowError:
                raise DegenerateFN(f"{kind} {x} of {label!r} exceeds the working "
                                   f"precision") from None
    if differentiate:
        unit = m2.lift(1)
        coordinates = [m2.Jet(x, {k: unit}) for k, x in enumerate(coordinates)]
        leaf = functools.partial(m2.flat_jet, directions=2 * n)
        mul, adj = m2.jet_mul, m2.jet_adj
    else:
        leaf, mul, adj = m2.flat, m2.fmul, m2.fadj
    lengths, twists = coordinates[:n], coordinates[n:]

    # exp(sigma / 2) of each curve's half-length sigma = l / 2, shared by the
    # two cuffs it glues; the pants formulas derive the rest by arithmetic,
    # once per distinct cuff triple (both pants of a standard genus-2 graph
    # have the same three cuffs)
    halves = [m2.exp(l / 4) for l in lengths]
    leaves = {}
    for cuffs in graph.pants_cuffs:
        if cuffs not in leaves:
            (c1, c2), cuff_frames = leaf_entries(tuple(halves[k] for k in cuffs))
            leaves[cuffs] = (leaf(c1), leaf(c2)), cuff_frames
    matrices, frames = zip(*(leaves[cuffs] for cuffs in graph.pants_cuffs))

    def gluing_map(label, from_end, to_end):
        # Frame determinants on both sides equal -2 sinh(length/2) of the
        # same curve, so this product has unit determinant by construction,
        # to the working precision; it is used as it is.  S is folded into
        # the inverse frame's leaf: S (a, b, c, d) = (c, d, -a, -b).
        tau = twists[label_index[label]]
        v, i = from_end
        w, j = to_end
        a, b, c, d = m2.inverse_entries(frames[w][j])
        return mul(mul(leaf(frames[v][i]), leaf(m2.twist_entries(tau))),
                   leaf((c, d, -a, -b)))

    # conj[v] places pants v; the root's is the identity and is left out,
    # so no product with it is formed
    conj = {}
    for label, parent_end, child_end in plan.tree_gluings:
        step = gluing_map(label, parent_end, child_end)
        parent = conj.get(parent_end[0])
        conj[child_end[0]] = step if parent is None else mul(parent, step)

    symbol_matrix = {}
    for v in range(graph.num_pants):
        a, b = matrices[v]
        if v in conj:
            m, minv = conj[v], adj(conj[v])
            a, b = mul(mul(m, a), minv), mul(mul(m, b), minv)
        symbol_matrix[graph.symbol_a(v)] = a
        symbol_matrix[graph.symbol_b(v)] = b

    for label, s_end, t_end, z_symbol in plan.nontree_gluings:
        v, w = s_end[0], t_end[0]
        forward = gluing_map(label, s_end, t_end)
        if v in conj:
            forward = mul(conj[v], forward)
        if w in conj:
            forward = mul(forward, adj(conj[w]))
        symbol_matrix[z_symbol] = adj(forward)

    def eval_symbols(word):
        # assembly words are never empty: each spells a generator
        factors = (symbol_matrix[x] if x > 0 else adj(symbol_matrix[-x]) for x in word)
        return functools.reduce(mul, factors)

    images = {
        gen: eval_symbols(word)
        for gen, word in plan.presentation.generator_assembly_words.items()
    }
    return plan.presentation, images


def normalize_complex_length(value):
    """Reduce a complex length modulo 2*pi*i so that Im lies in (-pi, pi]."""
    value = complex(value)
    im = math.remainder(value.imag, 2.0 * math.pi)
    if im <= -math.pi:
        im += 2.0 * math.pi
    return complex(value.real, im)


def _lift_trace(tr):
    """Resolve the PSL2 sign: flip so Re(tr) >= 0, tie-broken by Im."""
    if tr.real < 0.0 or (tr.real == 0.0 and tr.imag < 0.0):
        return -tr
    return tr


def displacement_from_trace(trace):
    """Solve 2 cosh(phi/2) = +-tr for the normalized representative.

    phi/2 is the principal arccosh of w = tr/2, taken from s = sqrt(w - 1)
    and t = sqrt(w + 1) as in Kahan's formula: Im(phi/2) is arg(w + s t),
    and Re(phi/2) is asinh(x), x = Re(conj(s) t) = sinh(Re(phi/2)), while
    x < 1, else log|w + s t|.  x adds two nonnegative products, so a small
    real part keeps its relative precision (a curve whose length is tiny
    next to its angle) and is exactly 0 on the elliptic segment |w| < 1;
    the logarithm reads large lengths back closer (``cmath.acosh``, which
    takes asinh(x) throughout, doubles the worst seeded-length error).
    """
    w = _lift_trace(complex(trace)) / 2.0
    s, t = cmath.sqrt(w - 1.0), cmath.sqrt(w + 1.0)
    half = cmath.log(w + s * t)
    x = s.real * t.real + s.imag * t.imag
    if x < 1.0:
        half = complex(math.asinh(x), half.imag)
    return normalize_complex_length(2.0 * half)


def complex_length_of_curve(rep, word):
    """Complex displacement of the word's holonomy, normalized.

    The length of a curve only depends on its free-homotopy class, so the
    word is cyclically reduced first.  The trace is taken at the working
    precision and rounded once, before the arccosh; the word is classified
    from it.
    """
    flat = rep.flat_of_word(cyclic_reduce(word))
    with complex128_stage("complex_length_of_curve"):
        trace = m2.ftrace(flat)
    if abs(trace * trace - 4.0) <= _CLASSIFY_TOL:
        raise NotLoxodromic("holonomy of the word is parabolic or the identity")
    return displacement_from_trace(trace)
