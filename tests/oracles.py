"""Independent constructions used as test oracles.

The hexagon oracle builds a real right-angled hexagon explicitly in the
hyperboloid model of H^2 (Minkowski linear algebra plus one-dimensional
root finding) and measures its sides as distances between vertices.  It
shares no formulas with the solver under test.

The pairing oracle is the per-pair relator walk that the batched Gram
contraction replaced, kept verbatim as the reference it must reproduce.

The Fixed-tuple oracle is the assembly, jet basis and relator walk as they
ran before the flat kernel of ``matrix2``: every matrix an (a, b, c, d)
tuple of ``Fixed`` scalars, or of dict-gradient ``Jet`` scalars over them,
and every product dispatched scalar by scalar.  The kernel floors each
complex product as ``Fixed`` does, so it must reproduce the images, tables
and prefixes bit for bit.  The walk here conjugates each step by two
floored 2x2 products, where the production walk applies one exact adjoint
action and floors once, so the Gram is compared within the oracle's own
rounding.

The finite-difference oracle is the central-difference cocycle pipeline
that the forward-mode (jet) assembly replaced: two full holonomy builds per
coordinate direction, kept verbatim as an independent check of the exact
derivatives and of the FD convergence criteria.

The limit-set oracle is the per-word walk that the level-batched engine
replaced: one 2x2 product, one scalar fixed point and one grid-hash lookup
per word, and an f-string per CSV row, kept as the reference.  Its three
modulus tests compare squared moduli summed from squared parts, the same
IEEE operations the engine's kernel does, so the two agree on every tie.

The measures are what the tests read off a representation, a word or a
point cloud, and no command prints: the imaginary parts of the generating
traces (zero iff conjugate into SL2(R)), the Euler number of a real
representation, abelianized words, cross ratios of
cloud points (real iff the points lie on a circle), cloud membership, and
linear combinations of cocycles by table sums.

The geodesic references work on complex128 2x2 arrays: a projective point
is a homogeneous pair (z : w) scaled so that max(|z|, |w|) = 1, whose
rounding defines the bits of the limit-set oracle's fixed points; an
oriented geodesic is its repelling and attracting endpoint; and
``fixed_points`` (by an eigen-solve) and ``complex_distance`` (by the
closed cross-ratio form) are the reference a trace-only route to complex
distances must reproduce.  The half-turn construction that the closed form
replaced checks it in turn: the axis of the product of the two geodesics'
half-turns is their common perpendicular, found by an eigen-solve, and the
distance is read off the endpoints in that frame.
"""

import cmath
import functools
import itertools
import math
import operator

import numpy as np
from scipy.optimize import brentq

from qfsurface import matrix2 as m2
from qfsurface.cocycles import (
    COEFFICIENT_SCALE,
    PAIRING_SIGN,
    TangentCocycle,
    cocycle_gram,
)
from qfsurface.pants import leaf_entries
from qfsurface.surface import (
    _CLASSIFY_TOL,
    NotLoxodromic,
    Representation,
    holonomy,
    normalize_complex_length,
)
from qfsurface.words import reduced_words_up_to

G = np.diag([1.0, 1.0, -1.0])


def _mink(a, b):
    return a @ G @ b


def _timelike_unit_orthogonal(a, b):
    w = G @ np.cross(a, b)
    n2 = _mink(w, w)
    if n2 >= -1e-14:
        return None
    return w / math.sqrt(-n2)


def _chain_pole(n_prev, n_cur, length, turn):
    v = _timelike_unit_orthogonal(n_prev, n_cur)
    if v is None:
        return None
    return math.cosh(length) * n_prev + math.sinh(length) * turn * v


def _configuration_sides(a1, a3, a5, u, turns):
    t2, t3, t1 = turns
    n1 = np.array([1.0, 0.0, 0.0])
    n2 = np.array([0.0, 1.0, 0.0])
    n3 = _chain_pole(n1, n2, u, t2)
    if n3 is None:
        return None
    n4 = _chain_pole(n2, n3, a3, t3)
    if n4 is None:
        return None
    n6 = _chain_pole(n2, n1, a1, t1)
    if n6 is None:
        return None
    n5 = G @ np.cross(n4, n6)
    nn = _mink(n5, n5)
    if nn <= 1e-14:
        return None
    n5 = n5 / math.sqrt(nn)
    lines = [n1, n2, n3, n4, n5, n6]

    verts = []
    for k in range(6):
        v = _timelike_unit_orthogonal(lines[k], lines[(k + 1) % 6])
        if v is None:
            return None
        if v[2] < 0:
            v = -v
        verts.append(v)

    # Convexity: all non-incident vertices strictly on one side of each line.
    for k in range(6):
        signs = set()
        for j in range(6):
            if j in (k, (k - 1) % 6):
                continue
            s = _mink(verts[j], lines[k])
            if abs(s) < 1e-10:
                return None
            signs.add(math.copysign(1.0, s))
        if len(signs) != 1:
            return None

    sides = []
    for k in range(6):
        c = -_mink(verts[(k - 1) % 6], verts[k])
        if c < 1.0 - 1e-12:
            return None
        sides.append(math.acosh(max(c, 1.0)))
    return sides


def real_hexagon_even_sides(a1, a3, a5):
    """Even sides (s2, s4, s6) of the planar right-angled hexagon with the
    given alternate sides, from the explicit hyperboloid construction."""
    best = None
    for t2 in (1, -1):
        for t3 in (1, -1):
            for t1 in (1, -1):
                turns = (t2, t3, t1)

                def closing(u):
                    sides = _configuration_sides(a1, a3, a5, u, turns)
                    if sides is None:
                        return float("nan")
                    return sides[4] - a5

                grid = np.linspace(1e-3, 9.0, 400)
                values = [closing(u) for u in grid]
                for i in range(len(grid) - 1):
                    if math.isnan(values[i]) or math.isnan(values[i + 1]):
                        continue
                    if values[i] * values[i + 1] < 0:
                        u = brentq(closing, grid[i], grid[i + 1], xtol=1e-15)
                        sides = _configuration_sides(a1, a3, a5, u, turns)
                        if sides is None:
                            continue
                        err = (abs(sides[0] - a1) + abs(sides[2] - a3)
                               + abs(sides[4] - a5) + abs(sides[1] - u))
                        if err < 1e-9 and (best is None or err < best[0]):
                            best = (err, sides)
    if best is None:
        raise RuntimeError("hyperboloid construction found no closed hexagon")
    sides = best[1]
    return sides[1], sides[3], sides[5]


# -- the Fixed-tuple helpers, assembly and walk --------------------------

_ZERO = m2.Fixed(0, 0)
_UNIT = m2.lift(1)
FEYE = (_UNIT, _ZERO, _ZERO, _UNIT)
FZERO = (_ZERO, _ZERO, _ZERO, _ZERO)
FS = (_ZERO, _UNIT, -_UNIT, _ZERO)


def fixed_entries(flat):
    """A flat kernel matrix as an (a, b, c, d) tuple of Fixed."""
    return tuple(m2.Fixed(flat[k], flat[k + 1]) for k in range(0, 8, 2))


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


def partial(x, direction):
    """The derivative of a jet in one direction; 0 for a plain number."""
    return x.grad.get(direction, 0) if isinstance(x, m2.Jet) else 0


def flat_scale(x, s):
    """s x for a flat kernel matrix x, for s anything ``m2.lift`` takes."""
    s = m2.lift(s)
    return m2.fmul(m2.flat((s, 0, 0, s)), x)


def fdet(x):
    return x[0] * x[3] - x[1] * x[2]


def fadj(x):
    return (x[3], -x[1], -x[2], x[0])


def finv(x):
    d = fdet(x)
    return (x[3] / d, -x[1] / d, -x[2] / d, x[0] / d)


def ftrace(x):
    return x[0] + x[3]


def ftraceless(x):
    half = (x[0] + x[3]) / 2
    return (x[0] - half, x[1], x[2], x[3] - half)


def ftwist(tau):
    half = m2.exp(tau / 2)
    return (half, 0, 0, 1 / half)


def fconj(p, x):
    """p x p^(-1) for unit-determinant p."""
    return fmul(fmul(p, x), fadj(p))


def fmax_abs(flat):
    return max(abs(complex(v)) for v in flat)


def pants_entries(halves):
    """Boundary matrices (C1, C2, C3) as flat tuples, C3 = (C1 C2)^(-1)."""
    (c1, c2), frames = leaf_entries(halves)
    zeta = c2[1]
    # the second entry of F3 is t1 zeta - t2
    return c1, c2, (zeta, -frames[2][1], 0, 1 / zeta)


def frame_entries(halves):
    """Cuff frames (F1, F2, F3) as flat tuples."""
    return leaf_entries(halves)[1]


def rounded(entries, sigmas):
    """The matrices of an entry formula at h_k = exp(sigma_k / 2), evaluated
    at the working precision and rounded once to complex128 2x2 arrays."""
    halves = tuple(m2.exp(m2.lift(s) / 2) for s in sigmas)
    return [m2.flat_to_complex(m2.flat(m)) for m in entries(halves)]


def fixed_assemble(graph, fn, lift):
    """Presentation and generator images as tuples of lift's scalars."""
    n = len(fn)
    plan = graph.plan()
    label_index = {label: k for k, label in enumerate(graph.curve_labels)}
    lengths = [lift(l, k) for k, l in enumerate(fn.lengths)]
    twists = [lift(tau, n + k) for k, tau in enumerate(fn.twists)]
    halves = [m2.exp(l / 4) for l in lengths]
    matrices = {}
    frames = {}
    for v, cuffs in enumerate(graph.pants_cuffs):
        cuff_halves = tuple(halves[k] for k in cuffs)
        matrices[v] = pants_entries(cuff_halves)
        frames[v] = frame_entries(cuff_halves)

    def gluing_map(label, from_end, to_end):
        tau = twists[label_index[label]]
        v, i = from_end
        w, j = to_end
        return fmul(fmul(fmul(frames[v][i], ftwist(tau)), FS), finv(frames[w][j]))

    conj = {plan.root: FEYE}
    for label, parent_end, child_end in plan.tree_gluings:
        conj[child_end[0]] = fmul(
            conj[parent_end[0]], gluing_map(label, parent_end, child_end)
        )

    symbol_matrix = {}
    for v in range(graph.num_pants):
        m = conj[v]
        minv = fadj(m)
        symbol_matrix[graph.symbol_a(v)] = fmul(fmul(m, matrices[v][0]), minv)
        symbol_matrix[graph.symbol_b(v)] = fmul(fmul(m, matrices[v][1]), minv)

    for label, s_end, t_end, z_symbol in plan.nontree_gluings:
        v, w = s_end[0], t_end[0]
        forward = fmul(fmul(conj[v], gluing_map(label, s_end, t_end)), fadj(conj[w]))
        symbol_matrix[z_symbol] = fadj(forward)

    def eval_symbols(word):
        factors = (symbol_matrix[x] if x > 0 else fadj(symbol_matrix[-x]) for x in word)
        return functools.reduce(fmul, factors, FEYE)

    images = {
        gen: eval_symbols(word)
        for gen, word in plan.presentation.generator_assembly_words.items()
    }
    return plan.presentation, images


def fixed_holonomy(graph, fn):
    """Generator images as tuples of Fixed."""
    return fixed_assemble(graph, fn, lambda value, _direction: m2.lift(value))[1]


def fixed_basis(graph, fn):
    """Images and the 2N coordinate cocycle tables from one dict-Jet assembly."""
    unit = m2.lift(1)
    _presentation, jets = fixed_assemble(
        graph, fn, lambda value, direction: m2.Jet(m2.lift(value), {direction: unit}))
    images = {}
    tables = [{} for _direction in range(2 * len(fn))]
    for gen, m in jets.items():
        images[gen] = tuple(m2.value_of(x) for x in m)
        inverse = fadj(images[gen])
        for direction, table in enumerate(tables):
            derivative = tuple(partial(x, direction) for x in m)
            table[gen] = (ftraceless(fmul(derivative, inverse))
                          if any(derivative) else FZERO)
    return images, tables


def fixed_relator_prefixes(relator, images):
    prefixes = [FEYE]
    for letter in relator:
        image = images[letter] if letter > 0 else fadj(images[-letter])
        prefixes.append(fmul(prefixes[-1], image))
    return prefixes


def _parts(entries):
    return [x.re for x in entries], [x.im for x in entries]


def fixed_relator_walk(relator, table, prefixes):
    """(sums, letters, closing) of one cocycle's walk, as (re, im) int lists."""
    sums, letters = [], []
    total = FZERO
    for j, letter in enumerate(relator):
        if letter > 0:
            step = fconj(prefixes[j], table[letter])
        else:
            step = fscale(fconj(prefixes[j + 1], table[-letter]), -1)
        after = fadd(total, step)
        sums.extend(total if letter > 0 else after)
        letters.extend((step[0], step[2], step[1], step[3]))
        total = after
    return _parts(sums), _parts(letters), total


def fixed_cocycle_gram(relator, tables, prefixes):
    """(antisymmetrized matrix, raw asymmetry, worst cocycle residual)."""
    sums, letters, closings = zip(
        *(fixed_relator_walk(relator, table, prefixes) for table in tables))
    scale = 1 << (2 * m2.FRAC_BITS)
    dim = len(tables)
    raw = np.zeros((dim, dim), dtype=complex)
    for a, b in itertools.permutations(range(dim), 2):
        (p, q), (r, s) = sums[a], letters[b]
        re = sum(map(operator.mul, p, r)) - sum(map(operator.mul, q, s))
        im = sum(map(operator.mul, p, s)) + sum(map(operator.mul, q, r))
        raw[a, b] = PAIRING_SIGN * COEFFICIENT_SCALE * complex(re / scale, im / scale)
    residual = max(fmax_abs(closing) for closing in closings)
    # the moduli rounded as CPython's abs, as cocycle_gram takes them
    rows = raw.tolist()
    asymmetry = max(abs(rows[a][b] + rows[b][a]) for a in range(dim) for b in range(dim))
    return (raw - raw.T) / 2.0, asymmetry, residual


def _letter_value(u, letter):
    """u on one signed letter, by the rule u(g^-1) = -Ad(g^-1) u(g)."""
    if letter > 0:
        return fixed_entries(u.flat[letter])
    inverse = fixed_entries(u.rep.generator_flat(letter))
    return fscale(fconj(inverse, fixed_entries(u.flat[-letter])), -1)


def pairing_by_prefix_walk(u, v):
    """Goldman pairing of two cocycles by one relator walk per pair.

    The pre-batching reference: both cocycles are conjugated by the prefixes
    again and the traces are summed letter by letter at the working
    precision.
    """
    rep = u.rep
    total = m2.lift(0)
    u_prefix = FZERO
    prefix = FEYE
    for letter in rep.presentation.relator:
        v_letter = fconj(prefix, _letter_value(v, letter))
        u_step = fconj(prefix, _letter_value(u, letter))
        u_next = fadd(u_prefix, u_step)
        # inverse letters pair against the post-letter prefix; this is
        # the boundary correction making the evaluation chain a 2-cycle
        u_used = u_prefix if letter > 0 else u_next
        total += ftrace(fmul(u_used, v_letter))
        u_prefix = u_next
        prefix = fmul(prefix, fixed_entries(rep.generator_flat(letter)))
    return complex(PAIRING_SIGN * COEFFICIENT_SCALE * complex(total))


def cocycle_scale(u):
    """Largest entry magnitude over the generator table (>= 1)."""
    return max(1.0, max(m2.fmax_abs(v) for v in u.flat.values()))


def linear_combination(terms):
    """The cocycle sum of s u over (s, u) pairs of cocycles over one
    representation, by sums of their scaled tables."""
    rep = terms[0][1].rep
    table = {g: functools.reduce(m2.fadd, (flat_scale(u.flat[g], s) for s, u in terms))
             for g in rep.mp_images}
    return TangentCocycle(rep, table)


# Central-difference step.  Its truncation error goes like h^2, its roundoff
# like eps * M / h, with eps = 2^-FRAC_BITS the absolute resolution of the
# working scalar and M the growth of the entries along the assembly.  At
# 1e-10 both sit below complex128 resolution across the bundled configs.
STEP = 1e-10


def fd_tangent_cocycle(graph, fn, kind, index, h=STEP, base=None):
    """Finite-difference cocycle for the coordinate direction (kind, index).

    kind is 'l' or 'tau'.  The value on a generator x is the central
    difference of rho(x) against the coordinate, right-translated back to
    the identity,

        [d rho(x)] rho(x)^(-1),

    projected trace-free.  The holonomy entries are entire in the
    coordinates, so no stencil ever straddles a branch cut.
    """
    rep = base if base is not None else holonomy(graph, fn)
    # fn[k] +- h is formed at the working precision, so the two stencil
    # points are exactly 2h apart
    step = m2.lift(h)
    plus = holonomy(graph, fn.shifted(index, kind, step))
    minus = holonomy(graph, fn.shifted(index, kind, -step))
    inv_step = 1 / (2 * step)
    table = {}
    for gen, m0 in rep.mp_images.items():
        diff = m2.fsub(plus.mp_images[gen], minus.mp_images[gen])
        derivative = flat_scale(diff, inv_step)
        table[gen] = m2.ftraceless(m2.fmul(derivative, m2.fadj(m0)))
    return TangentCocycle(rep, table)


def fd_basis_cocycles(graph, fn, h=STEP, base=None):
    """The 2N coordinate cocycles (all length, then all twist directions)."""
    rep = base if base is not None else holonomy(graph, fn)
    cocycles = [
        fd_tangent_cocycle(graph, fn, kind, index, h, base=rep)
        for kind in ("l", "tau")
        for index in range(len(fn))
    ]
    return rep, cocycles


def fd_symplectic_gram(graph, fn, h=STEP):
    """The production Gram contraction over the finite-difference cocycles."""
    return cocycle_gram(*fd_basis_cocycles(graph, fn, h))


_DEDUP_TOL = 1e-10
_TRACE_TOL = 1e-9


def _sphere_vector(point):
    """Chordal embedding of the projective line as the unit sphere."""
    z, w = point.z, point.w
    norm = abs(z) ** 2 + abs(w) ** 2
    cross = z * w.conjugate()
    return (
        2.0 * cross.real / norm,
        2.0 * cross.imag / norm,
        (abs(z) ** 2 - abs(w) ** 2) / norm,
    )


class _SphereHash:
    """Grid hash on the unit sphere for near-duplicate detection.

    The chordal distance between projective points equals half the
    Euclidean distance between their sphere vectors, so a tolerance ball
    maps to a bounded set of grid cells.
    """

    def __init__(self, tol):
        self.tol = tol
        self.cell = 4.0 * tol
        self.buckets = {}

    def _key(self, vec):
        return tuple(int(math.floor(x / self.cell)) for x in vec)

    def _near(self, vec, tol):
        kx, ky, kz = self._key(vec)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for other in self.buckets.get((kx + dx, ky + dy, kz + dz), ()):
                        dist = math.sqrt(
                            (vec[0] - other[0]) ** 2
                            + (vec[1] - other[1]) ** 2
                            + (vec[2] - other[2]) ** 2
                        )
                        if dist <= 2.0 * tol:
                            return True
        return False

    def add_if_new(self, point):
        vec = _sphere_vector(point)
        if self._near(vec, self.tol):
            return False
        self.buckets.setdefault(self._key(vec), []).append(vec)
        return True


def _squared(z):
    """|z|^2 summed from the squared parts, as the limit-set kernel sums it."""
    return z.real * z.real + z.imag * z.imag


def attracting_eigenvalue(tr):
    """The eigenvalue of modulus at least 1 of an SL2 matrix with trace tr:
    the sign of Re(conj(tr) disc) picks the root of larger modulus, with no
    cancelled sum."""
    disc = cmath.sqrt(tr * tr - 4.0)
    if tr.real * disc.real + tr.imag * disc.imag < 0.0:
        return (tr - disc) / 2.0
    return (tr + disc) / 2.0


def attracting_fixed_point(matrix):
    """Attracting fixed point of a loxodromic SL2 matrix, or None."""
    a, b = matrix[0, 0], matrix[0, 1]
    c, d = matrix[1, 0], matrix[1, 1]
    tr = a + d
    # skip identity-like and parabolic/elliptic-like words quickly
    if abs(tr.imag) <= _TRACE_TOL and abs(tr.real) <= 2.0 + _TRACE_TOL:
        return None
    lam = attracting_eigenvalue(tr)
    # c is rounding noise below 1e-14 of the largest entry
    if _squared(c) > 1e-28 * max(_squared(a), _squared(b), _squared(c), _squared(d)):
        return ProjectivePoint(lam - d, c)
    # c = 0: fixed points are infinity (eigenvalue a) and b/(d - a)
    if _squared(lam - a) <= _squared(lam - d):
        return ProjectivePoint.infinity()
    return ProjectivePoint(b, d - a)


def limit_set_by_word_walk(rep, depth):
    """(ProjectivePoint, word_length) pairs of the per-word walk, in word order.

    Every word's product is its prefix's product times one generator, and a
    point is kept iff the grid hash holds no earlier kept point within
    chordal distance _DEDUP_TOL.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    num_gens = rep.presentation.num_generators
    gen_matrices = {}
    for g in range(1, num_gens + 1):
        matrix = rep.matrix_of_word((g,))
        gen_matrices[g] = matrix
        gen_matrices[-g] = np.array(
            [[matrix[1, 1], -matrix[0, 1]], [-matrix[1, 0], matrix[0, 0]]]
        )

    matrices = {(): np.eye(2, dtype=complex)}
    points = []
    index = _SphereHash(_DEDUP_TOL)
    for word in reduced_words_up_to(num_gens, depth):
        prefix = word[:-1]
        matrix = matrices[prefix] @ gen_matrices[word[-1]]
        if len(word) < depth:
            matrices[word] = matrix
        point = attracting_fixed_point(matrix)
        if point is None:
            continue
        if index.add_if_new(point):
            points.append((point, len(word)))
    return points


def csv_by_word_walk(finite_points):
    """CSV with columns re,im,word_length from (complex, word_length) pairs,
    one f-string per row."""
    lines = ["re,im,word_length"]
    for z, length in finite_points:
        lines.append(f"{z.real:.17g},{z.imag:.17g},{length}")
    return "\n".join(lines) + "\n"


# -- measures of representations, words and clouds ------------------------

def fuchsian_residual(rep):
    """Largest |Im tr rho(w)| over w = g_i, g_i g_j and g_i g_j g_k (i < j < k).

    These traces generate every trace of a 2x2 representation as integer
    polynomials (Procesi 1976; Horowitz 1972), so all traces are real iff
    they are.  An irreducible representation with real traces is conjugate
    into SL2(R) exactly when it has a hyperbolic element (|tr| > 2), and into
    SU(2) otherwise.  The holonomies built here meet both conditions (their
    pants have loxodromic cuffs with distinct axes), so zero means conjugate
    into SL2(R).  The number is a trace deviation, not an entry deviation in
    a normal frame; each trace is taken at the working precision and rounded
    once.
    """
    generators = sorted(rep.mp_images)
    words = [word for size in (1, 2, 3)
             for word in itertools.combinations(generators, size)]
    return max(abs(m2.ftrace(rep.flat_of_word(word)).imag) for word in words)


def euler_number(rep, base_angles=(0.1, 1.3, 2.9)):
    """Euler number of a real representation, once from each base angle.

    A matrix A of positive trace turns the direction v = (cos t, sin t) by
    atan2(v x Av, v . Av), which never reaches +-pi (Av = -cv would need a
    negative eigenvalue), so t -> t + that angle is a continuous lift of A's
    action on the circle of directions, the lift of least displacement.
    Each generator image is taken with the sign that makes its trace
    positive and its inverse as the adjugate, so the lifts folded along the
    relator, last letter first, lift the identity: they translate every t
    by the same multiple of pi, and that multiple is the Euler number
    (Milnor 1958, Wood 1971).
    """
    images = {}
    for gen in rep.mp_images:
        matrix = rep.matrix_of_word((gen,))
        if matrix.imag.any():
            raise ValueError(f"generator {gen} has a non-real image")
        a = matrix.real if np.trace(matrix.real) > 0 else -matrix.real
        images[gen] = a
        images[-gen] = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
    turns = []
    for start in base_angles:
        angle = start
        for letter in reversed(rep.presentation.relator):
            v = np.array([math.cos(angle), math.sin(angle)])
            w = images[letter] @ v
            angle += math.atan2(v[0] * w[1] - v[1] * w[0], v @ w)
        turns.append((angle - start) / math.pi)
    return turns


def exponent_sums(word, num_generators):
    """Image in the abelianization Z^num_generators."""
    sums = [0] * num_generators
    for letter in word:
        sums[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(sums)


def cross_ratio_imag_spread(cloud, trials, rng):
    """Largest |Im| of the cross ratio over random 4-tuples of cloud points.

    Zero (to numerics) iff the sampled points lie on a circle in the
    projective line, the Fuchsian signature.
    """
    if len(cloud.z) < 4:
        raise ValueError("need at least four points")
    idx = np.array([rng.choice(len(cloud.z), size=4, replace=False)
                    for _ in range(trials)]).reshape(trials, 4)
    z, w = cloud.z[idx], cloud.w[idx]

    def det(i, j):
        return z[:, i] * w[:, j] - z[:, j] * w[:, i]

    num = det(0, 2) * det(1, 3)
    den = det(0, 3) * det(1, 2)
    usable = np.abs(den) >= 1e-30
    return float(np.max(np.abs((num[usable] / den[usable]).imag), initial=0.0))


def cloud_contains(cloud, point, tol=1e-8):
    """Membership of a point (z : w), given as an object with complex
    attributes z and w, in a limit-set cloud up to chordal distance tol."""
    gap = cloud.vectors - np.array(_sphere_vector(point))
    return bool(np.sqrt(np.min(np.sum(gap * gap, axis=1), initial=np.inf)) <= 2.0 * tol)


# -- projective points, oriented geodesics, conjugation --------------------

_POINT_TOL = 1e-12


class SharedEndpoint(Exception):
    """Two geodesics share an ideal endpoint; their distance degenerates."""


class ProjectivePoint:
    """Point of the complex projective line as a homogeneous pair (z : w)."""

    __slots__ = ("z", "w")

    def __init__(self, z, w=1.0):
        z = complex(z)
        w = complex(w)
        scale = max(abs(z), abs(w))
        if scale == 0.0:
            raise ValueError("(0 : 0) is not a projective point")
        self.z = z / scale
        self.w = w / scale

    @classmethod
    def infinity(cls):
        return cls(1.0, 0.0)

    @property
    def is_infinity(self):
        return abs(self.w) <= _POINT_TOL

    def as_complex(self):
        """Affine coordinate z/w; raises for the point at infinity."""
        if self.is_infinity:
            raise ZeroDivisionError("point at infinity has no affine coordinate")
        return self.z / self.w

    def chordal_distance(self, other):
        """Fubini-Study chordal distance; zero iff projectively equal."""
        num = abs(self.z * other.w - other.z * self.w)
        den = math.hypot(abs(self.z), abs(self.w)) * math.hypot(abs(other.z), abs(other.w))
        return num / den

    def close_to(self, other, tol=1e-10):
        return self.chordal_distance(other) <= tol

    def __repr__(self):
        return f"ProjectivePoint({self.z!r}, {self.w!r})"


class OrientedGeodesic:
    """Geodesic of H^3 oriented from its repelling to its attracting endpoint."""

    __slots__ = ("repelling", "attracting")

    def __init__(self, repelling, attracting):
        if not isinstance(repelling, ProjectivePoint):
            repelling = ProjectivePoint(repelling)
        if not isinstance(attracting, ProjectivePoint):
            attracting = ProjectivePoint(attracting)
        if repelling.chordal_distance(attracting) <= _POINT_TOL:
            raise ValueError("endpoints coincide")
        self.repelling = repelling
        self.attracting = attracting

    def reversed(self):
        return OrientedGeodesic(self.attracting, self.repelling)

    def __repr__(self):
        return f"OrientedGeodesic({self.repelling!r}, {self.attracting!r})"


def fixed_points(matrix):
    """Oriented axis of a loxodromic 2x2 matrix, repelling then attracting point."""
    tr = complex(matrix[0, 0] + matrix[1, 1])
    if abs(tr * tr - 4.0) <= _CLASSIFY_TOL or (abs(tr.imag) <= _CLASSIFY_TOL
                                              and abs(tr.real) < 2.0):
        raise NotLoxodromic("fixed points ordered by attraction need a loxodromic map")
    eigvals, eigvecs = np.linalg.eig(matrix)
    order = np.argsort(np.abs(eigvals))
    return OrientedGeodesic(ProjectivePoint(*eigvecs[:, order[0]]),
                            ProjectivePoint(*eigvecs[:, order[1]]))


def complex_distance(g1, g2):
    """Complex distance between two oriented geodesics in H^3.

    In closed form, from the four endpoints (r1, a1) and (r2, a2):

        cosh(sigma) = -1 - 2 [a1, r2][r1, a2] / ([a1, r1][a2, r2]),

    with [p, q] = p.z q.w - q.z p.w; each endpoint enters the numerator and
    the denominator once, so the homogeneous scaling cancels.  sigma is the
    principal arccosh, normalized so Re >= 0 and Im in (-pi, pi].
    """
    r1, a1, r2, a2 = g1.repelling, g1.attracting, g2.repelling, g2.attracting
    if r1.close_to(r2, _POINT_TOL) and a1.close_to(a2, _POINT_TOL):
        return 0.0 + 0.0j
    if r1.close_to(a2, _POINT_TOL) and a1.close_to(r2, _POINT_TOL):
        return complex(0.0, math.pi)
    if any(e1.close_to(e2, _POINT_TOL) for e1 in (r1, a1) for e2 in (r2, a2)):
        raise SharedEndpoint("geodesics share an ideal endpoint")

    def bracket(p, q):
        return p.z * q.w - q.z * p.w

    ratio = bracket(a1, r2) * bracket(r1, a2) / (bracket(a1, r1) * bracket(a2, r2))
    sigma = cmath.acosh(-1.0 - 2.0 * ratio)
    if abs(sigma.real) <= 1e-13 and sigma.imag < 0.0:
        sigma = -sigma
    return normalize_complex_length(sigma)


def unit_determinant(matrix):
    """A complex 2x2 matrix divided by the square root of its determinant."""
    m = np.asarray(matrix, dtype=complex)
    return m / cmath.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def random_sl2(rng):
    """A unit-determinant complex 2x2 matrix with Gaussian entries."""
    return unit_determinant(rng.randn(2, 2) + 1j * rng.randn(2, 2))


def conjugated(rep, matrix):
    """The representation g -> M g M^-1 of the same marked structure, for a
    unit-determinant 2x2 matrix M, lifted to the working precision."""
    leaf = tuple(m2.lift(z) for z in np.ravel(matrix))
    m, inverse = m2.flat(leaf), m2.flat(m2.inverse_entries(leaf))
    images = {gen: m2.fmul(m2.fmul(m, x), inverse) for gen, x in rep.mp_images.items()}
    return Representation(rep.presentation, images)


# -- the half-turn complex distance ---------------------------------------

def half_turn(geodesic):
    """The involution (trace zero) fixing both endpoints of the geodesic."""
    p, q = geodesic.repelling, geodesic.attracting
    basis = np.array([[p.z, q.z], [p.w, q.w]], dtype=complex)
    j = np.diag([1j, -1j])
    det = basis[0, 0] * basis[1, 1] - basis[0, 1] * basis[1, 0]
    inv = np.array([[basis[1, 1], -basis[0, 1]], [-basis[1, 0], basis[0, 0]]]) / det
    return basis @ j @ inv


def _endpoint_sets_match(g1, g2, tol=1e-12):
    """None, 'same', or 'reversed' according to endpoint identification."""
    if g1.repelling.close_to(g2.repelling, tol) and g1.attracting.close_to(g2.attracting, tol):
        return "same"
    if g1.repelling.close_to(g2.attracting, tol) and g1.attracting.close_to(g2.repelling, tol):
        return "reversed"
    return None


def complex_distance_by_half_turns(g1, g2):
    """Complex distance between two oriented geodesics in H^3.

    After moving the common perpendicular to the axis (0, infinity) the two
    geodesics have symmetric endpoint pairs (u, -u) and (p, -p); the result
    is log(p/u) normalized so Re >= 0 and Im in (-pi, pi].
    """
    match = _endpoint_sets_match(g1, g2)
    if match == "same":
        return 0.0 + 0.0j
    if match == "reversed":
        return complex(0.0, math.pi)
    for e1 in (g1.repelling, g1.attracting):
        for e2 in (g2.repelling, g2.attracting):
            if e1.close_to(e2, _POINT_TOL):
                raise SharedEndpoint("geodesics share an ideal endpoint")

    # Axis of the composition of the two half-turns is the common
    # perpendicular; its translation is twice the sought distance.
    eigvals, eigvecs = np.linalg.eig(unit_determinant(half_turn(g2) @ half_turn(g1)))
    if abs(abs(eigvals[0]) - abs(eigvals[1])) > 1e-14 * max(1.0, abs(eigvals[0])):
        order = np.argsort(np.abs(eigvals))
    else:
        # Elliptic product (intersecting geodesics): any fixed order works,
        # the final normalization absorbs the orientation of the axis.
        key0 = (eigvals[0].real, eigvals[0].imag)
        key1 = (eigvals[1].real, eigvals[1].imag)
        order = np.array([0, 1]) if key0 <= key1 else np.array([1, 0])
    basis = eigvecs[:, order]
    det = basis[0, 0] * basis[1, 1] - basis[0, 1] * basis[1, 0]
    if abs(det) < 1e-14:
        raise SharedEndpoint("common perpendicular is degenerate")
    inv = np.array([[basis[1, 1], -basis[0, 1]], [-basis[1, 0], basis[0, 0]]]) / det

    def to_axis_frame(point):
        vec = inv @ np.array([point.z, point.w])
        pt = ProjectivePoint(vec[0], vec[1])
        if pt.is_infinity or abs(pt.z) <= _POINT_TOL:
            raise SharedEndpoint("geodesic endpoint falls on the perpendicular axis")
        return pt.as_complex()

    u = to_axis_frame(g1.attracting)
    p = to_axis_frame(g2.attracting)
    sigma = cmath.log(p / u)
    if sigma.real < 0.0 or (abs(sigma.real) <= 1e-13 and sigma.imag < 0.0):
        sigma = -sigma
    return normalize_complex_length(sigma)
