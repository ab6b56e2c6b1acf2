"""Limit-set point clouds, one word length at a time.

The cloud holds the attracting fixed point of every loxodromic image of a
freely reduced word up to a given length, in the breadth-first word order
of :func:`qfsurface.words.reduced_words_up_to`.  Words are processed as
numpy batches: a level is an (M, 2, 2) stack of complex128 products, and the
next level multiplies each parent by every generator letter that does not
cancel its last letter, parents in order and letters in alphabet order.
Each letter takes one matrix product over the whole stack, which rounds
every word as the word's own 2x2 product does.  Only the previous level is
kept, and long levels run in blocks of parents, so the working arrays stay
small at any depth.

The fixed points come from the eight real parts of the entries, gathered
contiguous in word order straight from the letter-major products.  The
scalar formulas' branch tests compare moduli as hypot rounds them; squared
moduli decide each test they clear by a wide margin, and hypot decides the
rest, so the points keep the formulas' bits with three hypot calls a word.

Deduplication is greedy in word order: a point is kept iff no earlier kept
point lies within chordal distance ``_DEDUP_TOL``.  A batch first drops
every point near a point kept before it, then resolves the pairs inside
the batch in word order.  Candidate pairs are the points whose sphere
vectors lie within a window along one coordinate.  Against each sorted run
of kept points, one binary search finds the window's left edge and steps
along the run find its right edge; inside the batch, sorted once, the steps
start at each point's successor.  Candidates are re-checked by exact
distance.

The point at infinity is a legitimate member of the cloud (the
representations built here usually have a cuff axis through infinity);
flat-file emission drops non-finite points.
"""

from __future__ import annotations

import numpy as np

from .surface import DegenerateFN

__all__ = ["LimitSetCloud", "limit_set", "cloud_to_csv", "cloud_to_svg"]

_DEDUP_TOL = 1e-10
_POINT_TOL = 1e-12           # |w| at or below it is the point at infinity
_TRACE_TOL = 1e-9
# Branch tests compare moduli as hypot rounds them.  Squared moduli decide a
# test that they clear by the relative _MARGIN, far wider than their own
# rounding, unless they sit below _TINY, where they may have underflowed.
_MARGIN = 1e-9
_TINY = 1e-290
_RADIUS = 2.0 * _DEDUP_TOL  # chordal distance is half the sphere distance
# Vectors within _RADIUS differ by at most _RADIUS in every coordinate.  The
# sweep window is a hair wider, since _within rounds the differences and the
# distance it compares: by a few ulps of _RADIUS.
_WINDOW = _RADIUS * (1.0 + 1e-12)
_BLOCK = 1 << 16            # words per batch
# Words, or candidate pairs, per vectorised step: temporaries this small
# reuse the memory the step before freed, where fresh pages cost more than
# the arithmetic done in them.
_CHUNK = 1 << 14
_SVG_WIDTH = 800            # pixels


def _complex(re, im):
    """re + i im without the arithmetic of a complex sum (signed zeros, inf)."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _abs(z):
    """|z| as CPython's abs rounds it (numpy's complex abs may not)."""
    return np.hypot(z.real, z.imag)


def _divide(num, den):
    """num / den elementwise, rounded as CPython's complex division rounds.

    numpy multiplies by a reciprocal of the denominator, which moves the
    result by an ulp; this keeps the generators' fixed points equal to the
    scalar formulas'.
    """
    nr, ni = num.real, num.imag
    dr, di = np.real(den), np.imag(den)
    by_re = np.abs(dr) >= np.abs(di)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_re, di / dr, dr / di)
        scale = np.where(by_re, dr + di * ratio, dr * ratio + di)
        re = np.where(by_re, nr + ni * ratio, nr * ratio + ni) / scale
        im = np.where(by_re, ni - nr * ratio, ni * ratio - nr) / scale
    return _complex(re, im)


def _squared(re, im):
    """|re + i im|^2, as a sum of squared parts."""
    out = re * re
    out += im * im
    return out


def _surely_less(x2, y2):
    """Where |x| < |y| by more than any rounding, for squared moduli x2 and
    y2 summed from squared parts: false at near ties and NaN, and where y2
    is too small to carry its relative precision.  An x2 or y2 that
    overflowed to inf stands for a modulus past every finite one."""
    return x2 * (1.0 + _MARGIN) + _TINY < y2


def _fixed_points(ar, ai, br, bi, cr, ci, dr, di):
    """(zr, zi, wr, wi, vectors) of the attracting fixed points of the
    loxodromic matrices among [[a, b], [c, d]], in their order, from the
    real and imaginary parts of the entries: (z : w) scaled so that
    max(|z|, |w|) = 1, and its sphere vector.

    The bits are those of the scalar formulas in complex arithmetic.  Their
    branch tests compare moduli as rounded by hypot; each is decided here
    from squared moduli wherever those clear the test by _MARGIN, and by
    hypot itself on the few words that they do not.
    """
    tr_r, tr_i = ar + dr, ai + di
    # tr * tr - 4 on the parts: numpy's complex product may fuse a
    # multiply-add; its two cross terms are one product, doubled exactly
    square_r = tr_r * tr_r
    square_r -= tr_i * tr_i
    square_r -= 4.0
    square_i = tr_r * tr_i
    square_i *= 2.0
    disc = _complex(square_r, square_i)
    finite_square = np.isfinite(disc)
    np.sqrt(disc, out=disc)
    # lam = (tr + disc) / 2, or (tr - disc) / 2 where the first has |lam| < 1
    plus_r, plus_i = tr_r + disc.real, tr_i + disc.imag
    size = _squared(plus_r, plus_i)             # 4 |lam|^2
    swap = size < 4.0
    unsure = ~((size < 4.0 * (1.0 - _MARGIN)) | (size > 4.0 * (1.0 + _MARGIN)))
    if unsure.any():
        swap[unsure] = np.hypot(*_halve(plus_r[unsure], plus_i[unsure])) < 1.0
    # tr + sign disc with sign = -1 is tr - disc, signed zeros included, and
    # costs no np.where over a mask that flips from word to word
    sign = swap * -2.0
    sign += 1.0
    lam_r, lam_i = plus_r, plus_i
    np.multiply(sign, disc.real, out=lam_r)
    lam_r += tr_r
    np.multiply(sign, disc.imag, out=lam_i)
    lam_i += tr_i
    lam_r, lam_i = _halve(lam_r, lam_i)
    # identity-like and parabolic/elliptic-like words have none
    lox = ~((np.abs(tr_i) <= _TRACE_TOL) & (np.abs(tr_r) <= 2.0 + _TRACE_TOL))
    # past complex128 the eigenvalue is NaN, and the c = 0 branch below
    # would read the repelling fixed point as the attracting one
    if not (finite_square | ~lox).all():
        raise DegenerateFN("limit_set: a trace square exceeds complex128 "
                           "(a length or twist is too large)")
    if not lox.all():
        ar, ai, br, bi, cr, ci, dr, di, lam_r, lam_i = (
            part[lox] for part in (ar, ai, br, bi, cr, ci, dr, di, lam_r, lam_i))
    # c is rounding noise below 1e-14 of the largest entry
    cc = _squared(cr, ci)
    bound = np.maximum(_squared(ar, ai), cc)
    np.maximum(bound, _squared(br, bi), out=bound)
    np.maximum(bound, _squared(dr, di), out=bound)
    bound *= 1e-28                              # (1e-14 of the largest |entry|)^2
    finite = _surely_less(bound, cc)
    # an entry whose square overflows leaves the bound inf, not past |c|
    unsure = ~(finite | _surely_less(cc, bound) & (bound < np.inf))
    if unsure.any():
        parts = [part[unsure] for part in (ar, ai, br, bi, cr, ci, dr, di)]
        abs_a, abs_b, abs_c, abs_d = (np.hypot(*parts[k:k + 2]) for k in range(0, 8, 2))
        finite[unsure] = abs_c > 1e-14 * np.maximum(np.maximum(abs_a, abs_b),
                                                    np.maximum(abs_c, abs_d))
    z_r, z_i, w_r, w_i = lam_r - dr, lam_i - di, cr, ci
    if not finite.all():
        # c = 0: fixed points are infinity (eigenvalue a) and b/(d - a)
        zero = ~finite
        a_r, a_i, d_r, d_i = ar[zero], ai[zero], dr[zero], di[zero]
        at_infinity = _at_infinity(lam_r[zero] - a_r, lam_i[zero] - a_i,
                                   z_r[zero], z_i[zero])
        w_r, w_i = cr.copy(), ci.copy()
        z_r[zero] = np.where(at_infinity, 1.0, br[zero])
        z_i[zero] = np.where(at_infinity, 0.0, bi[zero])
        w_r[zero] = np.where(at_infinity, 0.0, d_r - a_r)
        w_i[zero] = np.where(at_infinity, 0.0, d_i - a_i)
    # scale = max(|z|, |w|): the larger one's hypot, where squares tell which
    zz, ww = _squared(z_r, z_i), _squared(w_r, w_i)
    z_larger = _surely_less(ww, zz)
    w_larger = _surely_less(zz, ww)
    scale = np.hypot(np.where(z_larger, z_r, w_r), np.where(z_larger, z_i, w_i))
    unsure = ~(z_larger | w_larger)
    if unsure.any():
        scale[unsure] = np.maximum(np.hypot(z_r[unsure], z_i[unsure]),
                                   np.hypot(w_r[unsure], w_i[unsure]))
    # an entry past complex128 leaves a non-finite scale and a NaN point,
    # which no dedup radius would ever hold
    if not np.all(np.isfinite(scale)):
        raise DegenerateFN("limit_set: fixed points exceed complex128 "
                           "(a length or twist is too large)")
    if not np.all(scale != 0.0):
        raise ValueError("(0 : 0) is not a projective point")
    z_r, z_i = _divide_real(z_r, z_i, scale)
    w_r, w_i = _divide_real(w_r, w_i, scale)
    return z_r, z_i, w_r, w_i, _sphere_vectors(z_r, z_i, w_r, w_i)


def _halve(re, im):
    """(re + i im) / 2.0 as numpy divides by 2.0 + 0j (signed zeros, inf),
    in place."""
    re_zero = re * 0.0
    re += im * 0.0
    re *= 0.5
    im -= re_zero
    im *= 0.5
    return re, im


def _divide_real(re, im, den):
    """(re + i im) / den for real den, rounded as CPython divides by
    complex(den, 0), whose zero imaginary part still enters the products
    (signed zeros)."""
    out_re = im * 0.0
    out_re += re
    out_re /= den
    out_im = re * 0.0
    np.subtract(im, out_im, out=out_im)
    out_im /= den
    return out_re, out_im


def _at_infinity(xr, xi, yr, yi):
    """|x| <= |y| elementwise, as hypot rounds the two moduli."""
    xx, yy = _squared(xr, xi), _squared(yr, yi)
    out = _surely_less(xx, yy)
    unsure = ~(out | _surely_less(yy, xx))
    if unsure.any():
        out[unsure] = np.hypot(xr[unsure], xi[unsure]) <= np.hypot(yr[unsure], yi[unsure])
    return out


def _sphere_vectors(zr, zi, wr, wi):
    """Chordal embedding of the projective line as the unit sphere."""
    zz = np.hypot(zr, zi)
    zz *= zz
    ww = np.hypot(wr, wi)
    ww *= ww
    norm = zz + ww
    out = np.empty((len(zr), 3))
    # 2 z conj(w) on the parts: numpy's complex product may fuse a
    # multiply-add, depending on the array's size and alignment, which would
    # make a point's vector depend on the batch it came in
    cross = zr * wr
    cross += zi * wi
    cross *= 2.0
    np.divide(cross, norm, out=out[:, 0])
    np.multiply(zi, wr, out=cross)
    cross -= zr * wi
    cross *= 2.0
    np.divide(cross, norm, out=out[:, 1])
    zz -= ww
    np.divide(zz, norm, out=out[:, 2])
    return out


def _window_pairs(run, reach, start):
    """(k, p) for every p from start[k] on with run[p] <= reach[k], found by
    stepping along the ascending run, which ends in +inf."""
    query = np.flatnonzero(run[start] <= reach)
    pos = start[query]
    queries, positions = [], []
    while len(query):
        queries.append(query)
        positions.append(pos)
        pos = pos + 1
        inside = run[pos] <= reach[query]
        query, pos = query[inside], pos[inside]
    return np.concatenate(queries or [query]), np.concatenate(positions or [pos])


def _greedy(n, later, earlier):
    """Keep mask of the greedy pass in order over n points, where each pair
    (later[k], earlier[k]) with earlier < later is a near pair.

    Every round decides each point whose earlier neighbours are decided, so
    the rounds are as many as the longest chain of near pairs.
    """
    kept = np.ones(n, dtype=bool)
    open_ = np.zeros(n, dtype=bool)
    open_[later] = True
    while later.size:
        settled = ~open_[earlier]
        hit = np.zeros(n, dtype=bool)
        hit[later[settled & kept[earlier]]] = True
        waiting = np.zeros(n, dtype=bool)
        waiting[later[~settled]] = True
        decided = open_ & (hit | ~waiting)
        kept[decided] = ~hit[decided]
        open_[decided] = False
        pending = open_[later]
        later, earlier = later[pending], earlier[pending]
    return kept


class _Dedup:
    """Points kept so far, swept along one coordinate.

    Every kept point near a query has its coordinate on the sweep axis
    within _WINDOW of the query's, so a binary search for the window's left
    edge, then steps along the run to its right edge, find it.  The axis is
    the one along which the first batch, the letters' fixed points, spreads
    most: along it a round cloud spreads by at least sqrt(2/3) of its
    diameter, where along a fixed axis a cloud in a plane across it would
    make every pair a candidate.  The index is a few sorted runs of
    (coordinate, row of self.vectors), each run at least twice as long as
    the next, so adding a batch does not rewrite it; each run's coordinates
    end in +inf, so no step passes its end.
    """

    def __init__(self):
        self.axis = None
        self.vectors = np.empty((0, 3))
        self.runs = []

    def keep(self, vectors):
        """Greedy-in-order keep mask of a batch that follows every point
        seen so far; the kept points join the index."""
        if self.axis is None:
            # initial values: a first batch with no loxodromic letter is empty
            spread = vectors.max(0, initial=-np.inf) - vectors.min(0, initial=np.inf)
            self.axis = int(np.argmax(spread))
        order = np.argsort(vectors[:, self.axis])
        swept = vectors.take(order, 0)
        coords = swept[:, self.axis]
        # the pairs inside the batch, among the points no kept point is near
        fresh = ~self._near(swept, coords)
        order, swept, coords = order[fresh], swept[fresh], coords[fresh]
        # each point with the ones after it in the sweep, within the window
        first, second = _window_pairs(np.append(coords, np.inf), coords + _WINDOW,
                                      np.arange(1, len(coords) + 1))
        pairs = _pairs_within(swept, first, swept, second)
        first, second = order[first[pairs]], order[second[pairs]]
        kept = _greedy(len(vectors), np.maximum(first, second), np.minimum(first, second))
        mask = np.zeros(len(vectors), dtype=bool)
        mask[order] = kept[order]
        rows = len(self.vectors) - 1 + np.cumsum(mask)
        on = mask[order]
        self._add_run(coords[on], rows[order[on]])
        self.vectors = np.concatenate([self.vectors, vectors[mask]])
        return mask

    def _near(self, swept, coords):
        """Mask of the vectors within _RADIUS of a kept point, in the
        ascending order of their coordinates on the axis."""
        near = np.zeros(len(swept), dtype=bool)
        reach = coords + _WINDOW
        for run_coords, run_rows in self.runs:
            # one search for the window's left edge; its right edge is found
            # by stepping along the run
            query, pos = _window_pairs(run_coords, reach,
                                       np.searchsorted(run_coords, coords - _WINDOW, "left"))
            near[query[_pairs_within(swept, query, self.vectors, run_rows[pos])]] = True
        return near

    def _add_run(self, coords, rows):
        self.runs.append((np.append(coords, np.inf), rows))
        while len(self.runs) > 1 and len(self.runs[-2][1]) < 2 * len(self.runs[-1][1]):
            (coords, rows), (more_coords, more_rows) = self.runs[-2:]
            del self.runs[-2:]
            coords = np.concatenate([coords[:-1], more_coords])
            # of two sorted runs: one linear merge, which keeps the last inf last
            order = np.argsort(coords, kind="stable")
            self.runs.append((coords[order], np.concatenate([rows, more_rows])[order[:-1]]))


def _pairs_within(u, first, v, second):
    """Mask of the pairs (u[first[k]], v[second[k]]) no farther apart than
    _RADIUS, gathered and tested in chunks that reuse freed memory."""
    return np.concatenate([np.zeros(0, dtype=bool)] + [
        _within(u.take(first[start:start + _CHUNK], 0), v.take(second[start:start + _CHUNK], 0))
        for start in range(0, len(first), _CHUNK)])


def _within(u, v):
    """Rows of u and v no farther apart than _RADIUS."""
    diff = u - v
    diff *= diff
    x, y, z = diff.T        # summed in the order np.sum(diff, axis=1) takes
    return np.sqrt(x + y + z) <= _RADIUS


class LimitSetCloud:
    """Deduplicated attracting fixed points, in word order, as arrays.

    ``z``, ``w``: homogeneous coordinates scaled so max(|z|, |w|) = 1;
    ``word_length``: the length of the word each point came from;
    ``vectors``: (n, 3) points on the unit sphere, where the Euclidean
    distance is twice the chordal distance.
    """

    def __init__(self, z, w, word_length, vectors, depth):
        self.z = z
        self.w = w
        self.word_length = word_length
        self.vectors = vectors
        self.depth = depth

    @property
    def is_infinity(self):
        return _abs(self.w) <= _POINT_TOL

    def finite_points(self):
        """Affine coordinates and word lengths, skipping the point at infinity."""
        finite = ~self.is_infinity
        return _divide(self.z[finite], self.w[finite]), self.word_length[finite]


def _letter_matrices(rep):
    """(2k, 2, 2) matrices of the letters 1, -1, 2, -2, ..., k."""
    out = []
    for g in range(1, rep.presentation.num_generators + 1):
        (a, b), (c, d) = matrix = rep.matrix_of_word((g,))
        out += [matrix, np.array([[d, -b], [-c, a]])]
    return np.array(out)


def _children(parents, last, letters):
    """Products parent @ letter for every letter not cancelling the parent's
    last one, parents in order and letters in alphabet order.

    The (M, 2, 2) parents are one (2M, 2) matrix, so each letter takes one
    matrix product for the whole level.  Each entry is the same two-term
    sum a per-word 2x2 product forms, and rounds to the same bits (the
    tests check this against per-word products).  Returns the (kM, 2, 2)
    products, letter-major, the row of each child in word order, and the
    child's last letter.
    """
    rows = parents.reshape(-1, 2)
    products = np.empty((len(letters),) + parents.shape, dtype=complex)
    for letter, out in zip(letters, products):
        np.matmul(rows, letter, out=out.reshape(-1, 2))
    alphabet = np.arange(len(letters))
    # letter 2i+1 inverts 2i
    parent, letter = np.nonzero(alphabet[None, :] != (last ^ 1)[:, None])
    return products.reshape(-1, 2, 2), letter * len(parents) + parent, letter


def _parts(matrices, rows):
    """ar, ai, br, bi, cr, ci, dr, di of the given rows of an (N, 2, 2)
    stack, each contiguous: one gather of whole rows, then its transpose."""
    return matrices.view(float).reshape(len(matrices), 8).take(rows, 0).T.copy()


def limit_set(rep, depth):
    """Attracting fixed points of all loxodromic words up to the depth, in
    word order, deduplicated greedily."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    letters = _letter_matrices(rep)
    dedup = _Dedup()
    z_parts, w_parts, length_parts = [], [], []

    def absorb(matrices, rows, length):
        # in chunks whose temporaries fit in memory freed by the chunk before
        z_r, z_i, w_r, w_i, vectors = map(np.concatenate, zip(*(
            _fixed_points(*_parts(matrices, rows[start:start + _CHUNK]))
            for start in range(0, len(rows), _CHUNK))))
        kept = dedup.keep(vectors)
        z_parts.append(_complex(z_r[kept], z_i[kept]))
        w_parts.append(_complex(w_r[kept], w_i[kept]))
        length_parts.append(np.full(np.count_nonzero(kept), length))

    level, last = letters, np.arange(len(letters))
    absorb(letters, last, 1)
    step = max(1, _BLOCK // (len(letters) - 1))
    for length in range(2, depth + 1):
        blocks = []
        for start in range(0, len(level), step):
            products, rows, block_last = _children(level[start:start + step],
                                                   last[start:start + step], letters)
            absorb(products, rows, length)
            if length < depth:
                blocks.append((products.take(rows, 0), block_last))
        if blocks:
            level = np.concatenate([products for products, _ in blocks])
            last = np.concatenate([block_last for _, block_last in blocks])
    return LimitSetCloud(np.concatenate(z_parts), np.concatenate(w_parts),
                         np.concatenate(length_parts), dedup.vectors, depth)


def cloud_to_csv(cloud):
    """CSV with columns re,im,word_length (finite points only)."""
    z, lengths = cloud.finite_points()
    fields = [None] * (3 * len(z))
    fields[0::3] = z.real.tolist()
    fields[1::3] = z.imag.tolist()
    fields[2::3] = lengths.tolist()
    return "re,im,word_length\n" + "%.17g,%.17g,%d\n" * len(z) % tuple(fields)


def cloud_to_svg(cloud):
    """Scatter plot of the finite cloud points as an SVG document."""
    z, _lengths = cloud.finite_points()
    if not len(z):
        return '<svg xmlns="http://www.w3.org/2000/svg"/>\n'
    xs, ys = z.real.tolist(), z.imag.tolist()
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span_x = max(x1 - x0, 1e-9)
    span_y = max(y1 - y0, 1e-9)
    margin_x = 0.05 * span_x
    margin_y = 0.05 * span_y
    view = (x0 - margin_x, y0 - margin_y, span_x + 2 * margin_x, span_y + 2 * margin_y)
    radius = 0.5 * max(view[2], view[3]) / _SVG_WIDTH
    circle = f'<circle cx="%.9g" cy="%.9g" r="{radius:.3g}"/>'
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'viewBox="{view[0]:.6g} {view[1]:.6g} {view[2]:.6g} {view[3]:.6g}">'
    ]
    parts.extend(map(circle.__mod__, zip(xs, ys)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
