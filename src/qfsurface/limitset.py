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

Deduplication is greedy in word order: a point is kept iff no earlier kept
point lies within chordal distance ``_DEDUP_TOL``.  A batch first drops
every point near a point kept before it, then resolves the pairs inside
the batch in word order.  Candidate pairs come from quantised sphere keys,
looked up in sorted int64 entries that pack a key with a row, and are
re-checked by exact distance.

The point at infinity is a legitimate member of the cloud (the
representations built here usually have a cuff axis through infinity);
flat-file emission drops non-finite points.
"""

from __future__ import annotations

import numpy as np

from .moebius import _POINT_TOL     # |w| at or below it is the point at infinity
from .surface import DegenerateFN

__all__ = ["LimitSetCloud", "limit_set", "cloud_to_csv", "cloud_to_svg",
           "cross_ratio_imag_spread"]

_DEDUP_TOL = 1e-10
_TRACE_TOL = 1e-9
_RADIUS = 2.0 * _DEDUP_TOL  # chordal distance is half the sphere distance
# With cells four radii wide, a ball of one radius meets at most the eight
# cells nearest its centre, with a margin of a radius on every side.
_CELL = 4.0 * _RADIUS
_HASH = np.array([73856093, 19349663, 83492791], dtype=np.int64)
# An index entry is one nonnegative int64: a cell key of _KEY_BITS bits above
# a position (a row) of _POSITION_BITS bits, so sorting entries sorts them by
# key and then by row.  Keys are kept shifted into place, positions zero.
_KEY_BITS = 39
_POSITION_BITS = 63 - _KEY_BITS
_KEY_MASK = (1 << _KEY_BITS) - 1
_POSITION_MASK = (1 << _POSITION_BITS) - 1
_BLOCK = 1 << 16            # words per batch; 8 keys each fit the positions
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


def _divide_real(num, den):
    """num / den for real den, rounded as CPython divides by complex(den, 0),
    whose zero imaginary part still enters the products (signed zeros)."""
    return _complex((num.real + num.imag * 0.0) / den,
                    (num.imag - num.real * 0.0) / den)


def _attracting_fixed_points(a, b, c, d):
    """(z, w), scaled so max(|z|, |w|) = 1, of the attracting fixed points of
    the loxodromic matrices among [[a, b], [c, d]], in their order."""
    tr = a + d
    # tr * tr on the parts: numpy's complex product may fuse a multiply-add
    square = _complex(tr.real * tr.real - tr.imag * tr.imag - 4.0,
                      tr.real * tr.imag + tr.imag * tr.real)
    disc = np.sqrt(square)
    lam = (tr + disc) / 2.0
    lam = np.where(_abs(lam) < 1.0, (tr - disc) / 2.0, lam)
    # identity-like and parabolic/elliptic-like words have none
    lox = ~((np.abs(tr.imag) <= _TRACE_TOL) & (np.abs(tr.real) <= 2.0 + _TRACE_TOL))
    lox &= ~(np.abs(_abs(lam) - 1.0) <= 1e-12)
    # past complex128 the eigenvalue is NaN, and the c = 0 branch below
    # would read the repelling fixed point as the attracting one
    if not np.all(np.isfinite(square[lox])):
        raise DegenerateFN("limit_set: a trace square exceeds complex128 "
                           "(a length is too large)")
    a, b, c, d, lam = a[lox], b[lox], c[lox], d[lox], lam[lox]
    # c is rounding noise below 1e-14 of the largest entry
    finite = _abs(c) > 1e-14 * np.maximum(np.maximum(_abs(a), _abs(b)),
                                          np.maximum(_abs(c), _abs(d)))
    z, w = lam - d, c
    if not finite.all():
        # c = 0: fixed points are infinity (eigenvalue a) and b/(d - a)
        at_infinity = _abs(lam - a) <= _abs(lam - d)
        z = np.where(finite, z, np.where(at_infinity, 1.0, b))
        w = np.where(finite, w, np.where(at_infinity, 0.0, d - a))
    scale = np.maximum(_abs(z), _abs(w))
    # an entry past complex128 leaves a non-finite scale and a NaN point,
    # which no dedup radius would ever hold
    if not np.all(np.isfinite(scale)):
        raise DegenerateFN("limit_set: fixed points exceed complex128 "
                           "(a length is too large)")
    if not np.all(scale != 0.0):
        raise ValueError("(0 : 0) is not a projective point")
    return _divide_real(z, scale), _divide_real(w, scale)


def _sphere_vectors(z, w):
    """Chordal embedding of the projective line as the unit sphere."""
    zz = _abs(z) ** 2
    ww = _abs(w) ** 2
    norm = zz + ww
    # z * conj(w) on the parts: numpy's complex product may fuse a
    # multiply-add, depending on the array's size and alignment, which would
    # make a point's vector depend on the batch it came in
    cross_re = z.real * w.real + z.imag * w.imag
    cross_im = z.imag * w.real - z.real * w.imag
    return np.stack([2.0 * cross_re / norm, 2.0 * cross_im / norm,
                     (zz - ww) / norm], axis=1)


def _hash(cells):
    """Keys of integer cell coordinates (..., 3); collisions only add
    candidates, which the exact distance check then drops."""
    h = cells.astype(np.int64) * _HASH
    return ((h[..., 0] ^ h[..., 1] ^ h[..., 2]) & _KEY_MASK) << _POSITION_BITS


def _own_keys(vectors):
    """Key of the cell each vector lies in."""
    return _hash(np.floor(vectors / _CELL))


def _cell_keys(vectors):
    """(n, 8) keys of the eight cells nearest each vector; column 0 is the
    vector's own cell."""
    scaled = vectors / _CELL
    own = np.floor(scaled)
    side = own + np.where(scaled - own >= 0.5, 1.0, -1.0)
    # the per-axis parts of the keys, for the own and the side cell
    parts = ((np.stack([own, side], axis=1).astype(np.int64) * _HASH)
             & _KEY_MASK) << _POSITION_BITS                     # (n, 2, 3)
    keys = (parts[:, :, None, None, 0] ^ parts[:, None, :, None, 1]
            ^ parts[:, None, None, :, 2])
    return keys.reshape(-1, 8)


def _sorted_entries(keys):
    """The keys with their positions in the array filled in, sorted: a plain
    sort orders them as a stable argsort of the keys would, at a fraction of
    its cost."""
    entries = keys | np.arange(len(keys))
    entries.sort()
    return entries


def _equal_keys(entries, queries):
    """(query index, position in entries) of every entry under a query's
    key, in no particular order.  Sorted queries search fastest."""
    pos = np.searchsorted(entries, queries)
    query = np.arange(len(queries))
    found = []
    # keys repeat only a few times, so walking each run of equal keys costs
    # less than a second search for its end
    while True:
        inside = pos < len(entries)
        query, pos = query[inside], pos[inside]
        equal = entries[pos] - queries[query] <= _POSITION_MASK
        query, pos = query[equal], pos[equal]
        found.append((query, pos))
        if not len(query):
            return tuple(map(np.concatenate, zip(*found)))
        pos = pos + 1


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


def _fresh_keep(vectors, first):
    """Greedy-in-order keep mask of points that no earlier point is near,
    with the sorted entries of the kept points' eight cells, whose positions
    number the kept points from row ``first`` on."""
    entries = _sorted_entries(_cell_keys(vectors).ravel())
    position = entries & _POSITION_MASK
    keys = entries - position
    own_at = np.flatnonzero(position & 7 == 0)
    rows = position >> 3
    later, pos = _equal_keys(entries, keys[own_at])
    later, earlier = rows[own_at[later]], rows[pos]
    pairs = earlier < later
    later, earlier = later[pairs], earlier[pairs]
    pairs = _within(vectors[later], vectors[earlier])
    kept = _greedy(len(vectors), later[pairs], earlier[pairs])
    on = kept[rows]
    # rows ascend within a key, and so do the kept points' new rows
    return kept, keys[on] | (first - 1 + np.cumsum(kept))[rows[on]]


class _Dedup:
    """Points kept so far, indexed under the eight cells nearest each.

    If two sphere vectors lie within _RADIUS, the cell of one is among the
    eight nearest cells of the other, so one lookup of a query's own cell
    finds every kept point near it.  The index is a few sorted runs of
    entries, each a key with the row of self.vectors it belongs to, and each
    run at least twice as long as the next, so adding a batch does not
    rewrite it.
    """

    def __init__(self):
        self.vectors = np.empty((0, 3))
        self.runs = []

    def keep(self, vectors):
        """Greedy-in-order keep mask of a batch that follows every point
        seen so far; the kept points join the index."""
        # the pairs inside the batch, among the points no kept point is near
        fresh = np.flatnonzero(~self._near(vectors))
        kept, run = _fresh_keep(vectors[fresh], len(self.vectors))
        mask = np.zeros(len(vectors), dtype=bool)
        mask[fresh[kept]] = True
        self.vectors = np.concatenate([self.vectors, vectors[mask]])
        if len(self.vectors) > _POSITION_MASK + 1:
            raise ValueError(f"more than 2^{_POSITION_BITS} points to index")
        self._add_run(run)
        return mask

    def _near(self, vectors):
        """Mask of the vectors within _RADIUS of a kept point."""
        near = np.zeros(len(vectors), dtype=bool)
        queries = _sorted_entries(_own_keys(vectors))
        order = queries & _POSITION_MASK
        queries -= order
        for run in self.runs:
            query, pos = _equal_keys(run, queries)
            query = order[query]
            owners = run[pos] & _POSITION_MASK
            near[query[_within(vectors[query], self.vectors[owners])]] = True
        return near

    def _add_run(self, run):
        self.runs.append(run)
        while len(self.runs) > 1 and len(self.runs[-2]) < 2 * len(self.runs[-1]):
            run = np.concatenate(self.runs[-2:])
            del self.runs[-2:]
            run.sort(kind="stable")     # of two sorted runs: one linear merge
            self.runs.append(run)


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

    def __len__(self):
        return len(self.z)

    @property
    def is_infinity(self):
        return _abs(self.w) <= _POINT_TOL

    def finite_points(self):
        """Affine coordinates and word lengths, skipping the point at infinity."""
        finite = ~self.is_infinity
        return _divide(self.z[finite], self.w[finite]), self.word_length[finite]

    def contains(self, point, tol=1e-8):
        """Membership of a ProjectivePoint up to chordal distance tol."""
        gap = self.vectors - _sphere_vectors(np.array([point.z]), np.array([point.w]))
        return bool(np.sqrt(np.min(np.sum(gap * gap, axis=1), initial=np.inf)) <= 2.0 * tol)


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
    tests check this against per-word products).
    """
    rows = parents.reshape(-1, 2)
    products = np.empty((len(letters),) + parents.shape, dtype=complex)
    for letter, out in zip(letters, products):
        np.matmul(rows, letter, out=out.reshape(-1, 2))
    alphabet = np.arange(len(letters))
    reduced = alphabet[None, :] != (last ^ 1)[:, None]   # letter 2i+1 inverts 2i
    return products.transpose(1, 0, 2, 3)[reduced], np.nonzero(reduced)[1]


def limit_set(rep, depth):
    """Attracting fixed points of all loxodromic words up to the depth, in
    word order, deduplicated greedily."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    letters = _letter_matrices(rep)
    dedup = _Dedup()
    z_parts, w_parts, length_parts = [], [], []

    def absorb(products, length):
        z, w = _attracting_fixed_points(*products.reshape(-1, 4).T)
        kept = dedup.keep(_sphere_vectors(z, w))
        z_parts.append(z[kept])
        w_parts.append(w[kept])
        length_parts.append(np.full(np.count_nonzero(kept), length))

    level, last = letters, np.arange(len(letters))
    absorb(level, 1)
    step = max(1, _BLOCK // (len(letters) - 1))
    for length in range(2, depth + 1):
        blocks = []
        for start in range(0, len(level), step):
            products, block_last = _children(level[start:start + step],
                                             last[start:start + step], letters)
            absorb(products, length)
            if length < depth:
                blocks.append((products, block_last))
        if blocks:
            level = np.concatenate([products for products, _ in blocks])
            last = np.concatenate([block_last for _, block_last in blocks])
    return LimitSetCloud(np.concatenate(z_parts), np.concatenate(w_parts),
                         np.concatenate(length_parts), dedup.vectors, depth)


def cross_ratio_imag_spread(cloud, trials, rng):
    """Largest |Im| of the cross ratio over random 4-tuples of cloud points.

    Zero (to numerics) iff the sampled points lie on a circle in the
    projective line, the Fuchsian signature.
    """
    if len(cloud) < 4:
        raise ValueError("need at least four points")
    idx = np.array([rng.choice(len(cloud), size=4, replace=False)
                    for _ in range(trials)]).reshape(trials, 4)
    z, w = cloud.z[idx], cloud.w[idx]

    def det(i, j):
        return z[:, i] * w[:, j] - z[:, j] * w[:, i]

    num = det(0, 2) * det(1, 3)
    den = det(0, 3) * det(1, 2)
    usable = np.abs(den) >= 1e-30
    return float(np.max(np.abs((num[usable] / den[usable]).imag), initial=0.0))


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
