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
contiguous in word order straight from the letter-major products.  Each
branch test compares squared moduli summed from squared parts, with no
tie rule: the trace test leaves no kept eigenvalue near the unit circle,
and an entry whose square is not finite fails the word as degenerate.

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
flat-file emission drops non-finite points.  The CSV has the bytes of
``'%.17g'`` and is written a chunk of points at a time: each float's 17
significant digits and decimal exponent come exactly from a double-double
product with a power of ten, its text is laid out in fixed byte slots, and
the empty slots are dropped once.  A float the arithmetic leaves undecided,
within 1e-9 of a rounding half, outside [1e-280, 1e280] or not finite, goes
through ``'%.17g'`` itself (see :func:`cloud_to_csv`).
"""

from __future__ import annotations

import numpy as np

from .surface import DegenerateFN

__all__ = ["LimitSetCloud", "limit_set", "cloud_to_csv", "cloud_to_svg"]

_DEDUP_TOL = 1e-10
_POINT_TOL = 1e-12           # |w| at or below it is the point at infinity
_TRACE_TOL = 1e-9
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
# The CSV writer (see cloud_to_csv): magnitudes it decides itself, the
# decimal exponents its powers of ten serve, and its margin on rounding
_EXACT_MIN, _EXACT_MAX = 1e-280, 1e280
_K_LIMIT = 282
_MARGIN = 1e-9
_SIG_LOW, _SIG_HIGH = 10**16, 10**17    # the 17-digit significands
_SPLITTER = 2.0**27 + 1.0
_FIELD = 29                 # bytes of one float field: "-0.000", 18, "e+308"


def _complex(re, im):
    """re + i im without the arithmetic of a complex sum (signed zeros, inf)."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _fixed_points(ar, ai, br, bi, cr, ci, dr, di):
    """(zr, zi, wr, wi, vectors) of the attracting fixed points of the
    loxodromic matrices among [[a, b], [c, d]], in their order, from the
    real and imaginary parts of the entries: (z : w) scaled so that
    max(|z|, |w|) = 1, and its sphere vector.

    The three modulus tests compare squared moduli, each summed from the
    squares of the real and imaginary parts, with no tie rule: lam is
    (tr - disc) / 2 where Re(conj(tr) disc) < 0; c counts as 0 where
    |c|^2 <= 1e-28 max |entry|^2; and then the point is infinity where
    |lam - a|^2 <= |lam - d|^2.  A word whose entry squares or point are not
    finite raises DegenerateFN.
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
    # lam is the root of larger modulus, (tr + disc) / 2 or (tr - disc) / 2:
    # |tr + disc|^2 - |tr - disc|^2 = 4 Re(conj(tr) disc), so its sign picks
    # the sum without cancellation (testing |tr + disc|^2 < 4 reads the
    # rounding noise of a cancelled sum past |tr| ~ 1e16)
    swap = tr_r * disc.real + tr_i * disc.imag < 0.0
    lam_r = 0.5 * np.where(swap, tr_r - disc.real, tr_r + disc.real)
    lam_i = 0.5 * np.where(swap, tr_i - disc.imag, tr_i + disc.imag)
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
    cc = cr * cr + ci * ci
    bound = np.maximum(np.maximum(ar * ar + ai * ai, br * br + bi * bi),
                       np.maximum(cc, dr * dr + di * di))
    bound *= 1e-28                              # (1e-14 of the largest |entry|)^2
    finite = cc > bound
    z_r, z_i, w_r, w_i = lam_r - dr, lam_i - di, cr, ci
    if not finite.all():
        # c = 0: fixed points are infinity (eigenvalue a) and b/(d - a)
        zero = ~finite
        a_r, a_i, d_r, d_i = ar[zero], ai[zero], dr[zero], di[zero]
        to_a_r, to_a_i = lam_r[zero] - a_r, lam_i[zero] - a_i
        to_d_r, to_d_i = z_r[zero], z_i[zero]
        at_infinity = to_a_r * to_a_r + to_a_i * to_a_i <= to_d_r * to_d_r + to_d_i * to_d_i
        w_r, w_i = cr.copy(), ci.copy()
        z_r[zero] = np.where(at_infinity, 1.0, br[zero])
        z_i[zero] = np.where(at_infinity, 0.0, bi[zero])
        w_r[zero] = np.where(at_infinity, 0.0, d_r - a_r)
        w_i[zero] = np.where(at_infinity, 0.0, d_i - a_i)
    zz, ww = z_r * z_r + z_i * z_i, w_r * w_r + w_i * w_i
    top = np.maximum(zz, ww)                    # max(|z|, |w|)^2
    # an entry past about 1.3e154, or NaN, leaves the c test undecided, and a
    # point past complex128 would be NaN, which no dedup radius holds
    if not (np.isfinite(bound).all() and np.isfinite(top).all()):
        raise DegenerateFN("limit_set: fixed points exceed complex128 "
                           "(a length or twist is too large)")
    if not np.all(top != 0.0):
        raise ValueError("(0 : 0) is not a projective point")
    scale = np.sqrt(top)
    zz /= top
    ww /= top
    z_r, z_i, w_r, w_i = z_r / scale, z_i / scale, w_r / scale, w_i / scale
    return z_r, z_i, w_r, w_i, _sphere_vectors(z_r, z_i, w_r, w_i, zz, ww)


def _sphere_vectors(zr, zi, wr, wi, zz, ww):
    """Chordal embedding of the projective line as the unit sphere, given
    the squared moduli zz and ww (overwritten)."""
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

    def __init__(self, z, w, word_length, vectors):
        self.z = z
        self.w = w
        self.word_length = word_length
        self.vectors = vectors

    @property
    def is_infinity(self):
        return np.abs(self.w) <= _POINT_TOL

    def finite_points(self):
        """Affine coordinates and word lengths, skipping the point at infinity."""
        finite = ~self.is_infinity
        return self.z[finite] / self.w[finite], self.word_length[finite]


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
                         np.concatenate(length_parts), dedup.vectors)


def _split(v):
    """Dekker's split of doubles into halves of at most 26 significant bits,
    whose pairwise products are exact."""
    scaled = v * _SPLITTER
    high = scaled - (scaled - v)
    return high, v - high


# 10^p = t / u for p = 16 - k and |k| <= _K_LIMIT, row _K_LIMIT + k, as
# hi + lo: int / int rounds correctly, so hi is 10^p rounded and lo is
# 10^p - hi rounded, from exact integers
_TEN_RATIOS = [(10**p, 1) if p >= 0 else (1, 10**-p)
               for p in range(16 + _K_LIMIT, 15 - _K_LIMIT, -1)]
_TEN_HI = [t / u for t, u in _TEN_RATIOS]
_TEN_LO = np.array([(t * den - num * u) / (u * den) for (t, u), (num, den)
                    in zip(_TEN_RATIOS, map(float.as_integer_ratio, _TEN_HI))])
_TEN_HI_HIGH, _TEN_HI_LOW = _split(np.array(_TEN_HI))
# the four ASCII digits of 0 to 9999, one row per digit place
_QUADS = np.array(np.meshgrid(*[np.frombuffer(b"0123456789", dtype=np.uint8)] * 4,
                              indexing="ij")).reshape(4, -1)
_PLACE = np.arange(18, dtype=np.int8)[:, None]     # the slots of the digits and point
_RANK = np.arange(1, 18, dtype=np.int8)[:, None]
_LEAD = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]


def _digits(n, groups, out):
    """ASCII digits of the nonnegative int64 n, zero-padded to 4 * groups
    places, into out[place, row]: one lookup of _QUADS per 4 digits."""
    for group in range(groups - 1, -1, -1):
        high = n // 10000
        np.take(_QUADS, n - 10000 * high, axis=1, out=out[4 * group:4 * group + 4])
        n = high
    return out


def _scaled(a, k):
    """floor(y) and y - floor(y) of y = a 10^(16 - k), to within 1e-14 for
    y < 1e17: a (hi + lo) as a double-double, hi's product exact."""
    row = _K_LIMIT + k
    hi_high, hi_low = _TEN_HI_HIGH[row], _TEN_HI_LOW[row]
    a_high, a_low = _split(a)
    head = a * (hi_high + hi_low)
    tail = ((a_high * hi_high - head) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    tail += a * _TEN_LO[row]
    y = head + tail
    tail -= y - head                # y + tail is head + tail exactly
    whole = np.floor(y)
    y -= whole
    y += tail
    carry = np.floor(y)
    y -= carry
    return whole.astype(np.int64) + carry.astype(np.int64), y


def _decimals(a):
    """(D, k, decided) for magnitudes a in [1e-280, 1e280]: '%.17g' writes
    a as the 17 digits of D times 10^(k - 16), wherever decided."""
    k = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, k)
    # log10 rounds: k is one off where y left [1e16, 1e17)
    shift = (whole >= _SIG_HIGH).astype(np.int64) - (whole < _SIG_LOW)
    moved = np.flatnonzero(shift)
    if len(moved):
        k[moved] += shift[moved]
        whole[moved], frac[moved] = _scaled(a[moved], k[moved])
    decided = (np.abs(frac - 0.5) > _MARGIN) & (whole >= _SIG_LOW) & (whole < _SIG_HIGH)
    decided &= ~((whole == _SIG_LOW) & (frac > 0.0) & (frac <= _MARGIN))
    decided &= ~((whole == _SIG_HIGH - 1) & (frac >= 1.0 - _MARGIN))
    whole += frac > 0.5
    # a y just below 1e17 rounds up to 18 digits: one digit, one exponent up
    top = whole == _SIG_HIGH
    whole[top] = _SIG_LOW
    k += top
    return whole, k, decided


def _float_column(x, out):
    """'%.17g' % v for each float of x into out[slot, row], _FIELD slots,
    with zero bytes where a slot is empty.

    The slots are a sign, "0.000" (fixed notation below 1), 17 digits with
    a point among them, and "e+308" (exponent notation).
    """
    a = np.abs(x)
    zero = a == 0.0
    inside = (a >= _EXACT_MIN) & (a <= _EXACT_MAX)
    whole, k, decided = _decimals(np.where(inside, a, 1.0))
    whole[zero] = 0
    k[zero] = 0
    decided = decided & inside | zero
    chars = _digits(whole, 5, np.empty((20, len(x)), dtype=np.uint8))[3:]
    significant = ((chars != ord("0")) * _RANK).max(0)    # digits without trailing zeros
    k = k.astype(np.int16)
    fixed = (k >= -4) & (k < 17)
    below_one = fixed & (k < 0)
    # the point follows digit k, or the first in exponent notation; below 1
    # it is in "0.000" and none is left among the digits
    point = np.where(fixed, np.maximum(k, 0) + 1, 1).astype(np.int8)
    point[below_one] = 17
    kept = np.where(fixed, np.maximum(significant, k + 1), significant).astype(np.int8)
    out[0] = np.where(np.signbit(x), ord("-"), 0)
    out[1:6] = np.where(below_one & (_PLACE[:5] < 1 - k), _LEAD, 0)
    body = out[6:24]
    body[:17] = chars
    body[17] = 0
    after = _PLACE > point
    np.copyto(body[1:], chars, where=after[1:])
    np.copyto(body, ord("."), where=_PLACE == point)
    np.copyto(body, 0, where=_PLACE - after >= kept)
    out[24:29] = 0
    wide = np.flatnonzero(~fixed)
    k = k[wide]
    out[24, wide] = ord("e")
    out[25, wide] = np.where(k < 0, ord("-"), ord("+"))
    k = np.abs(k)
    out[26:29, wide] = _QUADS[1:, k]
    out[26, wide[k < 100]] = 0
    for row in np.flatnonzero(~decided):
        text = b"%.17g" % x[row]
        out[:, row] = 0
        out[:len(text), row] = np.frombuffer(text, dtype=np.uint8)
    return out


def cloud_to_csv(cloud):
    """CSV with columns re,im,word_length (finite points only), each row the
    bytes of ``'%.17g,%.17g,%d'``.

    For a float x with 1e-280 <= |x| <= 1e280, ``'%.17g'`` writes the 17
    digits of D = round(y), y = |x| 10^(16 - k), where the decimal exponent
    k puts y in [1e16, 1e17), halves rounding to even.  k starts as
    floor(log10 |x|), which is one off next to a power of ten, and moves by
    one where y falls outside that range; a D that rounds up to 1e17 is
    1e16 with k one higher.  y is a double-double, an unevaluated sum of two
    doubles: 10^(16 - k) is hi + lo, both rounded from exact integers, and
    |x| hi is exact as the sum of Dekker's products of halves.  Below 1e17,
    the rounding of lo (2^-106 of y), of |x| lo and of the two sums of
    small terms each add at most 2e-15, so y is off by less than 1e-14.

    A row is therefore decided where y's fraction is more than 1e-9 from
    1/2, and y is more than 1e-9 from 1e16 and 1e17 or exactly 1e16; zeros
    are written as 0 or -0.  Every other float goes through ``'%.17g'``
    itself, and so do magnitudes out of the range and non-finite values.
    Exact ties exist, and the fallback is what rounds them to even: y is
    D + 1/2 for |x| = n / 2^(17 - k) with n odd and n 5^(16 - k) = 2D + 1,
    which has solutions n < 2^53 for -8 <= k <= 15 (1 + 2^-17 and 2^-25
    are ties).  For k >= 16 the odd part of |x| would be (2D + 1)
    5^(k - 16) > 2^53, and for k <= -9, 5^(16 - k) > 2D + 1.  The bounds:

    - the range keeps |k| <= 281, and k's first guess within one of it, so
      the table of 10^p, p = 16 - k in [-266, 298], stays finite times
      Dekker's splitter 2^27 + 1, and its lo parts stay normal;
    - the margin 1e-9 is far above the error, and a y lands within it of
      a half with chance 2e-9: no float of the bundled clouds reaches the
      fallback;
    - the digits come four at a time from a table of the 10,000 four-digit
      strings, five lookups for a 17-digit significand and one per four
      digits of a word length: the table is 40 kB, where one of five digits
      would be 500 kB to save one lookup in five.

    ``%g`` writes fixed notation for -4 <= k < 17 and d.ddde+XX otherwise,
    without trailing zeros, and without the point when no digit follows
    it.  Each float takes _FIELD slots, one byte per character and a zero
    byte where a slot is empty (see _float_column), the rows of a chunk are
    laid out one slot after another, and the slots empty on every row, then
    the zero bytes, are dropped.
    """
    z, lengths = cloud.finite_points()
    groups = -(-len(str(lengths.max(initial=0))) // 4)
    # a length below 10^j has no digit in the place j + 1 from the right
    tens = 10.0 ** np.arange(4 * groups - 1, 0, -1)[:, None]
    ends = np.cumsum([_FIELD, 1, _FIELD, 1, 4 * groups, 1])
    parts = [b"re,im,word_length\n"]
    for start in range(0, len(z), _CHUNK):
        chunk, length = z[start:start + _CHUNK], lengths[start:start + _CHUNK]
        rows = np.empty((ends[-1], len(chunk)), dtype=np.uint8)
        _float_column(chunk.real, rows[:ends[0]])
        rows[ends[0]] = rows[ends[2]] = ord(",")
        _float_column(chunk.imag, rows[ends[1]:ends[2]])
        digits = _digits(length, groups, rows[ends[3]:ends[4]])
        np.copyto(digits[:-1], 0, where=length < tens)
        rows[-1] = ord("\n")
        # the slots empty on every row go first, then the empty bytes
        text = rows[rows.any(axis=1)].T.ravel()
        parts.append(text[text != 0].tobytes())
    return b"".join(parts).decode("ascii")


def cloud_to_svg(cloud):
    """Scatter plot of the finite cloud points as an SVG document."""
    z, _lengths = cloud.finite_points()
    if not len(z):
        return '<svg xmlns="http://www.w3.org/2000/svg"/>\n'
    xs, ys = z.real.tolist(), z.imag.tolist()
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span_x, span_y = x1 - x0, y1 - y0
    if not (span_x or span_y):                  # a single point
        span_x = span_y = 1e-9
    # both margins from the larger span, so that a cloud on a line is drawn
    # in a band as tall as its circles need
    margin = 0.05 * max(span_x, span_y)
    view = (x0 - margin, y0 - margin, span_x + 2 * margin, span_y + 2 * margin)
    radius = 0.5 * max(view[2], view[3]) / _SVG_WIDTH
    circle = f'<circle cx="%.9g" cy="%.9g" r="{radius:.3g}"/>'
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'viewBox="{view[0]:.6g} {view[1]:.6g} {view[2]:.6g} {view[3]:.6g}">'
    ]
    parts.extend(map(circle.__mod__, zip(xs, ys)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
