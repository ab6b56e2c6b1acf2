import cmath
import json
import math
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

import surfaces
from oracles import (
    ProjectivePoint,
    attracting_eigenvalue,
    attracting_fixed_point,
    cloud_contains,
    conjugated,
    cross_ratio_imag_spread,
    csv_by_word_walk,
    limit_set_by_word_walk,
    unit_determinant,
)
from qfsurface import limitset
from qfsurface import matrix2 as m2
from qfsurface.config import parse_config
from qfsurface.limitset import (
    _DEDUP_TOL,
    _TRACE_TOL,
    _children,
    _fixed_points,
    _letter_matrices,
    _parts,
    cloud_to_csv,
    limit_set,
)
from qfsurface.surface import DegenerateFN, FNCoordinates, holonomy, twist_flow
from qfsurface.words import reduce_word, reduced_words_up_to


def chordal(z1, w1, z2, w2):
    """Chordal distance between projective points, elementwise."""
    return np.abs(z1 * w2 - z2 * w1) / (np.hypot(np.abs(z1), np.abs(w1))
                                        * np.hypot(np.abs(z2), np.abs(w2)))


def min_pair_chordal(cloud, block=512):
    """Smallest chordal distance between two points of the cloud, all pairs."""
    z, w = cloud.z, cloud.w
    best = np.inf
    for start in range(0, len(z), block):
        rows = slice(start, start + block)
        dist = chordal(z[rows, None], w[rows, None], z[None, start:], w[None, start:])
        # drop each row's distance to itself and to the rows before it
        dist[np.tril_indices(dist.shape[0], 0, dist.shape[1])] = np.inf
        best = min(best, float(dist.min(initial=np.inf)))
    return best


def test_reduced_word_count():
    # 2k (2k-1)^(L-1) reduced words of length exactly L over k generators
    k = 4
    for depth in (1, 2, 3):
        words = [w for w in reduced_words_up_to(k, depth) if len(w) == depth]
        assert len(words) == 2 * k * (2 * k - 1) ** (depth - 1)


def test_depth_one_point_count():
    rep = surfaces.representation("genus2_fuchsian")
    cloud = limit_set(rep, 1)
    assert len(cloud.z) <= 2 * 4  # at most one point per generator letter


def test_fuchsian_cloud_is_round():
    rep = surfaces.representation("genus2_fuchsian")
    cloud = limit_set(rep, 6)
    assert len(cloud.z) > 500
    rng = np.random.RandomState(8801)
    assert cross_ratio_imag_spread(cloud, 200, rng) <= 1e-8


def test_bent_cloud_is_not_round_but_traces_fixed():
    graph, fn = surfaces.graph("genus2_fuchsian"), surfaces.fn("genus2_fuchsian")
    rep = holonomy(graph, twist_flow(fn, 0, 0.2j))
    cloud = limit_set(rep, 6)
    rng = np.random.RandomState(8802)
    assert cross_ratio_imag_spread(cloud, 200, rng) >= 1e-3

    base = holonomy(graph, fn)
    for label in graph.curve_labels:
        tr_base = np.trace(base.matrix_of_word(base.curve_word(label)))
        tr_bent = np.trace(rep.matrix_of_word(rep.curve_word(label)))
        assert abs(tr_base - tr_bent) <= 1e-10


def test_cloud_drops_rounding_noise_fixed_point():
    # g4 g3 g4^-1 of the bundled QF config fixes infinity: its lower-left
    # entry is rounding noise at the working precision but 1e-14 in
    # complex128, where (lambda - d) / c divides noise by noise
    rep = surfaces.representation("genus2_quasifuchsian")
    exact = m2.FEYE
    for letter in (4, 3, -4):
        exact = m2.fmul(exact, rep.generator_flat(letter))
    (ea, eb), (ec, ed) = m2.flat_to_complex(exact)
    assert abs(ec) <= 1e-25 and abs(ed) > abs(ea)
    # upper triangular: the attracting eigenvalue d has eigenvector b/(d-a);
    # exact - adj(exact) holds d - a at the working precision
    true = ProjectivePoint(eb, m2.flat_to_complex(m2.fsub(exact, m2.fadj(exact)))[1, 1])
    gens = {}
    for g in (3, 4):
        (a, b), (c, d) = gens[g] = rep.matrix_of_word((g,))
        gens[-g] = np.array([[d, -b], [-c, a]])
    matrix = gens[4] @ gens[3] @ gens[-4]
    (a, b), (c, d) = matrix
    assert abs(c) > 1e-14   # an absolute threshold would divide by it
    tr = a + d
    disc = cmath.sqrt(tr * tr - 4.0)
    lam = (tr + disc) / 2.0 if abs(tr + disc) >= 2.0 else (tr - disc) / 2.0
    spurious = ProjectivePoint(lam - d, c)
    assert spurious.chordal_distance(true) > 0.05

    assert attracting_fixed_point(matrix).chordal_distance(true) <= 1e-12
    cloud = limit_set(rep, 3)
    assert cloud_contains(cloud, true, 1e-12)
    assert not cloud_contains(cloud, spurious, 1e-3)


def test_cloud_group_invariance():
    rep = surfaces.representation("genus2_fuchsian")
    depth = 5
    cloud = limit_set(rep, depth)

    for letter in (1, -1, 2, 3):
        matrix = rep.matrix_of_word((abs(letter),))
        if letter < 0:
            matrix = np.linalg.inv(matrix)
        mapping_words = [w for w in reduced_words_up_to(4, depth - 1)]
        checked = 0
        for word in mapping_words[:200]:
            conj = reduce_word((letter,) + word + (-letter,))
            if len(conj) > depth:
                continue
            m = rep.matrix_of_word(word).astype(complex)
            point = attracting_fixed_point(m)
            if point is None:
                continue
            vec = matrix @ np.array([point.z, point.w])
            moved = ProjectivePoint(vec[0], vec[1])
            assert cloud_contains(cloud, moved, 1e-8)
            checked += 1
        assert checked > 20


def test_cloud_deduplication_and_csv():
    rep = surfaces.representation("genus2_fuchsian")
    cloud = limit_set(rep, 5)
    assert len(cloud.z) > 2000
    assert min_pair_chordal(cloud) > 1e-10
    text = cloud_to_csv(cloud)
    lines = text.strip().split("\n")
    assert lines[0] == "re,im,word_length"
    assert len(lines) >= len(cloud.finite_points()[0])


# case -> (bundled config, depth)
ORACLE_CASES = {
    "genus2_quasifuchsian": ("genus2_quasifuchsian", 6),
    "genus3": ("genus3", 5),
    "FN": ("genus2_fuchsian", 6),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_cloud_matches_word_walk_oracle(case):
    stem, depth = ORACLE_CASES[case]
    rep = surfaces.representation(stem)
    cloud = limit_set(rep, depth)
    walk = limit_set_by_word_walk(rep, depth)
    lengths = np.array([length for _, length in walk])
    assert Counter(cloud.word_length.tolist()) == Counter(lengths.tolist())
    assert np.array_equal(cloud.word_length, lengths)   # same order by length
    z = np.array([p.z for p, _ in walk])
    w = np.array([p.w for p, _ in walk])
    gap = chordal(cloud.z, cloud.w, z, w)
    assert gap.max() <= 1e-12
    assert gap[lengths == 1].max() <= 1e-15


@pytest.mark.parametrize("stem", surfaces.BUNDLED)
def test_children_round_as_per_word_products(stem):
    # the oracle match rests on this: the product of a whole level by one
    # letter rounds each word as that word's own 2x2 product does, and the
    # real parts gathered for the fixed-point kernel are those products'
    letters = _letter_matrices(surfaces.representation(stem))
    level, last = letters, np.arange(len(letters))
    for _length in (2, 3):
        expected, expected_last = [], []
        for matrix, end in zip(level, last):
            for index, letter in enumerate(letters):
                if index != end ^ 1:
                    expected.append(matrix @ letter)
                    expected_last.append(index)
        expected = np.array(expected)
        products, rows, last = _children(level, last, letters)
        assert np.array_equal(last, expected_last)
        level = products[rows]
        assert np.array_equal(level, expected)
        parts = _parts(products, rows)
        assert all(part.flags.c_contiguous for part in parts)
        entries = expected.reshape(-1, 4).T     # a, b, c, d
        for got, want in zip(parts, [f(entry) for entry in entries for f in (np.real, np.imag)]):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_cloud_is_the_same_in_small_batches(monkeypatch):
    # over 600 batches and their run merges in place of five; then also
    # kernel and distance chunks of 29 words or pairs in place of 16,384
    rep = surfaces.representation("genus2_quasifuchsian")
    cloud = limit_set(rep, 5)
    for name, value in (("_BLOCK", 37), ("_CHUNK", 29)):
        monkeypatch.setattr(limitset, name, value)
        small = limit_set(rep, 5)
        for field in ("z", "w", "word_length", "vectors"):
            assert np.array_equal(getattr(small, field).view(np.int64),
                                  getattr(cloud, field).view(np.int64)), field


def test_csv_is_the_same_in_small_chunks(monkeypatch):
    # chunks of 29 rows in place of 16,384, each with its own empty slots
    cloud = limit_set(surfaces.representation("genus2_quasifuchsian"), 4)
    text = cloud_to_csv(cloud)
    monkeypatch.setattr(limitset, "_CHUNK", 29)
    assert cloud_to_csv(cloud) == text


def greedy_by_all_pairs(vectors):
    """Keep mask of the greedy pass in order, by every pair's distance."""
    kept = np.zeros(len(vectors), dtype=bool)
    for i, vector in enumerate(vectors):
        earlier = vectors[kept]
        kept[i] = not limitset._within(earlier, np.broadcast_to(vector, earlier.shape)).any()
    return kept


def dedup_vectors(rng):
    """Sphere vectors whose first coordinate is the one the dedup sweeps,
    with the pair cases the sweep must get right; the first two spread the
    first batch along that coordinate."""
    radius = limitset._RADIUS
    below, above = radius * (1 - 1e-9), radius * (1 + 1e-9)
    # the exact difference exceeds _RADIUS by 3e-17 of it, but _within
    # rounds it down and accepts the pair
    edge = np.array([[-8.194704787238937e-12, 0.6, -0.8],
                     [1.9180529521276108e-10, 0.6, -0.8]])
    assert Fraction(edge[1, 0]) - Fraction(edge[0, 0]) > Fraction(radius)
    assert limitset._within(edge[:1], edge[1:])[0]
    root = np.sqrt(0.75)
    pairs = [
        # along the sweep axis, and across it at one sweep coordinate
        (0.0, 0.6, 0.8), (below, 0.6, 0.8),
        (0.0, -0.6, 0.8), (above, -0.6, 0.8),
        (0.5, 0.0, root), (0.5, below, root), (0.5, -above, root),
        (0.6, 0.8, 0.0), (0.6, 0.8, below), (0.6, 0.8, -above),
        *edge,
    ]
    # a chain tied on the sweep coordinate, each point near the next only
    chain = [(0.25, -0.3 + 0.7 * radius * j, np.sqrt(1 - 0.25**2 - 0.09))
             for j in range(20)]
    # a tight cluster, chains of near pairs among its 50 points
    centre = np.array([0.3, 0.5, np.sqrt(0.66)])
    cluster = centre + rng.uniform(-1.5 * radius, 1.5 * radius, size=(50, 3))
    far = rng.normal(size=(80, 3))
    far /= np.linalg.norm(far, axis=1)[:, None]
    rest = np.concatenate([pairs, chain, cluster, far])
    anchors = np.array([[0.8, 0.6, 0.0], [-0.8, 0.6, 0.0]])
    return np.concatenate([anchors, rest[rng.permutation(len(rest))]])


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_dedup_matches_greedy_over_all_pairs(axis):
    rng = np.random.default_rng(1700 + axis)
    vectors = np.roll(dedup_vectors(rng), axis, axis=1)
    expected = greedy_by_all_pairs(vectors)
    # every case occurs: some points are dropped, and not all of the cluster
    assert 100 < expected.sum() < len(vectors) - 30
    n = len(vectors)
    for cuts in ([2], [2, 3, 60], list(range(2, n, 7)), list(range(2, n))):
        dedup = limitset._Dedup()
        mask = np.concatenate([dedup.keep(batch) for batch in np.split(vectors, cuts)])
        assert dedup.axis == axis
        assert np.array_equal(mask, expected)
        assert np.array_equal(dedup.vectors, vectors[expected])


def sphere_rotations():
    """SU(2) matrices whose rotations put the real line, the genus-2
    Fuchsian limit circle, in the planes y = 0, x = 0 and z = 0, then
    seeded random ones."""
    half = np.sqrt(0.5)
    rotations = [np.eye(2), np.diag([cmath.exp(0.25j * cmath.pi), cmath.exp(-0.25j * cmath.pi)]),
                 np.array([[half, 1j * half], [1j * half, half]])]
    rng = np.random.default_rng(1701)
    for _ in range(4):
        q = rng.normal(size=4)
        a, b = complex(*q[:2]) / np.linalg.norm(q), complex(*q[2:]) / np.linalg.norm(q)
        rotations.append(np.array([[a, b], [-b.conjugate(), a.conjugate()]]))
    return rotations


@pytest.mark.parametrize("index", range(7))
def test_dedup_sweep_axis_follows_the_cloud(index, monkeypatch):
    # in a plane across a fixed sweep axis every pair of points is a candidate
    depth = 3
    rep = conjugated(surfaces.representation("genus2_fuchsian"),
                     unit_determinant(sphere_rotations()[index]))
    candidates = []
    within = limitset._within

    def counted(u, v):
        candidates.append(len(u))
        return within(u, v)

    monkeypatch.setattr(limitset, "_within", counted)
    cloud = limit_set(rep, depth)
    if index < 3:   # the cloud fits in one window across the plane
        assert np.ptp(cloud.vectors[:, (1, 0, 2)[index]]) < limitset._RADIUS
    words = sum(1 for _ in reduced_words_up_to(rep.presentation.num_generators, depth))
    assert len(cloud.z) > words // 2
    assert sum(candidates) < words


def test_overflowing_products_are_degenerate():
    # at Re l = 150 some depth-3 fixed points overflow complex128; kept, the
    # NaN points would sort together at the end of the dedup sweep, every
    # pair of them a candidate, and the candidate pairs grow as n^2.
    # At depth 2 a trace square overflows: its eigenvalue is NaN, and the
    # c = 0 branch would give the word its repelling fixed point
    doc = json.loads(surfaces.text("genus2_fuchsian"))
    doc["fn"]["alpha1"]["l"] = [150.0, 0.0]
    config = parse_config(json.dumps(doc))
    graph = config.graph()
    rep = holonomy(graph, config.fn(graph))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(np.isfinite(limit_set(rep, 1).z))
        with pytest.raises(DegenerateFN, match="^limit_set: a trace square"):
            limit_set(rep, 2)
        with pytest.raises(DegenerateFN, match="^limit_set: "):
            limit_set(rep, 3)


def nudged(x, steps):
    """x moved by the given number of units in the last place."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.copysign(np.inf, steps))
    return float(x)


# ratios at the exact tie and a few ulps to either side
EDGES = [nudged(1.0, steps) for steps in (-3, -2, -1, 0, 1, 2, 3)]
# the error of a word with an entry whose square, or a point, is past complex128
EXCEED = "limit_set: fixed points exceed"


def branch_edge_matrices():
    """(label, matrix, error) at the edges of every branch test the kernel
    decides from squared moduli; error is the message a DegenerateFN must
    start with, or None where the oracle's point is expected."""
    cases = []
    for radius in (1.0, 1.0 + 1e-12, 1.0 - 1e-12):
        for steps in (-3, -1, 0, 1, 3):
            lam = nudged(radius, steps) * cmath.exp(0.7j)
            tr = lam + 1.0 / lam
            a = tr / 2.0 + 0.3
            cases.append((f"|lam| {radius} {steps:+d} ulp",
                          [[a, 1.0], [a * (tr - a) - 1.0, tr - a]], None))
    a, b, d = 3.0 + 0.5j, 1.0 - 2.0j, 0.25 + 0.1j
    for angle in (0.0, 0.3):
        for ratio in EDGES:
            c = 1e-14 * abs(a) * ratio * cmath.exp(1j * angle)
            cases.append((f"|c| {ratio!r} at {angle}", [[a, b], [c, d]], None))
    for a, d in ((3.0, 1.0 / 3.0), (1.0 / 3.0, 3.0),
                 (2.0 + 1.0j, 0.4 - 0.2j), (0.4 - 0.2j, 2.0 + 1.0j)):
        for c in (0.0, 1e-17, complex(-0.0, 1e-18)):
            cases.append((f"c = {c} at a = {a}", [[a, 0.5 - 0.25j], [c, d]], None))
    # tr = 4 with a, d mirrored across the real eigenvalue: |lam - a| = |lam - d|
    for height in (0.5, 1.25):
        for ratio in EDGES:
            cases.append((f"c = 0, |lam - a| = |lam - d| {ratio!r}",
                          [[complex(2.0, height), 0.5], [0.0, complex(2.0, -height * ratio)]],
                          None))
    a, d = 2.0 + 0.5j, 0.3 - 0.2j
    z = attracting_eigenvalue(a + d) - d
    for turn in (1.0, 1.0j, -1.0, z.conjugate() / z):
        for ratio in EDGES:
            cases.append((f"|z| = |w| {ratio!r} turned {turn}",
                          [[a, 1.0], [z * turn * ratio, d]], None))
    huge = complex(1.3e154, 1.3e154)    # its squared modulus overflows
    past = complex(1.5e308, 1.5e308)    # and this one's modulus
    return cases + [
        ("tr^2 near the largest float", [[1.2e154, 1.0], [1.0, 0.1]], None),
        ("|b|^2 overflows, c = 0", [[3.0, 2e154], [1.0, 1.0 / 3.0]], EXCEED),
        ("|b|^2 overflows, c not 0", [[3.0, 2e154], [3e140, 1.0 / 3.0]], EXCEED),
        ("|b|^2 overflows, |c| at the edge", [[3.0, 2e154], [2e140, 1.0 / 3.0]], EXCEED),
        ("|c|^2 overflows", [[3.0, 1.0], [huge, 1.0 / 3.0]], EXCEED),
        ("|c| overflows, so c = 0", [[3.0, 1.0], [past, 1.0 / 3.0]], EXCEED),
        ("|a|^2 and tr^2 overflow", [[huge, 1.0], [1.0, 0.0]], "limit_set: a trace square"),
        ("tr^2 overflows", [[1.4e154, 1.0], [1.0, 1.4e154]], "limit_set: a trace square"),
        ("|b| overflows, z = b", [[1.0 / 3.0, past], [1.0, 3.0]], EXCEED),
        ("|d - a|^2 overflows, c = 0, z = b", [[-0.9e154, 1.0], [0.0, 1e154]], EXCEED),
        ("NaN in a", [[complex(np.nan, 0.0), 1.0], [1.0, 1.0 / 3.0]],
         "limit_set: a trace square"),
        ("NaN in c", [[3.0, 1.0], [complex(np.nan, 1.0), 1.0 / 3.0]], EXCEED),
        ("tiny entries", [[3e-160, 1e-170], [2e-170, 4e-160]], None),
    ]


def kernel_points(matrices):
    """(z, w) of each kept fixed point of the kernel, as complex arrays."""
    entries = np.array(matrices, dtype=complex).reshape(-1, 4)
    parts = np.stack([f(entries[:, k]) for k in range(4) for f in (np.real, np.imag)])
    with np.errstate(over="ignore", invalid="ignore"):
        z_r, z_i, w_r, w_i, _vectors = _fixed_points(*parts)
    return z_r + 1j * z_i, w_r + 1j * w_i


def test_fixed_point_branches_match_the_oracle_at_their_edges():
    # each word takes the oracle's branch, to a point within chordal 1e-15
    # of the oracle's, or fails with the typed error of an entry past
    # complex128 or NaN
    points, matrices = [], []
    for label, matrix, error in branch_edge_matrices():
        if error is not None:
            with pytest.raises(DegenerateFN, match="^" + error):
                kernel_points([matrix])
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            point = attracting_fixed_point(np.array(matrix, dtype=complex))
        z, w = kernel_points([matrix])
        if point is None:
            assert len(z) == 0, label
            continue
        assert chordal(z, w, point.z, point.w)[0] <= 1e-15, label
        points.append((z[0], w[0]))
        matrices.append(matrix)
    # one batch of all of them: the same bits as one word at a time
    z, w = kernel_points(matrices)
    assert np.array_equal(np.stack([z, w], 1).view(np.int64), np.array(points).view(np.int64))


# traces on both sides of the edges of the band the trace test drops
_EDGE = 2.0 + _TRACE_TOL
_past = float(np.nextafter(_TRACE_TOL, 1.0))
trace_re = st.one_of(st.floats(-3.0, 3.0), st.floats(_EDGE, _EDGE + 1e-6),
                     st.floats(-_EDGE - 1e-6, -_EDGE), st.floats(-1e150, 1e150))
trace_im = st.one_of(st.floats(-1e-8, 1e-8), st.sampled_from([_past, -_past]),
                     st.floats(-3.0, 3.0), st.floats(-1e150, 1e150))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(re=trace_re, im=trace_im)
def test_kept_traces_have_eigenvalues_off_the_unit_circle(re, im):
    # lam is a root of x^2 - tr x + 1, so ||lam| - 1| <= 1e-12 would force
    # |Im tr| <= about 2e-12 and |Re tr| <= 2 + 1e-24: the trace test drops
    # every such word, and the fixed points need no near-unit test after it
    assume(not (abs(im) <= _TRACE_TOL and abs(re) <= 2.0 + _TRACE_TOL))
    assert abs(abs(attracting_eigenvalue(complex(re, im))) - 1.0) > 1e-12


def large_trace_matrices():
    """(label, matrix) with |tr| from 1e8 to 1e30 in all four quadrants.
    c = tr u puts the attracting fixed point near 1/u and the repelling one
    near 0, so taking one for the other moves the point by about 1."""
    u, d = 0.8 - 0.6j, 0.7 - 0.2j
    cases = []
    for exponent in (8, 12, 15, 16, 17, 20, 25, 30):
        for angle in (0.3, math.pi - 0.3, math.pi + 0.3, -0.3):
            tr = 10.0 ** exponent * cmath.exp(1j * angle)
            a, c = tr - d, tr * u
            cases.append((f"|tr| 1e{exponent} at {angle:.2f}",
                          [[a, (a * d - 1.0) / c], [c, d]]))
    return cases


def mpmath_attracting_point(matrix):
    """(z, w) of the eigenvector of the eigenvalue of larger modulus, at 400
    bits from the complex128 entries, which mpmath takes exactly."""
    with mp.workprec(400):
        (a, b), (c, d) = [[mp.mpc(x) for x in row] for row in matrix]
        tr, det = a + d, a * d - b * c
        disc = mp.sqrt(tr * tr - 4 * det)
        lam = max((tr + disc) / 2, (tr - disc) / 2, key=abs)
        return complex(lam - d), complex(c)


def test_fixed_points_past_large_traces_match_mpmath():
    # the root of larger modulus is picked without forming a cancelled sum:
    # where Re tr < 0 and |tr| passes about 1e16, a rule that tests
    # |tr + disc|^2 < 4 reads rounding noise and lands on the repelling point
    cases = large_trace_matrices()
    z, w = kernel_points([matrix for _label, matrix in cases])
    assert len(z) == len(cases)
    for k, (label, matrix) in enumerate(cases):
        ref_z, ref_w = mpmath_attracting_point(matrix)
        assert chordal(z[k], w[k], ref_z, ref_w) <= 1e-15, label
        point = attracting_fixed_point(np.array(matrix, dtype=complex))
        assert chordal(point.z, point.w, ref_z, ref_w) <= 1e-15, label


def test_csv_matches_fstring_formatter():
    for stem in surfaces.BUNDLED:
        cloud = limit_set(surfaces.representation(stem), 5 if stem == "genus3" else 6)
        z, lengths = cloud.finite_points()
        # the point at infinity is not written
        assert cloud.is_infinity.sum() == (stem != "genus2_separating")
        assert len(z) == len(cloud.z) - cloud.is_infinity.sum()
        if stem == "genus3":
            # a Fuchsian cloud has imaginary parts 0 and -0
            assert {str(v) for v in z.imag} == {"0.0", "-0.0"}
        pairs = [(complex(v), int(n)) for v, n in zip(z, lengths)]
        assert cloud_to_csv(cloud) == csv_by_word_walk(pairs), stem


def float_column_text(values):
    """The text _float_column lays out for each float, padding dropped."""
    values = np.asarray(values, dtype=float)
    out = limitset._float_column(values, np.empty((limitset._FIELD, len(values)), np.uint8))
    return [row[row != 0].tobytes().decode("ascii") for row in out.T]


def with_neighbours(values):
    return [u for v in values for w in (v, -v) for u in
            (w, math.nextafter(w, -math.inf), math.nextafter(w, math.inf))]


EDGE_FLOATS = [
    0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-4, 1e-5, 1e16, 1e17, 1e23, 1e-280, 1e280, 0.1, 0.5, 1.0, 9.5,
    1 + 2**-17, 1 + 3 * 2**-17, 2**-25,         # halfway between 17-digit decimals
]


def test_float_column_edges():
    values = with_neighbours(EDGE_FLOATS)
    assert float_column_text(values) == ["%.17g" % v for v in values]
    assert float_column_text([1e16, 1e17, 1e23, 0.0, -0.0, 1e-4, 1e-5]) == [
        "10000000000000000", "1e+17", "9.9999999999999992e+22", "0", "-0",
        "0.0001", "1.0000000000000001e-05"]


def test_float_column_falls_back_off_its_range():
    # non-finite values, magnitudes out of its range and exact ties are not
    # decided by the arithmetic; '%.17g' writes them
    values = [math.inf, -math.inf, math.nan, 5e-324, 1e-300, 1e300, 1 + 2**-17, 2**-25]
    assert float_column_text(values) == ["%.17g" % v for v in values]
    _whole, _k, decided = limitset._decimals(np.array([1 + 2**-17, 2**-25, 1.5, 1e16]))
    assert decided.tolist() == [False, False, True, True]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_float_column_matches_percent_g(values):
    assert float_column_text(values) == ["%.17g" % v for v in values]


def test_csv_of_an_empty_cloud_and_of_long_words():
    empty = limitset.LimitSetCloud(np.zeros(0, complex), np.zeros(0, complex),
                                   np.zeros(0, int), np.zeros((0, 3)))
    assert cloud_to_csv(empty) == "re,im,word_length\n"
    lengths = np.array([1, 22, 333, 4444, 55555, 7, 10000, 9999, 100])
    z = np.linspace(-2.0, 3.0, len(lengths)) + 1j * np.linspace(1e-5, -1e20, len(lengths))
    cloud = limitset.LimitSetCloud(z, np.ones(len(z), complex), lengths, np.zeros((len(z), 3)))
    pairs = [(complex(v), int(n)) for v, n in zip(z, lengths)]
    assert cloud_to_csv(cloud) == csv_by_word_walk(pairs)


def word_points(rep, depth):
    """(word length, attracting fixed point or None) for every reduced word,
    in the enumeration order, from per-word products and scalar formulas."""
    gens = {}
    for g in range(1, rep.presentation.num_generators + 1):
        (a, b), (c, d) = gens[g] = rep.matrix_of_word((g,))
        gens[-g] = np.array([[d, -b], [-c, a]])
    matrices = {(): np.eye(2, dtype=complex)}
    out = []
    for word in reduced_words_up_to(rep.presentation.num_generators, depth):
        matrices[word] = matrices[word[:-1]] @ gens[word[-1]]
        out.append((len(word), attracting_fixed_point(matrices[word])))
    return out


# no shrink phase: one example costs about 0.3 s, and shrinking a failure
# would take minutes; the failing draw is reported as drawn
@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(stem=st.sampled_from(["genus2_fuchsian", "genus2_separating"]),
       lengths=st.lists(surfaces.complex_coordinate(1.5, 4.0, imag=0.2),
                        min_size=3, max_size=3),
       twists=st.lists(surfaces.complex_coordinate(-1.0, 1.0, imag=0.2),
                       min_size=3, max_size=3))
def test_cloud_is_greedy_in_word_order(stem, lengths, twists):
    depth = 4
    rep = holonomy(surfaces.graph(stem), FNCoordinates(lengths, twists))
    cloud = limit_set(rep, depth)
    walk = limit_set_by_word_walk(rep, depth)
    assert Counter(cloud.word_length.tolist()) == Counter(n for _, n in walk)
    assert min_pair_chordal(cloud) > _DEDUP_TOL

    # walk the words in order: each one either is the next kept point or
    # lies within the tolerance of a point kept before it
    kept = 0
    for length, point in word_points(rep, depth):
        if point is None:
            continue
        gaps = chordal(cloud.z[:kept + 1], cloud.w[:kept + 1], point.z, point.w)
        if (kept < len(cloud.z) and cloud.word_length[kept] == length
                and gaps[kept] <= 1e-12):
            kept += 1
            continue
        assert gaps[:kept].min(initial=np.inf) <= _DEDUP_TOL
    assert kept == len(cloud.z)
