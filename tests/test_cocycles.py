import hashlib
import math
import operator
import sys
from collections import Counter
from importlib import resources

import mpmath as mp
import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import oracles
import surfaces
from qfsurface import cocycles as cocycles_module
from qfsurface import matrix2 as m2
from qfsurface import surface
from oracles import (
    STEP,
    cocycle_scale,
    fd_symplectic_gram,
    fd_tangent_cocycle,
    linear_combination,
    pairing_by_prefix_walk,
)
from qfsurface.cocycles import (
    BaseMismatch,
    COEFFICIENT_SCALE,
    SymplecticGram,
    TangentCocycle,
    canonical_form,
    coboundary,
    cocycle_gram,
    cocycle_residual,
    darboux_residual,
    fd_basis_cocycles,
    goldman_pairing,
    symplectic_gram,
)
from qfsurface.cli import main as cli_main
from qfsurface.config import SurfaceConfig, config_to_json
from qfsurface.presentation import PantsDecompositionGraph
from qfsurface.surface import FNCoordinates, holonomy


GRAPH = surfaces.graph("genus2_fuchsian")
FN = surfaces.fn("genus2_fuchsian")
GENUS3 = surfaces.config("genus3")
GENUS3_CHAIN = GENUS3.graph()


def genus3_at(length, tol=1e-4):
    """genus3.json with every curve at this length."""
    return SurfaceConfig(GENUS3.genus, GENUS3.pants_ids, GENUS3.gluings,
                         {label: (length, tau) for label, (_l, tau) in GENUS3.fn_table.items()},
                         {"tol": tol, "word_length": 6})


# the genus-3 chain extended by two pants
GENUS4_CHAIN = PantsDecompositionGraph(6, [
    ("c1", (0, 0), (0, 1)), ("c2", (0, 2), (1, 0)), ("c3", (1, 1), (2, 0)),
    ("c4", (1, 2), (2, 1)), ("c5", (2, 2), (3, 0)), ("c6", (3, 1), (4, 0)),
    ("c7", (3, 2), (4, 1)), ("c8", (4, 2), (5, 0)), ("c9", (5, 1), (5, 2)),
])
FN4 = FNCoordinates([2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8],
                    [0.1, -0.2, 0.3, 0.0, 0.2, -0.1, 0.4, -0.3, 0.15])


@pytest.fixture(scope="module")
def base():
    rep, cocycles = oracles.fd_basis_cocycles(GRAPH, FN, h=1e-4)
    return rep, cocycles


def random_traceless(rng):
    m = rng.randn(2, 2) + 1j * rng.randn(2, 2)
    m[1, 1] = -m[0, 0]
    return m


def test_cocycle_on_empty_word(base):
    rep, cocycles = base
    value = m2.flat_to_complex(cocycles[0].evaluate_flat(()))
    assert np.max(np.abs(value.astype(complex))) == 0.0


def test_fd_cocycle_residual_order_h_squared():
    residuals = {}
    for h in (1e-3, 5e-4):
        u = fd_tangent_cocycle(GRAPH, FN, "l", 0, h)
        residuals[h] = cocycle_residual(u)
    ratio = residuals[1e-3] / residuals[5e-4]
    assert 2.5 <= ratio <= 6.0  # halving h quarters the defect


def test_coboundaries_are_exact_cocycles(base):
    rng = np.random.RandomState(3100 + 1)
    rep, _ = base
    for _ in range(5):
        cb = coboundary(random_traceless(rng), rep)
        assert cocycle_residual(cb) <= 1e-8 * max(
            1.0, max(float(np.max(np.abs(m2.flat_to_complex(m))))
                     for m in cb.flat.values())
        )
    zero = coboundary(np.zeros((2, 2)), rep)
    assert cocycle_residual(zero) == 0.0


def test_corrupted_cocycle_detected(base):
    rep, cocycles = base
    table = dict(cocycles[0].flat)
    table[1] = m2.flat_from_array(np.zeros((2, 2)))
    broken = TangentCocycle(rep, table)
    assert cocycle_residual(broken) > 100 * cocycle_residual(cocycles[0])


def test_trace_variation_identities():
    rep, cocycles = fd_basis_cocycles(GRAPH, FN)
    n = len(FN)
    for i, label in enumerate(GRAPH.curve_labels):
        word = rep.curve_word(label)
        m = rep.matrix_of_word(word).astype(complex)
        u_tau = cocycles[n + i]
        variation = np.trace(m2.flat_to_complex(u_tau.evaluate_flat(word)) @ m)
        assert abs(variation) <= 1e-6
        u_l = cocycles[i]
        variation_l = np.trace(m2.flat_to_complex(u_l.evaluate_flat(word)) @ m)
        import cmath
        expected = -cmath.sinh(FN.lengths[i] / 2.0)  # d/dl of -2 cosh(l/2)
        assert abs(variation_l - expected) <= 1e-6


def test_pairing_antisymmetry_and_self(base):
    rng = np.random.RandomState(3100 + 2)
    rep, cocycles = base
    for u in cocycles:
        assert abs(goldman_pairing(u, u)) <= 1e-8
    for _ in range(10):
        a, b = rng.randint(0, len(cocycles), size=2)
        u, v = cocycles[a], cocycles[b]
        bound = 10 * (cocycle_residual(u) + cocycle_residual(v)) + 1e-10
        assert abs(goldman_pairing(u, v) + goldman_pairing(v, u)) <= bound


def test_pairing_bilinearity(base):
    rep, cocycles = base
    u, up, v = cocycles[0], cocycles[1], cocycles[4]
    a, b = 0.7 - 0.2j, -1.3 + 0.4j
    combo = linear_combination([(a, u), (b, up)])
    lhs = goldman_pairing(combo, v)
    rhs = a * goldman_pairing(u, v) + b * goldman_pairing(up, v)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_pairing_coboundary_invariance(base):
    rng = np.random.RandomState(3100 + 3)
    rep, cocycles = base
    v = cocycles[3]
    base_value = goldman_pairing(cocycles[0], v)
    for _ in range(100):
        w = random_traceless(rng)
        shifted = linear_combination([(1, cocycles[0]), (1, coboundary(w, rep))])
        moved = goldman_pairing(shifted, v)
        bound = 10 * (cocycle_residual(cocycles[0]) + cocycle_residual(v)) * max(
            cocycle_scale(shifted), cocycle_scale(v)
        ) + 1e-9
        assert abs(moved - base_value) <= bound


def test_pairing_coboundary_vanishing(base):
    rng = np.random.RandomState(3100 + 4)
    rep, cocycles = base
    for _ in range(20):
        cb = coboundary(random_traceless(rng), rep)
        for v in (cocycles[0], cocycles[5]):
            bound = 10 * (cocycle_residual(cb) + cocycle_residual(v)) * max(
                cocycle_scale(cb), cocycle_scale(v)
            ) + 1e-9
            assert abs(goldman_pairing(cb, v)) <= bound


def test_base_mismatch_rejected(base):
    rng = np.random.RandomState(3100 + 5)
    rep, cocycles = base
    other = holonomy(GRAPH, FN)
    foreign = coboundary(random_traceless(rng), other)
    with pytest.raises(BaseMismatch):
        goldman_pairing(cocycles[0], foreign)


def test_length_twist_pairing_is_plus_one(base):
    rep, cocycles = base
    # the single calibrated quantity: everything else is a prediction
    value = goldman_pairing(cocycles[0], cocycles[3])
    assert abs(value - 1.0) <= 1e-4
    # with the bare trace form the same pairing is exactly half
    bare = goldman_pairing(cocycles[0], cocycles[3]) / COEFFICIENT_SCALE
    assert abs(bare - 0.5) <= 1e-4


def test_goldman_product_formula_pins_sign_and_scale():
    # Goldman's product formula, with no calibration: the Poisson bracket
    # df Pi dg of trace functions (Pi the inverse Gram, df_k = tr(u_k(a) rho(a)))
    # of a standard pair a_i, b_i meeting once is
    # (tr(a_i b_i) - tr a_i tr b_i / 2) / 2, and the traces of a_1, a_2
    # (disjoint curves) commute; a flipped PAIRING_SIGN or another
    # COEFFICIENT_SCALE breaks the first
    for stem in ("genus2_quasifuchsian", "genus2_separating", "genus3"):
        rep, cocycles = fd_basis_cocycles(surfaces.graph(stem), surfaces.fn(stem))
        poisson = np.linalg.inv(np.asarray(cocycle_gram(rep, cocycles).matrix))

        def trace(word):
            return m2.ftrace(rep.flat_of_word(word))

        def gradient(word):
            image = rep.flat_of_word(word)
            return np.array([m2.ftrace(m2.fmul(u.evaluate_flat(word), image))
                             for u in cocycles])

        for i in range(rep.presentation.num_generators // 2):
            a, b = (2 * i + 1,), (2 * i + 2,)
            bracket = gradient(a) @ poisson @ gradient(b)
            predicted = 0.5 * (trace(a + b) - 0.5 * trace(a) * trace(b))
            assert abs(bracket / predicted - 1.0) <= 1e-12
        assert abs(gradient((1,)) @ poisson @ gradient((3,))) <= 1e-40


def test_gram_canonical_fuchsian_and_complex():
    for fn in (FN, surfaces.fn("genus2_quasifuchsian")):
        for gram in (symplectic_gram(GRAPH, fn), fd_symplectic_gram(GRAPH, fn, h=1e-4)):
            assert darboux_residual(gram) <= 1e-4
            n = gram.size // 2
            matrix = np.asarray(gram.matrix)
            assert np.max(np.abs(matrix[:n, :n])) <= 1e-4
            assert np.max(np.abs(matrix[n:, n:])) <= 1e-4
            for i in range(n):
                row = matrix[n + i]
                target = np.zeros(2 * n)
                target[i] = -1.0
                assert np.max(np.abs(row - target)) <= 1e-4


def test_gram_fd_convergence():
    coarse = darboux_residual(fd_symplectic_gram(GRAPH, FN, h=1e-3))
    fine = darboux_residual(fd_symplectic_gram(GRAPH, FN, h=1e-4))
    assert coarse / fine >= 50.0
    # the verdict does not hinge on the step: the default and ten times it
    # both sit far below any tolerance a config states
    for h in (STEP, 10 * STEP):
        assert darboux_residual(fd_symplectic_gram(GRAPH, FN, h=h)) <= 1e-12


def test_gram_corruption_detected():
    gram = fd_symplectic_gram(GRAPH, FN, h=1e-4)
    swapped = np.asarray(gram.matrix)
    swapped[:, [3, 4]] = swapped[:, [4, 3]]
    corrupted = SymplecticGram(swapped.tolist(), gram.raw_asymmetry, gram.cocycle_residual)
    assert darboux_residual(corrupted) >= 1.0


def test_darboux_residual_keeps_a_nan_entry():
    # max() over the distances drops a NaN unless it comes first
    gram = symplectic_gram(GRAPH, FN)
    rows = [list(row) for row in gram.matrix]
    rows[2][3] = complex(math.nan, 0.0)
    broken = SymplecticGram(rows, gram.raw_asymmetry, gram.cocycle_residual)
    assert not math.isfinite(darboux_residual(broken))


def test_gram_gauge_invariance():
    rng = np.random.RandomState(3100 + 6)
    m = oracles.random_sl2(rng)

    rep, cocycles = oracles.fd_basis_cocycles(GRAPH, FN, h=1e-4)
    conj = oracles.conjugated(rep, m)
    tables = [
        {g: m2.flat_from_array(m @ m2.flat_to_complex(u.flat[g]) @ np.linalg.inv(m))
         for g in u.flat}
        for u in cocycles
    ]
    moved = [TangentCocycle(conj, t) for t in tables]
    for a in (0, 2, 4):
        for b in (1, 3, 5):
            before = goldman_pairing(cocycles[a], cocycles[b])
            after = goldman_pairing(moved[a], moved[b])
            assert abs(before - after) <= 1e-6


def test_darboux_residual_random_box():
    rng = np.random.RandomState(3100 + 7)
    for trial in range(20):
        real = trial % 2 == 0
        lengths = [rng.uniform(1.0, 4.0)
                   + (0.0 if real else 1j * rng.uniform(-0.3, 0.3)) for _ in range(3)]
        twists = [rng.uniform(-1.0, 1.0)
                  + (0.0 if real else 1j * rng.uniform(-0.3, 0.3)) for _ in range(3)]
        gram = symplectic_gram(GRAPH, FNCoordinates(lengths, twists))
        assert darboux_residual(gram) <= 1e-4


def test_gram_other_graphs():
    gram = symplectic_gram(surfaces.graph("genus2_separating"), FN)
    assert darboux_residual(gram) <= 1e-10
    gram3 = symplectic_gram(GENUS3_CHAIN, GENUS3.fn())
    assert darboux_residual(gram3) <= 1e-10
    gram4 = symplectic_gram(GENUS4_CHAIN, FN4)
    assert darboux_residual(gram4) <= 1e-10


def oracle_raw(cocycles):
    """Raw pairing matrix, one prefix walk per ordered pair."""
    dim = len(cocycles)
    raw = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            if a != b:
                raw[a, b] = pairing_by_prefix_walk(cocycles[a], cocycles[b])
    return raw


def oracle_cases():
    for stem in surfaces.BUNDLED:
        yield surfaces.graph(stem), surfaces.fn(stem)
    yield GENUS4_CHAIN, FN4


def test_gram_matches_prefix_walk_oracle():
    for graph, fn in oracle_cases():
        _rep, cocycles = fd_basis_cocycles(graph, fn)
        raw = oracle_raw(cocycles)
        gram = symplectic_gram(graph, fn)
        assert np.max(np.abs(np.asarray(gram.matrix) - (raw - raw.T) / 2.0)) <= 1e-20
        assert abs(gram.raw_asymmetry - np.max(np.abs(raw + raw.T))) <= 1e-20
        dim = len(cocycles)
        for a in range(dim):
            for b in range(dim):
                if a != b:
                    assert abs(goldman_pairing(cocycles[a], cocycles[b])
                               - raw[a, b]) <= 1e-20


def test_raw_asymmetry_matches_oracle_at_coarse_step():
    # at a coarse step the cocycle residuals are large and so is the raw
    # asymmetry; a Gram that mirrored one triangle would read 0 here
    gram = fd_symplectic_gram(GRAPH, FN, h=1e-3)
    _rep, cocycles = oracles.fd_basis_cocycles(GRAPH, FN, h=1e-3)
    raw = oracle_raw(cocycles)
    expected = float(np.max(np.abs(raw + raw.T)))
    assert gram.raw_asymmetry > 1e-10
    assert abs(gram.raw_asymmetry - expected) <= 1e-12 * expected


def test_pairing_matches_oracle_on_combinations(base):
    rng = np.random.RandomState(3100 + 8)
    rep, cocycles = base
    u, up, v = cocycles[0], cocycles[1], cocycles[4]
    combo = linear_combination([(0.7 - 0.2j, u), (-1.3 + 0.4j, up)])
    cb = coboundary(random_traceless(rng), rep)
    shifted = linear_combination([(1, cocycles[2]),
                                  (1, coboundary(random_traceless(rng), rep))])
    for x, y in ((combo, v), (v, combo), (cb, v), (v, cb), (shifted, u),
                 (cb, shifted)):
        assert abs(goldman_pairing(x, y) - pairing_by_prefix_walk(x, y)) <= 1e-20


def test_gram_reports_worst_cocycle_residual(base):
    # cocycle_residual and the Gram read the relator through one walk, so
    # the worst residual is the same bits on FD and jet cocycles alike: the
    # jet basis of every bundled config and of the genus-4 chain
    jet_bases = [fd_basis_cocycles(graph, fn) for graph, fn in oracle_cases()]
    for rep, cocycles in [base] + jet_bases:
        gram = cocycle_gram(rep, cocycles)
        worst = max(cocycle_residual(u) for u in cocycles)
        assert worst > 0.0
        assert gram.cocycle_residual == worst


def to_mpc(x):
    """A fixed-point scalar as an mpmath number, exactly at 80 digits."""
    scale = mp.mpf(2) ** -m2.FRAC_BITS
    return mp.mpc(mp.mpf(x.re) * scale, mp.mpf(x.im) * scale)


def test_jet_derivatives_match_mpmath_diff():
    # a composite of every jet operation, against mpmath's own differentiation;
    # exp is the one transcendental, so cosh is spelt out from it
    def f(x, y, exp):
        e = exp(x)
        cosh = (e + 1 / e) / 2
        return exp((cosh * y - 1 / (exp(-x / 2) + y)) / 2) / (-(x * y) + 2) + (-y + 3) * x

    x0, y0 = m2.lift(0.7 + 0.2j), m2.lift(1.3 - 0.4j)
    unit = m2.lift(1)
    jet = f(m2.Jet(x0, {0: unit}), m2.Jet(y0, {1: unit}), m2.exp)
    plain = f(x0, y0, m2.exp)
    assert (jet.value.re, jet.value.im) == (plain.re, plain.im)
    with mp.workdps(80):
        for direction, orders in ((0, (1, 0)), (1, (0, 1))):
            expected = mp.diff(lambda x, y: f(x, y, mp.exp),
                               (to_mpc(x0), to_mpc(y0)), orders)
            assert abs(to_mpc(oracles.partial(jet, direction)) - expected) <= 1e-50
    assert oracles.partial(jet, 2) == 0
    # constants carry no gradient, and the constant 0 stays a plain zero
    assert oracles.partial(x0, 0) == 0 and m2.value_of(x0) is x0
    assert not isinstance(m2.Jet(x0, {0: unit}) * 0, m2.Jet)


def test_jet_images_equal_holonomy():
    # the basis assembly computes the same values, in the same order, as
    # holonomy; only the gradients come on top
    for graph, fn in oracle_cases():
        rep, _cocycles = fd_basis_cocycles(graph, fn)
        assert rep.mp_images == holonomy(graph, fn).mp_images


def bit_identity_cases():
    for graph, fn in oracle_cases():
        if graph is not GENUS4_CHAIN:
            yield graph, fn
    for length in (16.0, 20.0):
        yield GENUS3_CHAIN, genus3_at(length).fn()


def exact_step(prefix, value, letter):
    """The step of one letter with the value X = [[a, b], [c, -a]] read off
    a flat table value: p X adj(p), in Gaussian integers at 2^-3 FRAC_BITS,
    floored once, as the (re, im) ints of its triple; negated on an inverse
    letter."""
    def gmul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def gadd(x, y):
        return (x[0] + y[0], x[1] + y[1])

    def mat_mul(x, y):
        return [[gadd(gmul(x[i][0], y[0][j]), gmul(x[i][1], y[1][j])) for j in (0, 1)]
                for i in (0, 1)]

    a, b, c, d = [(prefix[k], prefix[k + 1]) for k in range(0, 8, 2)]
    x1, x2, x3 = [(value[k], value[k + 1]) for k in range(0, 6, 2)]
    minus_x1 = (-x1[0], -x1[1])
    adj = [[d, (-b[0], -b[1])], [(-c[0], -c[1]), a]]
    exact = mat_mul(mat_mul([[a, b], [c, d]], [[x1, x2], [x3, minus_x1]]), adj)
    sign = 1 if letter > 0 else -1
    return tuple(sign * (part >> (2 * m2.FRAC_BITS))
                 for entry in (exact[0][0], exact[0][1], exact[1][0]) for part in entry)


def test_kernel_is_bit_identical_to_fixed_oracle():
    # the flat kernel floors every complex product as Fixed does, so images,
    # tables and prefixes reproduce the Fixed-tuple assembly bit for bit;
    # the walk floors once per step entry where the oracle's walk floors
    # twice per conjugation, so the two Grams may differ by no more than the
    # oracle's own rounding, which its worst cocycle residual (the relator
    # sum, exactly 0 unrounded) measures, and the health numbers stay within
    # twice the oracle's
    for graph, fn in bit_identity_cases():
        rep, cocycles = fd_basis_cocycles(graph, fn)
        images, tables = oracles.fixed_basis(graph, fn)
        assert rep.mp_images == {g: m2.flat(m) for g, m in images.items()}
        assert holonomy(graph, fn).mp_images == {
            g: m2.flat(m) for g, m in oracles.fixed_holonomy(graph, fn).items()}
        assert [u.flat for u in cocycles] == [
            {g: m2.flat(m) for g, m in table.items()} for table in tables]
        relator = rep.presentation.relator
        fixed_prefixes = oracles.fixed_relator_prefixes(relator, images)
        assert rep.prefixes(relator) == [m2.flat(p) for p in fixed_prefixes]
        gram = cocycle_gram(rep, cocycles)
        matrix, asymmetry, residual = oracles.fixed_cocycle_gram(
            relator, tables, fixed_prefixes)
        assert np.max(np.abs(np.asarray(gram.matrix) - matrix)) <= residual
        assert gram.raw_asymmetry <= 2 * asymmetry
        assert gram.cocycle_residual <= 2 * residual


# sha256 of the working-precision images and coordinate cocycle tables of
# the cases below, as the jet assembly first produced them.  The Fixed oracle
# shares m2.exp and pants.leaf_entries with the kernel, so it cannot see a
# change to the bits of either; these digests can.
HOLONOMY_DIGEST = "555b0b6636f29d6b67ba0a7cb099952e695110ad8aeea65f6f8c944fd4a1503a"
BASIS_DIGEST = "1c2f20fe07fb4d6f9a0b01182528eb1570ad7aef8929d94fd791e11a6b4417a7"


def digest_cases():
    yield from bit_identity_cases()
    rng = np.random.RandomState(2006)
    for graph in (GRAPH, surfaces.graph("genus2_separating"), GENUS3_CHAIN, GENUS4_CHAIN):
        for _ in range(2):
            n = graph.num_curves
            lengths = rng.uniform(1.0, 8.0, n) + 1j * rng.uniform(-0.3, 0.3, n)
            twists = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-0.3, 0.3, n)
            yield graph, FNCoordinates(lengths, twists)


def working_precision_digests(cases):
    images, tables = hashlib.sha256(), hashlib.sha256()
    for graph, fn in cases:
        images.update(repr(sorted(holonomy(graph, fn).mp_images.items())).encode())
        _rep, cocycles = fd_basis_cocycles(graph, fn)
        tables.update(repr([sorted(u.flat.items()) for u in cocycles]).encode())
    return images.hexdigest(), tables.hexdigest()


def test_working_precision_bits_match_pinned_digests():
    assert working_precision_digests(digest_cases()) == (HOLONOMY_DIGEST, BASIS_DIGEST)


def test_walk_floors_each_step_once():
    # a walk step is the exact p X adj(p), floored once per part, for the
    # prefix p of its letter; the sums are its exact running sums, and a
    # letter whose value is zero takes no step
    for graph, fn in bit_identity_cases():
        rep, cocycles = fd_basis_cocycles(graph, fn)
        relator = rep.presentation.relator
        prefixes = rep.prefixes(relator)
        actions = cocycles_module._actions(rep, relator)
        for u in cocycles:
            sums, (mask, *letters), closing = cocycles_module._walk(u, relator, actions)
            total, expected_sums, expected_letters, expected_mask = (0,) * 6, [], [], []
            for j, letter in enumerate(relator):
                value = u.flat[abs(letter)]
                step = (0,) * 6
                if any(value[:6]):
                    step = exact_step(prefixes[j if letter > 0 else j + 1], value, letter)
                    # the trace form tr(SL) = 2 s1 l1 + s2 l3 + s3 l2
                    expected_letters += [2 * step[0], 2 * step[1], *step[4:6], *step[2:4]]
                after = tuple(map(operator.add, total, step))
                expected_sums += total if letter > 0 else after
                expected_mask += [any(value[:6])] * 3
                total = after
            for parts, expected in ((sums, expected_sums), (letters, expected_letters)):
                re, im, plus = parts
                assert (re, im) == (expected[0::2], expected[1::2])
                assert plus == list(map(operator.add, re, im))
            assert mask == expected_mask
            assert closing == total


def test_jet_gram_matches_fd_oracle():
    for graph, fn in oracle_cases():
        gram = symplectic_gram(graph, fn)
        fd = fd_symplectic_gram(graph, fn)
        if graph is GENUS4_CHAIN:
            # the FD oracle's own error there is 1.4e-12
            assert darboux_residual(gram) <= 1e-18
            assert np.max(np.abs(np.asarray(gram.matrix) - np.asarray(fd.matrix))) <= 1e-11
        else:
            assert darboux_residual(gram) <= 1e-20
            assert np.max(np.abs(np.asarray(gram.matrix) - np.asarray(fd.matrix))) <= 1e-12
        assert gram.raw_asymmetry <= 1e-18
        assert gram.cocycle_residual <= 1e-18


def test_gram_runs_one_holonomy_assembly(monkeypatch):
    graph, fn = GENUS3_CHAIN, GENUS3.fn()
    calls = []
    assemble = surface.assemble

    def counted(*args):
        calls.append(args)
        return assemble(*args)

    # every binding of the assembly body: holonomy calls it through the
    # surface module, the cocycle basis through its own import
    monkeypatch.setattr(surface, "assemble", counted)
    monkeypatch.setattr(cocycles_module, "assemble", counted)
    gram = symplectic_gram(graph, fn)
    assert len(calls) == 1
    assert gram.size == 2 * len(fn)


def test_gram_builds_one_adjoint_action_per_relator_letter(monkeypatch):
    # all 2N walks share one exact adjoint action per relator letter, 4g in
    # all, and none is applied to a zero generator value: 8 of the 48 walk
    # steps on the standard genus-2 graph are skipped
    built, applied = [], []
    fadjoint, fadjoint_apply = m2.fadjoint, m2.fadjoint_apply

    def counted_build(p):
        built.append(p)
        return fadjoint(p)

    def counted_apply(action, x):
        applied.append(x)
        return fadjoint_apply(action, x)

    monkeypatch.setattr(m2, "fadjoint", counted_build)
    monkeypatch.setattr(m2, "fadjoint_apply", counted_apply)
    for graph, fn in [(GRAPH, FN), *oracle_cases()]:
        rep, cocycles = fd_basis_cocycles(graph, fn)
        relator = rep.presentation.relator
        built.clear()
        applied.clear()
        gram = cocycle_gram(rep, cocycles)
        assert len(built) == len(relator) == 2 * rep.presentation.num_generators
        assert all(any(x[:6]) for x in applied)
        steps = [u.flat[abs(letter)] for u in cocycles for letter in relator]
        assert len(applied) == sum(any(value[:6]) for value in steps) < len(steps)
        if graph is GRAPH:
            assert len(steps) - len(applied) == 8
        assert darboux_residual(gram) <= 1e-18


def test_health_numbers_past_complex128_fail_typed():
    # at lengths 100 the relator sum of a basis cocycle exceeds complex128:
    # it raises the typed error that the Gram and the pairing raise there,
    # not OverflowError
    rep, basis = fd_basis_cocycles(GENUS3_CHAIN, genus3_at(100.0).fn())
    with pytest.raises(surface.DegenerateFN, match="cocycle_residual"):
        cocycle_residual(basis[0])
    with pytest.raises(surface.DegenerateFN, match="cocycle_gram"):
        cocycle_gram(rep, basis)
    with pytest.raises(surface.DegenerateFN, match="goldman_pairing"):
        goldman_pairing(basis[0], basis[1])


def test_darboux_at_genus3_lengths_12(tmp_path):
    # 34-digit mpmath held the FD oracle to 2.4e-4 at lengths 12, and its
    # exact-derivative Gram to 5.5e-5 at lengths 16 and 2.7e4 at lengths 20;
    # an absolute 2^-192 leaves room to spare at all three
    for length in (12.0, 16.0, 20.0):
        config = genus3_at(length, tol=1e-12)
        assert darboux_residual(symplectic_gram(GENUS3_CHAIN, config.fn())) <= 1e-12
        path = tmp_path / f"chain_{length:g}.json"
        path.write_text(config_to_json(config))
        assert cli_main(["darboux-check", str(path)]) == 0


def test_gram_past_its_precision_fails_typed(tmp_path, capsys):
    # the frontier of the working precision on the genus-3 chain: at
    # lengths 30 the Darboux residual reads 1.44e-15 (as before the adjoint
    # walk); at lengths 40 the basis cocycles miss the relator by about 0.1,
    # so their Gram is garbage: both commands name the stage and the
    # quantity and exit 1 instead of printing it; at lengths 20 they pass
    at_30 = symplectic_gram(GENUS3_CHAIN, genus3_at(30.0).fn())
    assert darboux_residual(at_30) <= 2e-15
    for length, code in ((20.0, 0), (40.0, 1)):
        config = genus3_at(length)
        path = tmp_path / f"chain_{length:g}.json"
        path.write_text(config_to_json(config))
        for command in ("gram", "darboux-check"):
            assert cli_main([command, str(path)]) == code
            out = capsys.readouterr().out
            if code:
                assert out.startswith("FAIL cocycle_gram: cocycle_residual ")
                assert out.count("\n") == 1


def test_gram_makes_no_mpmath_arithmetic(monkeypatch):
    # the working scalar is fixed point, exp included: no mpmath number
    # takes part in the assembly
    from mpmath.ctx_mp_python import _mpc, _mpf

    calls = []

    def counted(function):
        def wrapper(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)
        return wrapper

    operators = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__",
                 "__pos__", "__abs__"}
    for cls in (_mpf, _mpc):
        for name in operators & set(vars(cls)):
            monkeypatch.setattr(cls, name, counted(vars(cls)[name]))
    monkeypatch.setattr(mp, "fdot", counted(mp.fdot))
    # the counters see mpmath arithmetic where there is some
    mp.fdot([mp.mpc(1) * 2], [mp.mpf(3) + 1])
    assert len(calls) == 3
    calls.clear()

    gram = symplectic_gram(GENUS3_CHAIN, GENUS3.fn())
    assert darboux_residual(gram) <= 1e-40
    assert calls == []


def test_gram_multiplies_jets_only_in_leaf_formulas(monkeypatch):
    # the kernel multiplies matrix jets as flat ints; scalar jets are
    # multiplied only where the leaf formulas evaluate their entries, once
    # per pants: 36 times in a genus3.json Gram (the dict-Jet assembly made
    # 520, and evaluating the cuff terms once for the boundary matrices and
    # again for the frames 56)
    calls = Counter()

    def counted(function):
        def wrapper(self, other):
            calls[sys._getframe(1).f_code.co_name] += 1
            return function(self, other)
        return wrapper

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(m2.Jet, name, counted(vars(m2.Jet)[name]))
    gram = symplectic_gram(GENUS3_CHAIN, GENUS3.fn())
    assert darboux_residual(gram) <= 1e-40
    assert set(calls) <= {"leaf_entries", "inverse_entries"}
    assert 0 < sum(calls.values()) <= 36


@pytest.mark.parametrize("command, name, bound", [
    ("lengths", "genus2_fuchsian.json", 43), ("lengths", "genus3.json", 59),
    ("gram", "genus2_fuchsian.json", 263), ("gram", "genus3.json", 420),
])
def test_commands_form_each_flat_product_once(monkeypatch, capsys, command, name, bound):
    # the bounds are the measured counts: each gluing map takes two
    # products, with the axis flip folded into a leaf, and a prefix that
    # several words share (the relator and the marking words, c5 in c3 in
    # genus 3) is formed once
    calls = Counter()
    fmul = m2.fmul

    def counted(x, y):
        calls[sys._getframe(1).f_code.co_name] += 1
        return fmul(x, y)

    monkeypatch.setattr(m2, "fmul", counted)
    path = resources.files("qfsurface.data").joinpath(name)
    assert cli_main([command, str(path)]) == 0
    capsys.readouterr()
    assert 0 < sum(calls.values()) <= bound, calls


# no shrink phase: the FD oracle costs about 0.1 s per draw, and shrinking a
# failure would take minutes; the failing draw is reported as drawn
@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(stem=st.sampled_from(["genus2_fuchsian", "genus2_separating"]),
       lengths=st.lists(surfaces.complex_coordinate(1.0, 4.0), min_size=3, max_size=3),
       twists=st.lists(surfaces.complex_coordinate(-1.0, 1.0), min_size=3, max_size=3))
def test_jet_gram_over_genus2_box(stem, lengths, twists):
    fn = FNCoordinates(lengths, twists)
    gram = symplectic_gram(surfaces.graph(stem), fn)
    assert darboux_residual(gram) <= 1e-18
    fd = fd_symplectic_gram(surfaces.graph(stem), fn)
    assert np.max(np.abs(np.asarray(gram.matrix) - np.asarray(fd.matrix))) <= 1e-12


def test_canonical_form_shape():
    j = canonical_form(2)
    assert j.shape == (4, 4)
    assert np.allclose(j @ j, -np.eye(4))
