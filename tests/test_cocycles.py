from importlib import resources

import mpmath as mp
import numpy as np
import pytest

from qfsurface import matrix2 as m2
from oracles import pairing_by_prefix_walk
from qfsurface.cocycles import (
    BaseMismatch,
    COEFFICIENT_SCALE,
    STEP,
    SymplecticGram,
    TangentCocycle,
    canonical_form,
    coboundary,
    cocycle_residual,
    cocycle_scale,
    darboux_residual,
    fd_basis_cocycles,
    fd_tangent_cocycle,
    goldman_pairing,
    symplectic_gram,
)
from qfsurface.config import parse_config
from qfsurface.moebius import MoebiusMap
from qfsurface.presentation import PantsDecompositionGraph
from qfsurface.surface import ASSEMBLY_DPS, FNCoordinates, holonomy


def standard_graph():
    return PantsDecompositionGraph(2, [
        ("alpha1", (0, 0), (1, 0)),
        ("alpha2", (0, 1), (1, 1)),
        ("alpha3", (0, 2), (1, 2)),
    ])


GRAPH = standard_graph()
FN = FNCoordinates([2.0, 2.5, 3.0], [0.3, -0.4, 0.1])

# the genus-3 chain of test_gram_other_graphs extended by two pants
GENUS4_CHAIN = PantsDecompositionGraph(6, [
    ("c1", (0, 0), (0, 1)), ("c2", (0, 2), (1, 0)), ("c3", (1, 1), (2, 0)),
    ("c4", (1, 2), (2, 1)), ("c5", (2, 2), (3, 0)), ("c6", (3, 1), (4, 0)),
    ("c7", (3, 2), (4, 1)), ("c8", (4, 2), (5, 0)), ("c9", (5, 1), (5, 2)),
])
FN4 = FNCoordinates([2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8],
                    [0.1, -0.2, 0.3, 0.0, 0.2, -0.1, 0.4, -0.3, 0.15])


@pytest.fixture(scope="module")
def base():
    rep, cocycles = fd_basis_cocycles(GRAPH, FN, h=1e-4)
    return rep, cocycles


def random_traceless(rng):
    m = rng.randn(2, 2) + 1j * rng.randn(2, 2)
    m[1, 1] = -m[0, 0]
    return m


def test_cocycle_on_empty_word(base):
    rep, cocycles = base
    value = cocycles[0].evaluate(())
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
            1.0, max(float(np.max(np.abs(m.astype(complex)))) for m in cb.table.values())
        )
    zero = coboundary(np.zeros((2, 2)), rep)
    assert cocycle_residual(zero) == 0.0


def test_corrupted_cocycle_detected(base):
    rep, cocycles = base
    table = dict(cocycles[0].table)
    table[1] = np.zeros((2, 2))
    broken = TangentCocycle(rep, table)
    assert cocycle_residual(broken) > 100 * cocycle_residual(cocycles[0])


def test_trace_variation_identities():
    rep = holonomy(GRAPH, FN)
    h = 3e-6
    for i, label in enumerate(GRAPH.curve_labels):
        word = rep.curve_word(label)
        m = rep.matrix_of_word(word).astype(complex)
        u_tau = fd_tangent_cocycle(GRAPH, FN, "tau", i, h, base=rep)
        variation = np.trace(u_tau.evaluate(word).astype(complex) @ m)
        assert abs(variation) <= 1e-6
        u_l = fd_tangent_cocycle(GRAPH, FN, "l", i, h, base=rep)
        variation_l = np.trace(u_l.evaluate(word).astype(complex) @ m)
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
    combo = u.scaled(a).plus(up.scaled(b))
    lhs = goldman_pairing(combo, v)
    rhs = a * goldman_pairing(u, v) + b * goldman_pairing(up, v)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_scaling_and_sums_keep_working_precision(base):
    _rep, cocycles = base
    u = cocycles[0]
    with mp.workdps(ASSEMBLY_DPS):
        third = mp.mpf(1) / 3
    once = u.scaled(third)
    for back in (once.scaled(3), once.plus(once).plus(once)):
        with mp.workdps(ASSEMBLY_DPS):
            error = max(m2.fmax_abs(m2.fadd(back.flat[g], m2.fscale(u.flat[g], -1)))
                        for g in u.flat)
        assert error <= 1e-25 * cocycle_scale(u)


def test_pairing_coboundary_invariance(base):
    rng = np.random.RandomState(3100 + 3)
    rep, cocycles = base
    v = cocycles[3]
    base_value = goldman_pairing(cocycles[0], v)
    for _ in range(100):
        w = random_traceless(rng)
        shifted = cocycles[0].plus(coboundary(w, rep))
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
    bare = goldman_pairing(cocycles[0], cocycles[3], coefficient_scale=1.0)
    assert abs(bare - 0.5) <= 1e-4


def test_gram_canonical_fuchsian_and_complex():
    for fn in (
        FN,
        FNCoordinates(
            [2.0 + 0.1j, 2.5 - 0.05j, 3.0 + 0.08j],
            [0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.15j],
        ),
    ):
        gram = symplectic_gram(GRAPH, fn, h=1e-4)
        assert darboux_residual(gram) <= 1e-4
        n = gram.size // 2
        assert np.max(np.abs(gram.matrix[:n, :n])) <= 1e-4
        assert np.max(np.abs(gram.matrix[n:, n:])) <= 1e-4
        for i in range(n):
            row = gram.matrix[n + i]
            target = np.zeros(2 * n)
            target[i] = -1.0
            assert np.max(np.abs(row - target)) <= 1e-4


def test_gram_fd_convergence():
    coarse = darboux_residual(symplectic_gram(GRAPH, FN, h=1e-3))
    fine = darboux_residual(symplectic_gram(GRAPH, FN, h=1e-4))
    assert coarse / fine >= 50.0
    # the verdict does not hinge on the step: the default and ten times it
    # both sit far below any tolerance a config states
    for h in (STEP, 10 * STEP):
        assert darboux_residual(symplectic_gram(GRAPH, FN, h=h)) <= 1e-12


def test_gram_corruption_detected():
    gram = symplectic_gram(GRAPH, FN, h=1e-4)
    swapped = gram.matrix.copy()
    swapped[:, [3, 4]] = swapped[:, [4, 3]]
    corrupted = SymplecticGram(swapped, gram.raw_asymmetry, gram.cocycle_residual)
    assert darboux_residual(corrupted) >= 1.0


def test_gram_gauge_invariance():
    rng = np.random.RandomState(3100 + 6)
    gram = symplectic_gram(GRAPH, FN, h=1e-4)
    m = MoebiusMap(rng.randn(2, 2) + 1j * rng.randn(2, 2))

    rep, cocycles = fd_basis_cocycles(GRAPH, FN, h=1e-4)
    conj = rep.conjugated(m)
    tables = [
        {g: m.m @ u.table[g] @ np.linalg.inv(m.m) for g in u.table}
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
    separating = PantsDecompositionGraph(2, [
        ("alpha1", (0, 0), (0, 1)),
        ("alpha2", (0, 2), (1, 0)),
        ("alpha3", (1, 1), (1, 2)),
    ])
    gram = symplectic_gram(separating, FN)
    assert darboux_residual(gram) <= 1e-10
    genus3 = PantsDecompositionGraph(4, [
        ("c1", (0, 0), (0, 1)), ("c2", (0, 2), (1, 0)), ("c3", (1, 1), (2, 0)),
        ("c4", (1, 2), (2, 1)), ("c5", (2, 2), (3, 0)), ("c6", (3, 1), (3, 2)),
    ])
    fn3 = FNCoordinates([2.0, 2.1, 2.2, 2.3, 2.4, 2.5],
                        [0.1, -0.2, 0.3, 0.0, 0.2, -0.1])
    gram3 = symplectic_gram(genus3, fn3)
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
    for name in ("genus2_fuchsian.json", "genus2_quasifuchsian.json",
                 "genus2_separating.json", "genus3.json"):
        config = parse_config(
            resources.files("qfsurface.data").joinpath(name).read_text())
        graph = config.graph()
        yield graph, config.fn(graph)
    yield GENUS4_CHAIN, FN4


def test_gram_matches_prefix_walk_oracle():
    for graph, fn in oracle_cases():
        _rep, cocycles = fd_basis_cocycles(graph, fn)
        raw = oracle_raw(cocycles)
        gram = symplectic_gram(graph, fn)
        assert np.max(np.abs(gram.matrix - (raw - raw.T) / 2.0)) <= 1e-20
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
    gram = symplectic_gram(GRAPH, FN, h=1e-3)
    _rep, cocycles = fd_basis_cocycles(GRAPH, FN, h=1e-3)
    raw = oracle_raw(cocycles)
    expected = float(np.max(np.abs(raw + raw.T)))
    assert gram.raw_asymmetry > 1e-10
    assert abs(gram.raw_asymmetry - expected) <= 1e-12 * expected


def test_pairing_matches_oracle_on_combinations(base):
    rng = np.random.RandomState(3100 + 8)
    rep, cocycles = base
    u, up, v = cocycles[0], cocycles[1], cocycles[4]
    combo = u.scaled(0.7 - 0.2j).plus(up.scaled(-1.3 + 0.4j))
    cb = coboundary(random_traceless(rng), rep)
    shifted = cocycles[2].plus(coboundary(random_traceless(rng), rep))
    for x, y in ((combo, v), (v, combo), (cb, v), (v, cb), (shifted, u),
                 (cb, shifted)):
        assert abs(goldman_pairing(x, y) - pairing_by_prefix_walk(x, y)) <= 1e-20


def test_gram_reports_worst_cocycle_residual(base):
    _rep, cocycles = base
    gram = symplectic_gram(GRAPH, FN, h=1e-4)
    worst = max(cocycle_residual(u) for u in cocycles)
    assert worst > 0.0
    assert abs(gram.cocycle_residual - worst) <= 1e-20 * worst


def test_canonical_form_shape():
    j = canonical_form(2)
    assert j.shape == (4, 4)
    assert np.allclose(j @ j, -np.eye(4))
