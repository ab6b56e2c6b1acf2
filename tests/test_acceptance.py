"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
summary lines alongside the pytest verdicts.
"""

import cmath
import math
import time

import numpy as np
import pytest

from qfsurface.cocycles import (
    canonical_form,
    coboundary,
    cocycle_residual,
    darboux_residual,
    goldman_pairing,
    symplectic_gram,
)
from qfsurface.hexagon import hexagon_residuals, solve_hexagon
from qfsurface.limitset import limit_set
from qfsurface.schwarzian import SELFTEST_DRAWS, selftest
from qfsurface.surface import (
    FNCoordinates,
    complex_length_of_curve,
    holonomy,
    twist_flow,
)
from qfsurface.cocycles import TangentCocycle
from qfsurface import matrix2 as m2

import surfaces
from oracles import (
    cocycle_scale,
    conjugated,
    cross_ratio_imag_spread,
    fd_basis_cocycles,
    fd_symplectic_gram,
    fuchsian_residual,
    linear_combination,
    pants_entries,
    random_sl2,
    real_hexagon_even_sides,
    rounded,
)

GRAPH = surfaces.graph("genus2_fuchsian")
FN_FUCHSIAN = surfaces.fn("genus2_fuchsian")
FN_COMPLEX = surfaces.fn("genus2_quasifuchsian")
FD_STEP = 1e-4


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert passed, detail


# Criteria 1-4 hold for the exact (jet) Gram and for the Gram over the
# finite-difference oracle's cocycles at FD_STEP; each fixture holds both.
@pytest.fixture(scope="module")
def gram_fuchsian():
    t0 = time.time()
    gram = symplectic_gram(GRAPH, FN_FUCHSIAN)
    runtime = time.time() - t0
    return (gram, fd_symplectic_gram(GRAPH, FN_FUCHSIAN, h=FD_STEP)), runtime


@pytest.fixture(scope="module")
def gram_complex():
    return symplectic_gram(GRAPH, FN_COMPLEX), fd_symplectic_gram(GRAPH, FN_COMPLEX, h=FD_STEP)


def test_criterion_1_darboux_fuchsian(gram_fuchsian):
    (gram, fd_gram), runtime = gram_fuchsian
    residual = darboux_residual(gram)
    fd_residual = darboux_residual(fd_gram)
    report(
        1,
        max(residual, fd_residual) <= 1e-4 and runtime <= 5.0,
        f"Fuchsian Darboux residual {residual:.3e} exact, {fd_residual:.3e} at "
        f"fd_step {FD_STEP:g} (<= 1e-4), runtime {runtime:.2f}s (<= 5s)",
    )


def test_criterion_2_darboux_complex(gram_complex):
    residual, fd_residual = (darboux_residual(gram) for gram in gram_complex)
    report(
        2,
        max(residual, fd_residual) <= 1e-4,
        f"quasi-Fuchsian Darboux residual {residual:.3e} exact, {fd_residual:.3e} "
        f"at fd_step {FD_STEP:g} (<= 1e-4)",
    )


def test_criterion_3_block_structure(gram_fuchsian, gram_complex):
    worst = 0.0
    for gram in (*gram_fuchsian[0], *gram_complex):
        n = gram.size // 2
        matrix = np.asarray(gram.matrix)
        worst = max(worst, float(np.max(np.abs(matrix[:n, :n]))))
        worst = max(worst, float(np.max(np.abs(matrix[n:, n:]))))
    report(
        3,
        worst <= 1e-4,
        f"length-length and twist-twist blocks bounded by {worst:.3e} (<= 1e-4)",
    )


def test_criterion_4_hamiltonian_twist_rows(gram_fuchsian, gram_complex):
    worst = 0.0
    for gram in (*gram_fuchsian[0], *gram_complex):
        n = gram.size // 2
        matrix = np.asarray(gram.matrix)
        for i in range(n):
            target = np.zeros(2 * n)
            target[i] = -1.0
            worst = max(worst, float(np.max(np.abs(matrix[n + i] - target))))
    report(
        4,
        worst <= 1e-4,
        f"twist rows equal -e_i within {worst:.3e} (<= 1e-4)",
    )


def test_criterion_5_fd_convergence(gram_fuchsian):
    coarse = darboux_residual(fd_symplectic_gram(GRAPH, FN_FUCHSIAN, h=1e-3))
    fine = darboux_residual(gram_fuchsian[0][1])
    ratio = coarse / fine
    report(
        5,
        ratio >= 50.0,
        f"darboux residual drops {ratio:.1f}x from fd_step 1e-3 to 1e-4 (>= 50x)",
    )


def test_criterion_6_construction_residuals():
    rng = np.random.RandomState(600)
    worst_relator = 0.0
    worst_trace = 0.0
    worst_round_trip = 0.0
    for _ in range(20):
        lengths = [rng.uniform(1.0, 4.0) + 1j * rng.uniform(-0.3, 0.3) for _ in range(3)]
        twists = [rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-0.3, 0.3) for _ in range(3)]
        fn = FNCoordinates(lengths, twists)
        rep = holonomy(GRAPH, fn)
        worst_relator = max(worst_relator, rep.relator_residual())
        for k, label in enumerate(GRAPH.curve_labels):
            got = complex_length_of_curve(rep, rep.curve_word(label))
            worst_round_trip = max(worst_round_trip, abs(got - fn.lengths[k]))
        for v in range(GRAPH.num_pants):
            sigmas = [fn.lengths[k] / 2.0 for k in GRAPH.pants_cuffs[v]]
            for mat, sigma in zip(rounded(pants_entries, sigmas), sigmas):
                trace = mat[0, 0] + mat[1, 1]
                worst_trace = max(worst_trace, abs(trace + 2.0 * cmath.cosh(sigma)))
    passed = worst_relator <= 1e-9 and worst_trace <= 1e-12 and worst_round_trip <= 1e-9
    report(
        6,
        passed,
        f"relator {worst_relator:.2e} (<= 1e-9), pants traces {worst_trace:.2e} "
        f"(<= 1e-12), length round trip {worst_round_trip:.2e} (<= 1e-9), 20 draws",
    )


def test_criterion_7_hexagon_suite():
    rng = np.random.RandomState(700)
    worst = 0.0
    for _ in range(100):
        triple = [rng.uniform(0.5, 3.0) + 1j * rng.uniform(-0.5, 0.5) for _ in range(3)]
        hexagon = solve_hexagon(*triple)
        worst = max(worst, *hexagon_residuals(hexagon))
    oracle_worst = 0.0
    for a in [(2.0, 2.0, 2.0), (1.0, 1.5, 2.0), (0.7, 2.5, 1.2)]:
        # a planar hexagon carries the i*pi shift on every side
        hexagon = solve_hexagon(a[0] + 1j * math.pi, a[1] + 1j * math.pi,
                                a[2] + 1j * math.pi)
        s2, s4, s6 = real_hexagon_even_sides(*a)
        for got, expect in ((hexagon[1], s2), (hexagon[3], s4), (hexagon[5], s6)):
            oracle_worst = max(oracle_worst, abs(got.real - expect),
                               abs(abs(got.imag) - math.pi))
    passed = worst <= 1e-10 and oracle_worst <= 1e-8
    report(
        7,
        passed,
        f"sine/cosine residuals {worst:.2e} (<= 1e-10) on 100 draws; "
        f"hyperboloid oracle deviation {oracle_worst:.2e} after the i*pi shift",
    )


def test_criterion_8_cohomology_suite():
    rng = np.random.RandomState(800)
    rep, cocycles = fd_basis_cocycles(GRAPH, FN_FUCHSIAN, h=FD_STEP)

    def random_traceless():
        m = rng.randn(2, 2) + 1j * rng.randn(2, 2)
        m[1, 1] = -m[0, 0]
        return m

    worst_margin = 0.0
    # coboundary pairing vanishing + antisymmetry, 100 trials
    for _ in range(100):
        cb = coboundary(random_traceless(), rep)
        v = cocycles[rng.randint(len(cocycles))]
        bound = 10 * (cocycle_residual(cb) + cocycle_residual(v)) * max(
            cocycle_scale(cb), cocycle_scale(v)
        ) + 1e-9
        value = abs(goldman_pairing(cb, v))
        anti = abs(goldman_pairing(cb, v) + goldman_pairing(v, cb))
        worst_margin = max(worst_margin, value / bound, anti / bound)
    coboundary_ok = worst_margin <= 1.0

    # antisymmetry across the FD basis
    anti_ok = True
    for _ in range(100):
        a, b = rng.randint(len(cocycles), size=2)
        u, v = cocycles[a], cocycles[b]
        bound = 10 * (cocycle_residual(u) + cocycle_residual(v)) * max(
            cocycle_scale(u), cocycle_scale(v)
        ) + 1e-9
        if abs(goldman_pairing(u, v) + goldman_pairing(v, u)) > bound:
            anti_ok = False

    # bilinearity to roundoff
    u, up, v = cocycles[0], cocycles[2], cocycles[4]
    a, b = 0.37 - 1.1j, 2.2 + 0.5j
    lhs = goldman_pairing(linear_combination([(a, u), (b, up)]), v)
    rhs = a * goldman_pairing(u, v) + b * goldman_pairing(up, v)
    bilinear_ok = abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    # gauge invariance under global conjugation
    m = random_sl2(rng)
    conj = conjugated(rep, m)
    minv = np.linalg.inv(m)
    moved = [
        TangentCocycle(conj, {g: m2.flat_from_array(m @ m2.flat_to_complex(u.flat[g]) @ minv)
                              for g in u.flat})
        for u in cocycles
    ]
    gauge_worst = 0.0
    for a in range(len(cocycles)):
        for b in range(len(cocycles)):
            if a == b:
                continue
            before = goldman_pairing(cocycles[a], cocycles[b])
            after = goldman_pairing(moved[a], moved[b])
            gauge_worst = max(gauge_worst, abs(before - after))
    gauge_ok = gauge_worst <= 1e-6

    passed = coboundary_ok and anti_ok and bilinear_ok and gauge_ok
    report(
        8,
        passed,
        f"coboundary/antisymmetry margin {worst_margin:.2f} (<= 1), bilinearity "
        f"{'ok' if bilinear_ok else 'BROKEN'}, gauge drift {gauge_worst:.2e} (<= 1e-6)",
    )


def test_criterion_9_schwarzian_suite():
    worst_kernel, worst_cocycle = selftest(np.random.RandomState(900))
    passed = worst_kernel <= 1e-8 and worst_cocycle <= 1e-6
    report(
        9,
        passed,
        f"Moebius kernel {worst_kernel:.2e} (<= 1e-8, {SELFTEST_DRAWS} trials), "
        f"composition cocycle {worst_cocycle:.2e} (<= 1e-6)",
    )


def test_criterion_10_fuchsian_limit_set():
    rep = holonomy(GRAPH, FN_FUCHSIAN)
    residual = fuchsian_residual(rep)
    cloud = limit_set(rep, 6)
    rng = np.random.RandomState(1000)
    round_spread = cross_ratio_imag_spread(cloud, 200, rng)

    bent_fn = twist_flow(FN_FUCHSIAN, 0, 0.2j)
    bent = holonomy(GRAPH, bent_fn)
    bent_cloud = limit_set(bent, 6)
    bent_spread = cross_ratio_imag_spread(bent_cloud, 200, rng)

    worst_trace = 0.0
    for label in GRAPH.curve_labels:
        tr_base = np.trace(rep.matrix_of_word(rep.curve_word(label)))
        tr_bent = np.trace(bent.matrix_of_word(bent.curve_word(label)))
        worst_trace = max(worst_trace, abs(tr_base - tr_bent))

    passed = (residual <= 1e-9 and round_spread <= 1e-8
              and bent_spread >= 1e-3 and worst_trace <= 1e-10)
    report(
        10,
        passed,
        f"fuchsian residual {residual:.2e} (<= 1e-9), round cross-ratio "
        f"{round_spread:.2e} (<= 1e-8), bent cross-ratio {bent_spread:.2e} "
        f"(>= 1e-3), trace drift {worst_trace:.2e} (<= 1e-10)",
    )
