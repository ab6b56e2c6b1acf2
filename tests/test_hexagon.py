import math

import numpy as np
import pytest

from qfsurface.hexagon import DegenerateSide, Hexagon, hexagon_residuals, solve_hexagon

from oracles import real_hexagon_even_sides


IPI = 1j * math.pi


def random_triple(rng):
    return tuple(rng.uniform(0.5, 3.0) + 1j * rng.uniform(-0.5, 0.5) for _ in range(3))


def test_symmetric_real_input():
    s = 2.0 + IPI
    hexagon = solve_hexagon(s, s, s)
    evens = [hexagon[1], hexagon[3], hexagon[5]]
    for e in evens:
        assert abs(e - evens[0]) <= 1e-12
    cos_res, sin_res = hexagon_residuals(hexagon)
    assert cos_res <= 1e-10 and sin_res <= 1e-10


def test_real_case_against_hyperboloid_oracle():
    # A planar hexagon carries the i*pi shift on every side in the complex
    # conventions; the solver output must match the explicit construction
    # after removing that shift.
    for a in [(2.0, 2.0, 2.0), (1.0, 1.5, 2.0), (0.7, 2.5, 1.2), (3.0, 0.5, 1.0)]:
        hexagon = solve_hexagon(a[0] + IPI, a[1] + IPI, a[2] + IPI)
        s2, s4, s6 = real_hexagon_even_sides(*a)
        for got, expect in ((hexagon[1], s2), (hexagon[3], s4), (hexagon[5], s6)):
            assert abs(got.real - expect) <= 1e-9
            assert abs(abs(got.imag) - math.pi) <= 1e-9


def cylinder_distance(a, b):
    """Distance between complex lengths modulo the 2*pi*i period."""
    from qfsurface.surface import normalize_complex_length

    return abs(normalize_complex_length(a - b))


def test_perturbation_continuity():
    eps = 1e-6
    # unshifted real inputs: even sides sit far from the Im-wrap seam
    base = solve_hexagon(2.0, 2.0, 2.0)
    bumped = solve_hexagon(2.0 + eps * 1j, 2.0, 2.0)
    delta = abs(bumped[3] - base[3])
    assert 0 < delta < 50 * eps
    # shifted real inputs: sides have Im = pi exactly, continuity holds on
    # the cylinder (the stored representative may wrap across the seam)
    base = solve_hexagon(2.0 + IPI, 2.0 + IPI, 2.0 + IPI)
    bumped = solve_hexagon(2.0 + eps * 1j + IPI, 2.0 + IPI, 2.0 + IPI)
    assert cylinder_distance(bumped[3], base[3]) < 50 * eps


def test_solver_residuals_random_box():
    rng = np.random.RandomState(1100 + 1)
    for _ in range(100):
        s1, s3, s5 = random_triple(rng)
        hexagon = solve_hexagon(s1, s3, s5)
        cos_res, sin_res = hexagon_residuals(hexagon)
        assert cos_res <= 1e-10
        assert sin_res <= 1e-10


def test_residual_sensitivity():
    hexagon = solve_hexagon(2.0 + IPI, 2.0 + IPI, 2.0 + IPI)
    sides = list(hexagon.sides)
    sides[1] += 1e-3
    cos_res, _ = hexagon_residuals(Hexagon(sides))
    assert cos_res >= 1e-4


def test_cyclic_symmetry_of_solver():
    rng = np.random.RandomState(1100 + 2)
    s1, s3, s5 = random_triple(rng)
    h_a = solve_hexagon(s1, s3, s5)
    h_b = solve_hexagon(s3, s5, s1)
    # cyclic relabeling: side k of h_b is side k+2 of h_a
    rotated = [h_a[(k + 2) % 6] for k in range(6)]
    for x, y in zip(rotated, h_b.sides):
        assert abs(x - y) <= 1e-10 or abs(x + y) <= 1e-10


def test_degenerate_side_rejected():
    with pytest.raises(DegenerateSide):
        solve_hexagon(IPI, 2.0, 2.0)  # sinh(i*pi) = 0


def test_oracle_built_hexagon_satisfies_rules():
    # assemble the full side list from the independent construction and
    # feed it straight into the residual check
    for a in [(2.0, 2.0, 2.0), (1.3, 0.8, 2.2)]:
        s2, s4, s6 = real_hexagon_even_sides(*a)
        hexagon = Hexagon([a[0] + IPI, s2 + IPI, a[1] + IPI,
                           s4 + IPI, a[2] + IPI, s6 + IPI])
        cos_res, sin_res = hexagon_residuals(hexagon)
        assert cos_res <= 1e-10
        assert sin_res <= 1e-10
