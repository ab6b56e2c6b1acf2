import cmath

import numpy as np
import pytest

from qfsurface.schwarzian import (
    CriticalPoint,
    HolomorphicSample,
    cocycle_check,
    exp_sample,
    moebius_sample,
    polynomial_sample,
    schwarzian_at,
)


def random_moebius(rng):
    while True:
        a, b, c, d = rng.randn(4) + 1j * rng.randn(4)
        if abs(a * d - b * c) > 0.1:
            return moebius_sample(a, b, c, d)


def random_base_point(rng, sample):
    # keep away from the pole of a Moebius map
    for _ in range(100):
        z0 = rng.randn() + 1j * rng.randn()
        try:
            d1 = sample.derivatives(z0)[0]
        except ZeroDivisionError:
            continue
        if abs(d1) > 1e-3:
            return z0
    raise RuntimeError("no usable base point")


def test_moebius_kernel():
    rng = np.random.RandomState(4101)
    for _ in range(50):
        sample = random_moebius(rng)
        z0 = random_base_point(rng, sample)
        assert abs(schwarzian_at(sample, z0)) <= 1e-8


def test_square_map_value():
    sample = polynomial_sample([0.0, 0.0, 1.0])  # z^2
    assert abs(schwarzian_at(sample, 1.0) - (-1.5)) <= 1e-10
    # general point: S(z^2) = -3/(2 z^2)
    for z0 in (0.5, 2.0, 1.0 + 1.0j):
        expected = -1.5 / (z0 * z0)
        assert abs(schwarzian_at(sample, z0) - expected) <= 1e-9


def test_exp_value():
    sample = exp_sample()
    for z0 in (0.0, 1.0, -0.7 + 0.4j):
        assert abs(schwarzian_at(sample, z0) - (-0.5)) <= 1e-10


def test_numeric_stencil_matches_exact():
    exact = polynomial_sample([0.3, 1.0, -0.4, 0.2])
    numeric = HolomorphicSample(exact.f, radius=1.0)
    # the stencil route is limited by roundoff in the third derivative
    for z0 in (0.1, 0.4 + 0.2j, -0.3):
        assert abs(schwarzian_at(exact, z0) - schwarzian_at(numeric, z0)) <= 1e-7


def test_critical_point_rejected():
    sample = polynomial_sample([0.0, 0.0, 1.0])  # z^2, critical at 0
    with pytest.raises(CriticalPoint):
        schwarzian_at(sample, 0.0)


def test_cocycle_moebius_cases():
    rng = np.random.RandomState(4102)
    f_poly = polynomial_sample([0.1, 1.0, 0.05, 0.02])
    for _ in range(20):
        g = random_moebius(rng)
        z0 = random_base_point(rng, f_poly)
        if abs(g.f(f_poly.f(z0)) ) > 1e6:
            continue
        assert cocycle_check(f_poly, g, z0) <= 1e-8
    for _ in range(20):
        f = random_moebius(rng)
        z0 = random_base_point(rng, f)
        assert cocycle_check(f, exp_sample(0.5), z0) <= 1e-8


def test_cocycle_square_exp():
    f = polynomial_sample([0.0, 0.0, 1.0])
    g = exp_sample()
    assert cocycle_check(f, g, 1.0) <= 1e-6


def test_cocycle_random_family():
    rng = np.random.RandomState(4103)
    family = [
        polynomial_sample([0.2, 1.0, 0.1, 0.03]),
        polynomial_sample([0.0, 1.0, 0.0, 0.05]),
        exp_sample(0.7),
        exp_sample(1.0),
    ]
    count = 0
    while count < 30:
        f = family[rng.randint(len(family))]
        g = family[rng.randint(len(family))]
        z0 = 0.5 * (rng.randn() + 1j * rng.randn())
        try:
            residual = cocycle_check(f, g, z0)
        except CriticalPoint:
            continue
        assert residual <= 1e-6
        count += 1


def test_chart_scaling_law():
    # precomposition with w -> lam w multiplies the Schwarzian by lam^2
    sample = polynomial_sample([0.1, 1.0, -0.2, 0.4])
    rng = np.random.RandomState(4104)
    for _ in range(10):
        lam = 0.5 + rng.rand() + 1j * 0.3 * rng.randn()
        z0 = 0.3 * (rng.randn() + 1j * rng.randn())
        scaled = HolomorphicSample(
            lambda z, lam=lam: sample.f(lam * z),
            lambda z, lam=lam: lam * sample.df(lam * z),
            lambda z, lam=lam: lam * lam * sample.d2f(lam * z),
            lambda z, lam=lam: lam ** 3 * sample.d3f(lam * z),
        )
        lhs = schwarzian_at(scaled, z0)
        rhs = lam * lam * schwarzian_at(sample, lam * z0)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))
