"""The complex128 Moebius references of tests/oracles.py: fixed points of
a loxodromic matrix and the complex distance between oriented geodesics,
against independent constructions; and the normalization of complex lengths
that both the references and the package use."""

import cmath
import math

import numpy as np
import pytest

import oracles
from oracles import (
    OrientedGeodesic,
    ProjectivePoint,
    SharedEndpoint,
    complex_distance,
    fixed_points,
    random_sl2,
)
from qfsurface.surface import NotLoxodromic, normalize_complex_length

E = np.diag([math.e, 1.0 / math.e]).astype(complex)


def image(matrix, point):
    """The point moved by the Moebius map of the matrix."""
    return ProjectivePoint(*(matrix @ [point.z, point.w]))


def real_geodesic_pole(x, y):
    """Hyperboloid-model pole of the H^2 geodesic with real endpoints x, y."""
    # Ideal point t on R maps to the lightlike vector (2t, t^2 - 1, t^2 + 1)
    # in signature (+, +, -); the pole is the unit spacelike normal.
    def light(t):
        return np.array([2.0 * t, t * t - 1.0, t * t + 1.0])

    a, b = light(x), light(y)
    g = np.diag([1.0, 1.0, -1.0])
    pole = np.cross((g @ a), (g @ b))
    norm2 = pole @ g @ pole
    return pole / math.sqrt(norm2)


def real_distance_oracle(g1, g2):
    """cosh(dist) via Minkowski inner product of poles (real endpoints only)."""
    g = np.diag([1.0, 1.0, -1.0])
    n1 = real_geodesic_pole(g1[0], g1[1])
    n2 = real_geodesic_pole(g2[0], g2[1])
    return abs(n1 @ g @ n2)


def test_fixed_points_diagonal_and_conjugated():
    g = fixed_points(E)
    assert g.repelling.close_to(ProjectivePoint(0.0, 1.0))
    assert g.attracting.close_to(ProjectivePoint.infinity())

    s = np.array([[0, 1], [-1, 0]], dtype=complex)
    g2 = fixed_points(s @ E @ np.linalg.inv(s))
    assert g2.repelling.close_to(ProjectivePoint.infinity())
    assert g2.attracting.close_to(ProjectivePoint(0.0, 1.0))


def test_fixed_points_residual_and_equivariance():
    rng = np.random.RandomState(000 + 5)
    for _ in range(30):
        m = random_sl2(rng)
        lam = cmath.exp(0.7 + 0.4j)
        a = m @ np.diag([lam, 1.0 / lam]) @ np.linalg.inv(m)
        g = fixed_points(a)
        for pt in (g.repelling, g.attracting):
            assert image(a, pt).chordal_distance(pt) <= 1e-10
        conj = m @ a @ np.linalg.inv(m)
        gc = fixed_points(conj)
        assert gc.repelling.close_to(image(m, g.repelling), 1e-10)
        assert gc.attracting.close_to(image(m, g.attracting), 1e-10)


def test_fixed_points_rejects_elliptic():
    rot = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]], dtype=complex)
    with pytest.raises(NotLoxodromic):
        fixed_points(rot)


def test_complex_distance_quarter_turn():
    g1 = OrientedGeodesic(ProjectivePoint(1.0), ProjectivePoint(-1.0))
    g2 = OrientedGeodesic(ProjectivePoint(1j), ProjectivePoint(-1j))
    sigma = complex_distance(g1, g2)
    assert abs(sigma - 1j * math.pi / 2.0) <= 1e-10


def test_complex_distance_same_geodesic():
    g1 = OrientedGeodesic(ProjectivePoint(1.0), ProjectivePoint(-1.0))
    assert abs(complex_distance(g1, g1)) <= 1e-12
    assert abs(complex_distance(g1, g1.reversed()) - 1j * math.pi) <= 1e-12


def test_complex_distance_real_translates():
    for t in (0.5, 1.0, 2.3):
        g1 = OrientedGeodesic(ProjectivePoint(1.0), ProjectivePoint(-1.0))
        g2 = OrientedGeodesic(ProjectivePoint(math.exp(t)), ProjectivePoint(-math.exp(t)))
        sigma = complex_distance(g1, g2)
        assert abs(sigma - t) <= 1e-10


def test_complex_distance_real_oracle():
    rng = np.random.RandomState(000 + 6)
    # Disjoint geodesics with real endpoints: the hyperboloid-model pole
    # product gives cosh of the distance, entirely independently.
    for _ in range(30):
        pts = np.sort(rng.uniform(-4.0, 4.0, size=4))
        if min(np.diff(pts)) < 0.2:
            continue
        # Nested pairs (disjoint geodesics): (p0, p3) and (p1, p2).
        g1 = OrientedGeodesic(ProjectivePoint(pts[0]), ProjectivePoint(pts[3]))
        g2 = OrientedGeodesic(ProjectivePoint(pts[1]), ProjectivePoint(pts[2]))
        sigma = complex_distance(g1, g2)
        expect = real_distance_oracle((pts[0], pts[3]), (pts[1], pts[2]))
        assert abs(math.cosh(sigma.real) - expect) <= 1e-9
        assert abs(abs(sigma.imag) - math.pi) <= 1e-9 or abs(sigma.imag) <= 1e-9


def test_complex_distance_via_cross_ratio_oracle():
    rng = np.random.RandomState(000 + 7)
    # tanh^2(sigma/2) equals the cross ratio of the four endpoints taken in
    # the order (rep1, att1; rep2, att2).
    for _ in range(40):
        z = rng.randn(4) + 1j * rng.randn(4)
        try:
            g1 = OrientedGeodesic(ProjectivePoint(z[0]), ProjectivePoint(z[1]))
            g2 = OrientedGeodesic(ProjectivePoint(z[2]), ProjectivePoint(z[3]))
            sigma = complex_distance(g1, g2)
        except SharedEndpoint:
            continue
        cr = ((z[0] - z[2]) * (z[1] - z[3])) / ((z[0] - z[3]) * (z[1] - z[2]))
        assert abs(cmath.tanh(sigma / 2.0) ** 2 - cr) <= 1e-8 * max(1.0, abs(cr))


def test_complex_distance_symmetric_real_part():
    rng = np.random.RandomState(000 + 8)
    for _ in range(20):
        z = rng.randn(4) + 1j * rng.randn(4)
        g1 = OrientedGeodesic(ProjectivePoint(z[0]), ProjectivePoint(z[1]))
        g2 = OrientedGeodesic(ProjectivePoint(z[2]), ProjectivePoint(z[3]))
        s12 = complex_distance(g1, g2)
        s21 = complex_distance(g2, g1)
        assert abs(s12.real - s21.real) <= 1e-10


def test_complex_distance_matches_half_turn_oracle():
    # the closed form against the eigen-solve construction it replaced;
    # scaling every endpoint by one factor is an isometry of H^3
    rng = np.random.RandomState(000 + 9)

    def pair(z, scale):
        return (OrientedGeodesic(ProjectivePoint(scale * z[0]), ProjectivePoint(scale * z[1])),
                OrientedGeodesic(ProjectivePoint(scale * z[2]), ProjectivePoint(scale * z[3])))

    for _ in range(200):
        z = rng.randn(4) + 1j * rng.randn(4)
        for scale in (1.0, 10.0 ** rng.uniform(-4.0, 4.0)):
            g1, g2 = pair(z, scale)
            sigma = complex_distance(g1, g2)
            expected = oracles.complex_distance_by_half_turns(g1, g2)
            assert abs(sigma.real - expected.real) <= 1e-12
            assert abs(math.remainder(sigma.imag - expected.imag, 2.0 * math.pi)) <= 1e-12
    # intersecting geodesics: sigma is i times the angle, Im >= 0; the
    # oracle may return -sigma, because its real part rounds either way
    for _ in range(50):
        z = np.sort(rng.uniform(-4.0, 4.0, size=4))[[0, 2, 1, 3]] + 0j
        g1, g2 = pair(z, 10.0 ** rng.uniform(-4.0, 4.0))
        sigma = complex_distance(g1, g2)
        expected = oracles.complex_distance_by_half_turns(g1, g2)
        assert abs(sigma.real) <= 1e-13 and sigma.imag >= 0.0
        assert abs(sigma.imag - abs(expected.imag)) <= 1e-12


def test_complex_distance_shared_endpoint():
    g1 = OrientedGeodesic(ProjectivePoint(0.0), ProjectivePoint(1.0))
    g2 = OrientedGeodesic(ProjectivePoint(1.0), ProjectivePoint(2.0))
    with pytest.raises(SharedEndpoint):
        complex_distance(g1, g2)


def test_normalize_complex_length():
    assert abs(normalize_complex_length(1.0 + 7.0j) - (1.0 + (7.0 - 2 * math.pi) * 1j)) <= 1e-12
    assert normalize_complex_length(2.0 - 1j * math.pi).imag == pytest.approx(math.pi)
    assert normalize_complex_length(0.5 + 1j * math.pi).imag == pytest.approx(math.pi)
