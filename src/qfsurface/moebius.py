"""Numerical SL2(C) algebra: Moebius maps, projective points, oriented
geodesics, and the complex distance / complex displacement primitives.

Conventions used throughout the package:

* Matrices are kept as SL2(C) lifts (unit determinant).  Trace-based
  formulas resolve the projective sign ambiguity by flipping the trace so
  that its real part is nonnegative, then take the principal arccosh of
  half of it with the standard library (see
  :func:`displacement_from_trace`).
* A "complex length" is a plain complex number with the real part a
  hyperbolic length and the imaginary part a rotation angle; values are
  reduced modulo 2*pi*i to the strip Im in (-pi, pi].
* Projective points are stored scaled so max(|z|, |w|) = 1, which keeps
  long word products away from overflow.

Only the matrix class and the functions that build or read its arrays
import numpy, so a trace-only caller starts without it.
"""

from __future__ import annotations

import cmath
import math

__all__ = [
    "MoebiusError",
    "ParabolicOrIdentity",
    "NotLoxodromic",
    "SharedEndpoint",
    "DegenerateGeodesic",
    "MoebiusMap",
    "ProjectivePoint",
    "OrientedGeodesic",
    "normalize_complex_length",
    "classify",
    "complex_displacement",
    "displacement_from_trace",
    "fixed_points",
    "apply",
    "complex_distance",
]

_DET_TOL = 1e-12
_POINT_TOL = 1e-12
_CLASSIFY_TOL = 1e-9


class MoebiusError(Exception):
    """Base class for errors raised by this module."""


class ParabolicOrIdentity(MoebiusError):
    """Complex displacement requested for a map without one."""


class NotLoxodromic(MoebiusError):
    """Axis/fixed-point extraction requested for a non-loxodromic map."""


class SharedEndpoint(MoebiusError):
    """Two geodesics share an ideal endpoint; their distance degenerates."""


class DegenerateGeodesic(MoebiusError):
    """Endpoints too close to span a geodesic."""


def normalize_complex_length(value):
    """Reduce a complex length modulo 2*pi*i so that Im lies in (-pi, pi]."""
    value = complex(value)
    im = math.remainder(value.imag, 2.0 * math.pi)
    if im <= -math.pi:
        im += 2.0 * math.pi
    return complex(value.real, im)


class ProjectivePoint:
    """Point of the complex projective line as a homogeneous pair (z : w)."""

    __slots__ = ("z", "w")

    def __init__(self, z, w=1.0):
        z = complex(z)
        w = complex(w)
        scale = max(abs(z), abs(w))
        if scale == 0.0:
            raise ValueError("(0 : 0) is not a projective point")
        self.z = z / scale
        self.w = w / scale

    @classmethod
    def infinity(cls):
        return cls(1.0, 0.0)

    @property
    def is_infinity(self):
        return abs(self.w) <= _POINT_TOL

    def as_complex(self):
        """Affine coordinate z/w; raises for the point at infinity."""
        if self.is_infinity:
            raise ZeroDivisionError("point at infinity has no affine coordinate")
        return self.z / self.w

    def chordal_distance(self, other):
        """Fubini-Study chordal distance; zero iff projectively equal."""
        num = abs(self.z * other.w - other.z * self.w)
        den = math.hypot(abs(self.z), abs(self.w)) * math.hypot(abs(other.z), abs(other.w))
        return num / den

    def close_to(self, other, tol=1e-10):
        return self.chordal_distance(other) <= tol

    def __repr__(self):
        return f"ProjectivePoint({self.z!r}, {self.w!r})"


class OrientedGeodesic:
    """Geodesic of H^3 oriented from its repelling to its attracting endpoint."""

    __slots__ = ("repelling", "attracting")

    def __init__(self, repelling, attracting):
        if not isinstance(repelling, ProjectivePoint):
            repelling = ProjectivePoint(repelling)
        if not isinstance(attracting, ProjectivePoint):
            attracting = ProjectivePoint(attracting)
        if repelling.chordal_distance(attracting) <= _POINT_TOL:
            raise DegenerateGeodesic("endpoints coincide")
        self.repelling = repelling
        self.attracting = attracting

    def reversed(self):
        return OrientedGeodesic(self.attracting, self.repelling)

    def __repr__(self):
        return f"OrientedGeodesic({self.repelling!r}, {self.attracting!r})"


class MoebiusMap:
    """Unit-determinant 2x2 complex matrix acting on the projective line."""

    __slots__ = ("m",)

    def __init__(self, entries, normalize=True):
        import numpy as np
        m = np.asarray(entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) < 1e-30:
            raise ValueError("matrix is singular")
        if normalize:
            m = m / cmath.sqrt(det)
        self.m = m
        self.m.setflags(write=False)

    @classmethod
    def identity(cls):
        return cls([[1.0, 0.0], [0.0, 1.0]], normalize=False)

    @classmethod
    def diagonal(cls, lam):
        lam = complex(lam)
        return cls([[lam, 0.0], [0.0, 1.0 / lam]], normalize=False)

    @classmethod
    def from_three_points(cls, p, q, r):
        """The map sending (0, infinity, 1) to (p, q, r)."""
        import numpy as np
        p = p if isinstance(p, ProjectivePoint) else ProjectivePoint(p)
        q = q if isinstance(q, ProjectivePoint) else ProjectivePoint(q)
        r = r if isinstance(r, ProjectivePoint) else ProjectivePoint(r)
        # Columns q, p scaled so their sum lands on r.
        mat = np.array([[q.z, p.z], [q.w, p.w]], dtype=complex)
        rhs = np.array([r.z, r.w], dtype=complex)
        coef = np.linalg.solve(mat, rhs)
        cols = mat * coef[np.newaxis, :]
        return cls(cols)

    @property
    def a(self):
        return self.m[0, 0]

    @property
    def b(self):
        return self.m[0, 1]

    @property
    def c(self):
        return self.m[1, 0]

    @property
    def d(self):
        return self.m[1, 1]

    def det(self):
        return self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0]

    def trace(self):
        return self.m[0, 0] + self.m[1, 1]

    def inverse(self):
        a, b, c, d = self.m[0, 0], self.m[0, 1], self.m[1, 0], self.m[1, 1]
        return MoebiusMap([[d, -b], [-c, a]], normalize=False)

    def __matmul__(self, other):
        return MoebiusMap(self.m @ other.m, normalize=True)

    def __call__(self, point):
        if isinstance(point, ProjectivePoint):
            return apply(self, point)
        return apply(self, ProjectivePoint(point)).as_complex()

    def distance_to_identity(self):
        """max-norm distance to the nearer of +I, -I."""
        import numpy as np
        eye = np.eye(2)
        return min(
            np.max(np.abs(self.m - eye)),
            np.max(np.abs(self.m + eye)),
        )

    def __repr__(self):
        return f"MoebiusMap({self.m.tolist()!r})"


def apply(mapping, point):
    import numpy as np
    if not isinstance(point, ProjectivePoint):
        point = ProjectivePoint(point)
    vec = mapping.m @ np.array([point.z, point.w])
    return ProjectivePoint(vec[0], vec[1])


def classify(mapping, tol=_CLASSIFY_TOL):
    """One of 'identity', 'parabolic', 'elliptic', 'loxodromic'."""
    if mapping.distance_to_identity() <= tol:
        return "identity"
    tr = mapping.trace()
    if abs(tr * tr - 4.0) <= tol:
        return "parabolic"
    if abs(tr.imag) <= tol and abs(tr.real) < 2.0:
        return "elliptic"
    return "loxodromic"


def _lift_trace(tr):
    """Resolve the PSL2 sign: flip so Re(tr) >= 0, tie-broken by Im."""
    if tr.real < 0.0 or (tr.real == 0.0 and tr.imag < 0.0):
        return -tr
    return tr


def displacement_from_trace(trace):
    """Solve 2 cosh(phi/2) = +-tr for the normalized representative.

    phi/2 is the principal arccosh of w = tr/2, taken from s = sqrt(w - 1)
    and t = sqrt(w + 1) as in Kahan's formula: Im(phi/2) is arg(w + s t),
    and Re(phi/2) is asinh(x), x = Re(conj(s) t) = sinh(Re(phi/2)), while
    x < 1, else log|w + s t|.  x adds two nonnegative products, so a small
    real part keeps its relative precision (a curve whose length is tiny
    next to its angle) and is exactly 0 on the elliptic segment |w| < 1;
    the logarithm reads large lengths back closer (``cmath.acosh``, which
    takes asinh(x) throughout, doubles the worst seeded-length error).
    """
    w = _lift_trace(complex(trace)) / 2.0
    s, t = cmath.sqrt(w - 1.0), cmath.sqrt(w + 1.0)
    half = cmath.log(w + s * t)
    x = s.real * t.real + s.imag * t.imag
    if x < 1.0:
        half = complex(math.asinh(x), half.imag)
    return normalize_complex_length(2.0 * half)


def complex_displacement(mapping, tol=_CLASSIFY_TOL):
    """Complex number phi with 2 cosh(phi/2) = tr, up to the lift sign.

    Re(phi) is the translation length, Im(phi) in (-pi, pi] the rotation
    angle.  Raises ParabolicOrIdentity when no displacement is defined.
    """
    kind = classify(mapping, tol)
    if kind in ("identity", "parabolic"):
        raise ParabolicOrIdentity(f"map is {kind}")
    return displacement_from_trace(mapping.trace())


def fixed_points(mapping, tol=_CLASSIFY_TOL):
    """Oriented axis of a loxodromic map, repelling then attracting point."""
    if classify(mapping, tol) != "loxodromic":
        raise NotLoxodromic("fixed points ordered by attraction need a loxodromic map")
    import numpy as np
    eigvals, eigvecs = np.linalg.eig(mapping.m)
    order = np.argsort(np.abs(eigvals))
    rep = ProjectivePoint(eigvecs[0, order[0]], eigvecs[1, order[0]])
    att = ProjectivePoint(eigvecs[0, order[1]], eigvecs[1, order[1]])
    return OrientedGeodesic(rep, att)


def complex_distance(g1, g2):
    """Complex distance between two oriented geodesics in H^3.

    In closed form, from the four endpoints (r1, a1) and (r2, a2):

        cosh(sigma) = -1 - 2 [a1, r2][r1, a2] / ([a1, r1][a2, r2]),

    with [p, q] = p.z q.w - q.z p.w; each endpoint enters the numerator and
    the denominator once, so the homogeneous scaling cancels.  sigma is the
    principal arccosh, normalized so Re >= 0 and Im in (-pi, pi].
    """
    r1, a1, r2, a2 = g1.repelling, g1.attracting, g2.repelling, g2.attracting
    if r1.close_to(r2, _POINT_TOL) and a1.close_to(a2, _POINT_TOL):
        return 0.0 + 0.0j
    if r1.close_to(a2, _POINT_TOL) and a1.close_to(r2, _POINT_TOL):
        return complex(0.0, math.pi)
    if any(e1.close_to(e2, _POINT_TOL) for e1 in (r1, a1) for e2 in (r2, a2)):
        raise SharedEndpoint("geodesics share an ideal endpoint")

    def bracket(p, q):
        return p.z * q.w - q.z * p.w

    ratio = bracket(a1, r2) * bracket(r1, a2) / (bracket(a1, r1) * bracket(a2, r2))
    sigma = cmath.acosh(-1.0 - 2.0 * ratio)
    if abs(sigma.real) <= 1e-13 and sigma.imag < 0.0:
        sigma = -sigma
    return normalize_complex_length(sigma)
