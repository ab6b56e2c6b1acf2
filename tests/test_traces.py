"""The trace pipeline of :mod:`qfsurface.surface`: complex lengths from
traces (:func:`displacement_from_trace`), against the eigenvalue logarithm
and numpy's complex arccosh."""

import cmath
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import random_sl2
from qfsurface.surface import _lift_trace, displacement_from_trace, normalize_complex_length

E = np.diag([math.e, 1.0 / math.e]).astype(complex)


def displacement_by_eigenvalue_log(matrix):
    """Independent route: twice the log of the expanding eigenvalue."""
    eigvals = np.linalg.eigvals(matrix)
    lam = eigvals[np.argmax(np.abs(eigvals))]
    return normalize_complex_length(2.0 * cmath.log(lam))


def test_displacement_diagonal():
    assert abs(displacement_from_trace(math.e + 1.0 / math.e) - 2.0) <= 1e-12
    lam = cmath.exp((1.0 + 1.0j) / 2.0)
    phi = displacement_from_trace(lam + 1.0 / lam)
    assert abs(phi - (1.0 + 1.0j)) <= 1e-12


def test_displacement_conjugation_invariance_and_oracle():
    rng = np.random.RandomState(000 + 3)
    for _ in range(30):
        m = random_sl2(rng)
        conj = m @ E @ np.linalg.inv(m)
        phi = displacement_from_trace(np.trace(conj))
        assert abs(phi - 2.0) <= 1e-10
        assert abs(phi - displacement_by_eigenvalue_log(conj)) <= 1e-10


def test_displacement_matches_eigenvalue_log_on_random_loxodromics():
    rng = np.random.RandomState(000 + 4)
    for _ in range(50):
        lam = cmath.exp(rng.uniform(0.2, 1.5) + 1j * rng.uniform(-2.8, 2.8))
        m = random_sl2(rng)
        a = m @ np.diag([lam, 1.0 / lam]) @ np.linalg.inv(m)
        assert abs(displacement_from_trace(np.trace(a)) - displacement_by_eigenvalue_log(a)) <= 1e-9


def displacement_by_numpy_arccosh(trace):
    """The same lift and normalization around numpy's complex arccosh."""
    tr = _lift_trace(complex(trace))
    return normalize_complex_length(2.0 * complex(np.arccosh(tr / 2.0)))


def assert_displacements_agree(trace, ulps=4):
    # a few ulps of max(1, |phi|), Im compared modulo 2 pi (a value at the
    # +-pi seam may land on either side)
    phi, expected = displacement_from_trace(trace), displacement_by_numpy_arccosh(trace)
    gap = complex(phi.real - expected.real,
                  math.remainder(phi.imag - expected.imag, 2.0 * math.pi))
    assert abs(gap) <= ulps * math.ulp(max(1.0, abs(expected))), (trace, phi, expected)
    return phi, expected


def near_elliptic_trace(exponent, angle):
    """2 cosh(phi/2) for phi = 10**exponent + i angle: a curve whose length
    is tiny next to its angle, the trace just off the elliptic segment."""
    return 2.0 * cmath.cosh(complex(10.0 ** exponent, angle) / 2.0)


trace_part = st.one_of(st.floats(-8.0, 8.0), st.floats(-1e300, 1e300))
loxodromic_trace = st.one_of(
    st.builds(complex, trace_part, trace_part),
    st.builds(near_elliptic_trace, st.floats(-20.0, -3.0), st.floats(-2.0 * math.pi, 2.0 * math.pi)),
)
trace_settings = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@trace_settings
@given(trace=loxodromic_trace)
def test_displacement_from_trace_matches_numpy_on_loxodromic_traces(trace):
    if trace.imag == 0.0 and abs(trace.real) <= 2.0:
        return      # elliptic, parabolic or the identity
    phi, expected = assert_displacements_agree(trace)
    # the length to a few ulps of itself, however small next to the angle
    assert phi.real >= 0.0
    assert abs(phi.real - expected.real) <= 8 * math.ulp(expected.real), (trace, phi, expected)


@trace_settings
@given(re=st.one_of(st.floats(-2.0, 2.0), trace_part), zero=st.sampled_from([0.0, -0.0]))
def test_displacement_from_trace_on_real_traces(re, zero):
    trace = complex(re, zero)
    phi, expected = assert_displacements_agree(trace)
    assert math.copysign(1.0, phi.imag) == math.copysign(1.0, expected.imag)
    if abs(re) < 2.0:
        # elliptic: a pure rotation, with no rounding left in the real part
        assert phi.real == 0.0 == expected.real
