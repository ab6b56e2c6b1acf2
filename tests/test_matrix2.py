"""The fixed-point scalar against mpmath at 100 digits or more.

Errors are counted in units of 2^-FRAC_BITS, per real component, and the
bounds are fixed by how each operation rounds:

* ``+`` and ``-`` are exact: 0 units;
* ``*`` and ``/`` do exact integer work and floor once: the result lies in
  (exact - 1, exact];
* ``exp`` floors a value evaluated to about 2^-17 units: within 2 units.

The reference runs at 100 digits, plus the decimal digits of the result
above 1 for ``exp``, so its own rounding is below 1e-20 units for every
drawn magnitude, far inside each bound.

The flat kernel and its matrix jets are checked against the same formulas
on Fixed and Jet entries, which they must reproduce bit for bit.
"""

import math

import mpmath as mp
from hypothesis import given, settings, strategies as st

from qfsurface import matrix2 as m2

UNIT = mp.mpf(2) ** -m2.FRAC_BITS
REFERENCE_SLACK = 1e-20

# each component zero or of magnitude 1e-6 to 1e12, either sign
components = st.one_of(
    st.just(0.0),
    st.builds(lambda exponent, sign: sign * 10.0 ** exponent,
              st.floats(-6.0, 12.0), st.sampled_from([1.0, -1.0])))
magnitudes = st.builds(complex, components, components).filter(bool)
# arguments of exp: results from e^-355 to e^355, phases from 1e-6 to 1e3;
# the assembly takes exp(l / 4), and validate_pants rejects Re l above
# about 1420
exponents = st.builds(complex, st.floats(-355.0, 355.0),
                      st.one_of(st.floats(-1e3, -1e-6), st.floats(1e-6, 1e3)))

fixed_settings = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def exact(x):
    return mp.mpc(mp.mpf(x.re) * UNIT, mp.mpf(x.im) * UNIT)


def error_units(result, reference):
    """Signed errors (reference - result) of both components, in units."""
    return (reference.real / UNIT - result.re, reference.imag / UNIT - result.im)


def assert_floored(result, reference):
    for error in error_units(result, reference):
        assert -REFERENCE_SLACK <= error < 1 + REFERENCE_SLACK


def assert_within(result, reference, units):
    for error in error_units(result, reference):
        assert abs(error) <= units


@fixed_settings
@given(x=magnitudes, y=magnitudes)
def test_arithmetic_rounds_once(x, y):
    # lifted doubles end in zero bits, so their products are exact; thirds
    # and sevenths fill all FRAC_BITS
    a, b = m2.lift(x) / 3, m2.lift(y) / 7
    with mp.workdps(100):
        ea, eb = exact(a), exact(b)
        assert_within(a + b, ea + eb, 0)
        assert_within(a - b, ea - eb, 0)
        assert_floored(a * b, ea * eb)
        assert_floored(a / b, ea / eb)


@fixed_settings
@given(z=exponents)
def test_transcendentals_within_two_units(z):
    # a lifted double ends in some 130 zero bits, which exp shifts out of
    # its products; a third fills all FRAC_BITS
    with mp.workdps(100 + max(0, math.ceil(z.real / math.log(10)))):
        for w in (m2.lift(z), m2.lift(z) / 3):
            assert_within(m2.exp(w), mp.exp(exact(w)), 2)


@fixed_settings
@given(x=magnitudes)
def test_complex128_round_trip_is_exact(x):
    assert complex(m2.lift(x)) == x
    # the lift is exact, so mpmath sees the same number
    with mp.workdps(100):
        assert exact(m2.lift(x)) == mp.mpc(x)


# parts of Fixed entries: ~230-bit magnitudes of either sign, small
# negatives and positives (where floor and truncation part), zero and +-1
wide = st.builds(lambda bits, low, sign: sign * ((1 << bits) + low),
                 st.integers(225, 235), st.integers(0, 1 << 200), st.sampled_from([1, -1]))
parts = st.one_of(wide, st.integers(-(1 << 40), 1 << 40),
                  st.sampled_from([0, 1 << m2.FRAC_BITS, -(1 << m2.FRAC_BITS)]))
fixed = st.builds(m2.Fixed, parts, parts)
# leaf entries: mostly Fixed, some the plain ints of the normal forms; and
# dense leaves, whose every product has a fraction to floor
entries = st.one_of(fixed, fixed, st.sampled_from([0, 1, -1]))
dense = st.builds(m2.Fixed, wide, wide)
leaves = st.one_of(st.tuples(entries, entries, entries, entries),
                   st.tuples(dense, dense, dense, dense))


def fixed_product(x, y):
    """x y by Fixed arithmetic, entry by entry as the leaf formulas multiply."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


@fixed_settings
@given(x=leaves, y=leaves)
def test_kernel_product_matches_fixed_products(x, y):
    assert m2.fmul(m2.flat(x), m2.flat(y)) == m2.flat(fixed_product(x, y))
    assert m2.fadj(m2.flat(x)) == m2.flat((x[3], -x[1], -x[2], x[0]))
    s = m2.lift(y[0])
    assert m2.fscale(m2.flat(x), s) == m2.flat(tuple(s * e for e in x))
    a, b, c, d = map(m2.lift, x)
    half = (a + d) / 2
    assert m2.ftraceless(m2.flat(x)) == m2.flat((a - half, b, c, d - half))


def jet_leaves(directions):
    """Leaves whose Fixed entries carry gradients in some of the directions."""
    gradient = st.dictionaries(st.integers(0, directions - 1), fixed,
                               max_size=directions)

    def attach(entry, grad):
        return m2.Jet(entry, grad) if isinstance(entry, m2.Fixed) and grad else entry

    entry = st.builds(attach, st.one_of(entries, dense), gradient)
    return st.tuples(entry, entry, entry, entry)


@fixed_settings
@given(x=jet_leaves(3), y=jet_leaves(3))
def test_matrix_jet_product_matches_jet_products(x, y):
    value, grads = m2.jet_mul(m2.flat_jet(x, 3), m2.flat_jet(y, 3))
    expected_value, expected_grads = m2.flat_jet(fixed_product(x, y), 3)
    assert value == expected_value
    # a gradient dropped by a product with 0 is a zero derivative
    assert [g or m2.FZERO for g in grads] == [g or m2.FZERO for g in expected_grads]
