import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfsurface.moebius import MoebiusMap, NotLoxodromic, classify, normalize_complex_length
from qfsurface.presentation import PantsDecompositionGraph
from qfsurface.surface import (
    BranchFailure,
    DegenerateFN,
    FNCoordinates,
    UnknownGenerator,
    complex_length_of_curve,
    fuchsian_residual,
    holonomy,
    twist_flow,
)



def standard_graph():
    return PantsDecompositionGraph(2, [
        ("alpha1", (0, 0), (1, 0)),
        ("alpha2", (0, 1), (1, 1)),
        ("alpha3", (0, 2), (1, 2)),
    ])


def separating_graph():
    return PantsDecompositionGraph(2, [
        ("alpha1", (0, 0), (0, 1)),
        ("alpha2", (0, 2), (1, 0)),
        ("alpha3", (1, 1), (1, 2)),
    ])


def genus3_graph():
    return PantsDecompositionGraph(4, [
        ("c1", (0, 0), (0, 1)), ("c2", (0, 2), (1, 0)), ("c3", (1, 1), (2, 0)),
        ("c4", (1, 2), (2, 1)), ("c5", (2, 2), (3, 0)), ("c6", (3, 1), (3, 2)),
    ])


def random_fn(rng, n, lmax=4.0, imag=0.3):
    lengths = [rng.uniform(1.0, lmax) + 1j * rng.uniform(-imag, imag) for _ in range(n)]
    twists = [rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-imag, imag) for _ in range(n)]
    return FNCoordinates(lengths, twists)


def test_fuchsian_point_real_matrices():
    rep = holonomy(standard_graph(), FNCoordinates([2.0, 2.0, 2.0], [0.0, 0.0, 0.0]))
    for g in rep.mp_images:
        m = rep.matrix_of_word((g,))
        assert float(np.max(np.abs(m.imag))) <= 1e-9
    assert rep.relator_residual() <= 1e-9


def test_relator_and_round_trip_over_box():
    rng = np.random.RandomState(2300 + 1)
    graph = standard_graph()
    for _ in range(20):
        fn = random_fn(rng, 3)
        rep = holonomy(graph, fn)
        assert rep.relator_residual() <= 1e-9
        for k, label in enumerate(graph.curve_labels):
            got = complex_length_of_curve(rep, rep.curve_word(label))
            assert abs(got - fn.lengths[k]) <= 1e-9


def test_relator_and_round_trip_other_graphs():
    rng = np.random.RandomState(2300 + 2)
    # genus 3 gets a slightly tamer box: residuals scale with the largest
    # holonomy entries, which grow exponentially in length times tree depth
    for graph, lmax in ((separating_graph(), 4.0), (genus3_graph(), 3.0)):
        for _ in range(8):
            fn = random_fn(rng, graph.num_curves, lmax=lmax)
            rep = holonomy(graph, fn)
            assert rep.relator_residual() <= 1e-9
            for k, label in enumerate(graph.curve_labels):
                got = complex_length_of_curve(rep, rep.curve_word(label))
                assert abs(got - fn.lengths[k]) <= 1e-9


def test_bending_keeps_trace_identities():
    graph = standard_graph()
    fn = FNCoordinates([2.0, 2.0, 2.0], [0.0, 0.0, 0.0])
    bent = twist_flow(fn, 0, 0.1j)
    rep = holonomy(graph, bent)
    assert rep.relator_residual() <= 1e-9
    # non-real now
    assert max(float(np.max(np.abs(rep.matrix_of_word((g,)).imag)))
               for g in rep.mp_images) > 1e-4
    for k, label in enumerate(graph.curve_labels):
        got = complex_length_of_curve(rep, rep.curve_word(label))
        assert abs(got - bent.lengths[k]) <= 1e-9


def complex_coordinate(real_lo, real_hi):
    return st.builds(complex, st.floats(real_lo, real_hi), st.floats(-0.3, 0.3))


# up to lengths 20 the entries reach about 1e11 and their cancellations in
# the relator and the curve traces still hold at the working precision
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(graph=st.sampled_from([standard_graph, separating_graph, genus3_graph]),
       lengths=st.lists(complex_coordinate(1.0, 20.0), min_size=6, max_size=6),
       twists=st.lists(complex_coordinate(-1.0, 1.0), min_size=6, max_size=6))
def test_relator_and_round_trip_up_to_lengths_20(graph, lengths, twists):
    graph = graph()
    n = graph.num_curves
    try:
        fn = FNCoordinates(lengths[:n], twists[:n])
        rep = holonomy(graph, fn)
        residual = rep.relator_residual()
        errors = [abs(complex_length_of_curve(rep, rep.curve_word(label)) - fn.lengths[k])
                  for k, label in enumerate(graph.curve_labels)]
    except (DegenerateFN, BranchFailure, NotLoxodromic):
        return
    assert residual <= 1e-9
    assert max(errors) <= 1e-9


def test_twist_flow_additivity_and_identity():
    fn = FNCoordinates([2.0, 2.5, 3.0], [0.3, -0.4, 0.1])
    assert twist_flow(fn, 1, 0.0).twists == fn.twists
    once = twist_flow(twist_flow(fn, 1, 0.2 + 0.1j), 1, -0.5j)
    direct = twist_flow(fn, 1, 0.2 + 0.1j - 0.5j)
    assert max(abs(a - b) for a, b in zip(once.twists, direct.twists)) == 0.0


def test_twist_invariance_of_all_curve_traces():
    graph = standard_graph()
    fn = FNCoordinates([2.0, 2.5, 3.0], [0.3, -0.4, 0.1])
    base = holonomy(graph, fn)
    base_traces = [np.trace(base.matrix_of_word(base.curve_word(l)))
                   for l in graph.curve_labels]
    for i in range(3):
        for t in (0.7, 0.3 + 0.25j, 1j * 0.2):
            moved = holonomy(graph, twist_flow(fn, i, t))
            for label, tr in zip(graph.curve_labels, base_traces):
                got = np.trace(moved.matrix_of_word(moved.curve_word(label)))
                assert abs(got - tr) <= 1e-10


def test_twist_periodicity():
    graph = standard_graph()
    fn = FNCoordinates([2.0, 2.5, 3.0], [0.3, -0.4, 0.1])
    rep0 = holonomy(graph, fn)
    rep1 = holonomy(graph, twist_flow(fn, 0, 2j * math.pi))
    for gen in rep0.mp_images:
        m0 = rep0.matrix_of_word((gen,))
        m1 = rep1.matrix_of_word((gen,))
        assert min(np.max(np.abs(m1 - m0)), np.max(np.abs(m1 + m0))) <= 1e-10


def test_matrix_of_word_basics():
    rep = holonomy(standard_graph(), FNCoordinates([2.0, 2.5, 3.0], [0.3, -0.4, 0.1]))

    def image(word):
        return MoebiusMap(rep.matrix_of_word(word), normalize=False)

    assert image(()).distance_to_identity() == 0.0
    assert image(rep.presentation.relator).distance_to_identity() <= 1e-9
    word = (1, 2, -1)
    prod = image(word + tuple(-x for x in reversed(word)))
    assert prod.distance_to_identity() <= 1e-12
    with pytest.raises(UnknownGenerator):
        rep.matrix_of_word((9,))


def test_length_is_class_function():
    graph = standard_graph()
    rep = holonomy(graph, FNCoordinates([2.0, 2.5, 3.0], [0.3, -0.4, 0.1]))
    word = rep.curve_word("alpha2")
    for v in ((1,), (-2,), (3,)):
        conj = v + word + tuple(-x for x in reversed(v))
        assert abs(complex_length_of_curve(rep, word)
                   - complex_length_of_curve(rep, conj)) <= 1e-10


def test_fuchsian_residual_behaviour():
    graph = standard_graph()
    real_fn = FNCoordinates([2.0, 2.5, 3.0], [0.3, -0.4, 0.1])
    assert fuchsian_residual(holonomy(graph, real_fn)) <= 1e-9
    bent = holonomy(graph, twist_flow(real_fn, 0, 0.1j))
    assert fuchsian_residual(bent) >= 1e-3
    long_bent = holonomy(graph, real_fn.shifted(0, "l", 0.1j))
    assert fuchsian_residual(long_bent) >= 1e-3


def test_fuchsian_residual_conjugation_stable():
    rng = np.random.RandomState(2300 + 3)
    graph = standard_graph()
    rep = holonomy(graph, FNCoordinates([2.0, 2.5, 3.0], [0.3, -0.4, 0.1]))
    m = MoebiusMap(rng.randn(2, 2) + 1j * rng.randn(2, 2))
    conjugated = rep.conjugated(m)
    assert fuchsian_residual(conjugated) <= 1e-8


def test_fuchsian_residual_is_exact_on_real_long_points():
    # every trace of a real point is real at the working precision, so the
    # residual is exactly zero however large the entries grow
    for length in (40.0, 100.0):
        fn = FNCoordinates([length] * 3, [0.0] * 3)
        assert fuchsian_residual(holonomy(standard_graph(), fn)) == 0.0


def test_evaluate_past_complex128_is_typed():
    # the working-precision images are fine, but the traces of the test
    # words pass 2^1024 when rounded to complex128; the error names its stage
    long_rep = holonomy(genus3_graph(), FNCoordinates([150.0] * 6, [0.1] * 6))
    with pytest.raises(DegenerateFN, match="^fuchsian_residual: "):
        fuchsian_residual(long_rep)


def test_fn_validation_and_branch_guard():
    with pytest.raises(DegenerateFN):
        FNCoordinates([-1.0, 2.0, 2.0], [0.0, 0.0, 0.0])
    # a fixed-point lift holds no NaN or infinity
    for bad in (math.nan, complex(2.0, math.inf)):
        with pytest.raises(DegenerateFN):
            FNCoordinates([2.0, bad, 2.0], [0.0, 0.0, 0.0])
        with pytest.raises(DegenerateFN):
            FNCoordinates([2.0, 2.0, 2.0], [0.0, 0.0, bad])
    graph = standard_graph()
    with pytest.raises(BranchFailure):
        holonomy(graph, FNCoordinates([2.0 + 3.14j, 2.0, 2.0], [0.0, 0.0, 0.0]))
    with pytest.raises(DegenerateFN):
        holonomy(graph, FNCoordinates([2.0, 2.0], [0.0, 0.0]))
    # cosh of the half-length overflows complex128 in the pants check
    with pytest.raises(DegenerateFN):
        holonomy(graph, FNCoordinates([2000.0, 2.0, 2.0], [0.0, 0.0, 0.0]))


def test_entries_entire_in_coordinates():
    # central second difference of an entry stays bounded: no branch jumps
    graph = standard_graph()
    fn = FNCoordinates([2.0, 2.5, 3.0], [0.3, -0.4, 0.1])
    h = 1e-4
    for kind in ("l", "tau"):
        for direction in (1.0, 1j):
            plus = holonomy(graph, fn.shifted(0, kind, h * direction))
            minus = holonomy(graph, fn.shifted(0, kind, -h * direction))
            center = holonomy(graph, fn)
            for gen in center.mp_images:
                second = (plus.matrix_of_word((gen,)) - 2 * center.matrix_of_word((gen,))
                          + minus.matrix_of_word((gen,)))
                assert np.max(np.abs(second)) <= 1e-2
