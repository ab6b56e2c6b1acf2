import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import surfaces
from oracles import conjugated, euler_number, fuchsian_residual, random_sl2
from qfsurface import matrix2 as m2
from qfsurface.surface import (
    BranchFailure,
    DegenerateFN,
    FNCoordinates,
    NotLoxodromic,
    Representation,
    UnknownGenerator,
    complex_length_of_curve,
    holonomy,
    twist_flow,
)



def random_fn(rng, n, lmax=4.0, imag=0.3):
    lengths = [rng.uniform(1.0, lmax) + 1j * rng.uniform(-imag, imag) for _ in range(n)]
    twists = [rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-imag, imag) for _ in range(n)]
    return FNCoordinates(lengths, twists)


def test_fuchsian_point_real_matrices():
    rep = holonomy(surfaces.graph("genus2_fuchsian"),
                   FNCoordinates([2.0, 2.0, 2.0], [0.0, 0.0, 0.0]))
    for g in rep.mp_images:
        m = rep.matrix_of_word((g,))
        assert float(np.max(np.abs(m.imag))) <= 1e-9
    assert rep.relator_residual() <= 1e-9


def test_relator_and_round_trip_over_box():
    rng = np.random.RandomState(2300 + 1)
    graph = surfaces.graph("genus2_fuchsian")
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
    for stem, lmax in (("genus2_separating", 4.0), ("genus3", 3.0)):
        graph = surfaces.graph(stem)
        for _ in range(8):
            fn = random_fn(rng, graph.num_curves, lmax=lmax)
            rep = holonomy(graph, fn)
            assert rep.relator_residual() <= 1e-9
            for k, label in enumerate(graph.curve_labels):
                got = complex_length_of_curve(rep, rep.curve_word(label))
                assert abs(got - fn.lengths[k]) <= 1e-9


def test_bending_keeps_trace_identities():
    graph = surfaces.graph("genus2_fuchsian")
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


# up to lengths 20 the entries reach about 1e11 and their cancellations in
# the relator and the curve traces still hold at the working precision
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(stem=st.sampled_from(["genus2_fuchsian", "genus2_separating", "genus3"]),
       lengths=st.lists(surfaces.complex_coordinate(1.0, 20.0), min_size=6, max_size=6),
       twists=st.lists(surfaces.complex_coordinate(-1.0, 1.0), min_size=6, max_size=6))
def test_relator_and_round_trip_up_to_lengths_20(stem, lengths, twists):
    graph = surfaces.graph(stem)
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
    fn = surfaces.fn("genus2_fuchsian")
    assert twist_flow(fn, 1, 0.0).twists == fn.twists
    once = twist_flow(twist_flow(fn, 1, 0.2 + 0.1j), 1, -0.5j)
    direct = twist_flow(fn, 1, 0.2 + 0.1j - 0.5j)
    assert max(abs(a - b) for a, b in zip(once.twists, direct.twists)) == 0.0


def test_twist_invariance_of_all_curve_traces():
    graph = surfaces.graph("genus2_fuchsian")
    fn = surfaces.fn("genus2_fuchsian")
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
    graph = surfaces.graph("genus2_fuchsian")
    fn = surfaces.fn("genus2_fuchsian")
    rep0 = holonomy(graph, fn)
    rep1 = holonomy(graph, twist_flow(fn, 0, 2j * math.pi))
    for gen in rep0.mp_images:
        m0 = rep0.matrix_of_word((gen,))
        m1 = rep1.matrix_of_word((gen,))
        assert min(np.max(np.abs(m1 - m0)), np.max(np.abs(m1 + m0))) <= 1e-10


def test_matrix_of_word_basics():
    rep = surfaces.representation("genus2_fuchsian")

    def distance_to_identity(word):
        m, eye = rep.matrix_of_word(word), np.eye(2)
        return min(np.max(np.abs(m - eye)), np.max(np.abs(m + eye)))

    assert distance_to_identity(()) == 0.0
    assert distance_to_identity(rep.presentation.relator) <= 1e-9
    word = (1, 2, -1)
    assert distance_to_identity(word + tuple(-x for x in reversed(word))) <= 1e-12
    with pytest.raises(UnknownGenerator):
        rep.matrix_of_word((9,))


@pytest.mark.parametrize("name", ["genus2_fuchsian.json", "genus3.json"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_memoized_prefixes_match_the_plain_fold(name, data):
    # a fresh memo per draw; words drawn in any order, each later one
    # continuing a cut of an earlier word or of the relator
    base = surfaces.representation(name.removesuffix(".json"))
    rep = Representation(base.presentation, base.mp_images)
    generators = sorted(rep.mp_images)
    letter = st.sampled_from(generators + [-g for g in generators])
    words = []
    for _ in range(data.draw(st.integers(1, 8))):
        stem = ()
        if words:
            source = data.draw(st.sampled_from(words + [rep.presentation.relator]))
            stem = source[:data.draw(st.integers(0, len(source)))]
        words.append(stem + tuple(data.draw(st.lists(letter, max_size=10))))
    for word in words + words[::-1]:
        plain = itertools.accumulate(map(rep.generator_flat, word), m2.fmul,
                                     initial=m2.FEYE)
        assert rep.prefixes(word) == list(plain)


def test_length_is_class_function():
    rep = surfaces.representation("genus2_fuchsian")
    word = rep.curve_word("alpha2")
    for v in ((1,), (-2,), (3,)):
        conj = v + word + tuple(-x for x in reversed(v))
        assert abs(complex_length_of_curve(rep, word)
                   - complex_length_of_curve(rep, conj)) <= 1e-10


def test_fuchsian_residual_behaviour():
    graph = surfaces.graph("genus2_fuchsian")
    real_fn = surfaces.fn("genus2_fuchsian")
    assert fuchsian_residual(holonomy(graph, real_fn)) <= 1e-9
    bent = holonomy(graph, twist_flow(real_fn, 0, 0.1j))
    assert fuchsian_residual(bent) >= 1e-3
    long_bent = holonomy(graph, real_fn.shifted(0, "l", 0.1j))
    assert fuchsian_residual(long_bent) >= 1e-3


def test_real_bundled_configs_are_discrete_and_faithful():
    # Goldman 1988: a representation into PSL2(R) is discrete and faithful
    # iff its Euler number is +-(2g - 2)
    for stem in ("genus2_fuchsian", "genus2_separating", "genus3"):
        rep = surfaces.representation(stem)
        for euler in euler_number(rep):
            assert abs(euler + 2 * rep.presentation.genus - 2) <= 1e-9, stem


def test_fuchsian_residual_conjugation_stable():
    rng = np.random.RandomState(2300 + 3)
    rep = surfaces.representation("genus2_fuchsian")
    assert fuchsian_residual(conjugated(rep, random_sl2(rng))) <= 1e-8


def test_fuchsian_residual_is_exact_on_real_long_points():
    # every trace of a real point is real at the working precision, so the
    # residual is exactly zero however large the entries grow
    for length in (40.0, 100.0):
        fn = FNCoordinates([length] * 3, [0.0] * 3)
        assert fuchsian_residual(holonomy(surfaces.graph("genus2_fuchsian"), fn)) == 0.0


def test_fn_validation_and_branch_guard():
    with pytest.raises(DegenerateFN):
        FNCoordinates([-1.0, 2.0, 2.0], [0.0, 0.0, 0.0])
    # a fixed-point lift holds no NaN or infinity
    for bad in (math.nan, complex(2.0, math.inf)):
        with pytest.raises(DegenerateFN):
            FNCoordinates([2.0, bad, 2.0], [0.0, 0.0, 0.0])
        with pytest.raises(DegenerateFN):
            FNCoordinates([2.0, 2.0, 2.0], [0.0, 0.0, bad])
    graph = surfaces.graph("genus2_fuchsian")
    with pytest.raises(BranchFailure):
        holonomy(graph, FNCoordinates([2.0 + 3.14j, 2.0, 2.0], [0.0, 0.0, 0.0]))
    with pytest.raises(DegenerateFN):
        holonomy(graph, FNCoordinates([2.0, 2.0], [0.0, 0.0]))
    # cosh of the half-length overflows complex128 in the pants check
    with pytest.raises(DegenerateFN):
        holonomy(graph, FNCoordinates([2000.0, 2.0, 2.0], [0.0, 0.0, 0.0]))


def test_entries_entire_in_coordinates():
    # central second difference of an entry stays bounded: no branch jumps
    graph = surfaces.graph("genus2_fuchsian")
    fn = surfaces.fn("genus2_fuchsian")
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
