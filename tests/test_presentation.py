import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfsurface

from qfsurface import presentation as presentation_module
import surfaces
from oracles import exponent_sums
from qfsurface.presentation import MalformedGraph, PantsDecompositionGraph
from qfsurface.words import cyclic_reduce, expand, reduce_word, rotate



def random_trivalent_graph(rng, genus):
    """Random perfect matching on the cuff set, retried until valid."""
    num_pants = 2 * genus - 2
    while True:
        cuffs = [(v, c) for v in range(num_pants) for c in (0, 1, 2)]
        rng.shuffle(cuffs)
        gluings = []
        ok = True
        for k in range(0, len(cuffs), 2):
            a, b = cuffs[k], cuffs[k + 1]
            if a == b:
                ok = False
                break
            gluings.append((f"e{k // 2:02d}", a, b))
        if not ok:
            continue
        try:
            return PantsDecompositionGraph(num_pants, gluings)
        except MalformedGraph:
            continue


def assert_standard_relator(pres):
    expected = []
    for k in range(pres.genus):
        a, b = 2 * k + 1, 2 * k + 2
        expected.extend((a, b, -a, -b))
    assert pres.relator == tuple(expected)


def test_genus2_counts():
    pres = surfaces.graph("genus2_fuchsian").plan().presentation
    assert pres.genus == 2
    assert pres.num_generators == 4
    assert len(pres.relator) == 8
    assert_standard_relator(pres)
    assert len(pres.marking) == 3
    for word in pres.marking.values():
        assert word == reduce_word(word) and len(word) > 0


def test_genus3_counts():
    pres = surfaces.graph("genus3").plan().presentation
    assert pres.genus == 3
    assert pres.num_generators == 6
    assert len(pres.relator) == 12
    assert_standard_relator(pres)
    assert len(pres.marking) == 6


def test_separating_curve_abelianization():
    pres = surfaces.graph("genus2_separating").plan().presentation
    assert_standard_relator(pres)
    sums = {
        label: exponent_sums(word, pres.num_generators)
        for label, word in pres.marking.items()
    }
    # alpha2 separates the two handles: trivial in homology
    assert sums["alpha2"] == (0, 0, 0, 0)
    assert sums["alpha1"] != (0, 0, 0, 0)
    assert sums["alpha3"] != (0, 0, 0, 0)


def test_nonseparating_curves_standard_graph():
    pres = surfaces.graph("genus2_fuchsian").plan().presentation
    nontrivial = [
        label for label, word in pres.marking.items()
        if exponent_sums(word, 4) != (0, 0, 0, 0)
    ]
    # in the standard genus-2 decomposition no curve separates
    assert len(nontrivial) == 3


def test_determinism():
    # two builds, past the plan the graph keeps, which would be one object
    graph = surfaces.graph("genus2_fuchsian")
    p1 = presentation_module._build_plan(graph).presentation
    p2 = presentation_module._build_plan(graph).presentation
    assert p1.relator == p2.relator
    assert p1.marking == p2.marking
    assert p1.generator_assembly_words == p2.generator_assembly_words


def test_plan_built_once_per_distinct_graph(monkeypatch):
    builds = []
    build = presentation_module._build_plan

    def counted(graph):
        builds.append(graph)
        return build(graph)

    monkeypatch.setattr(presentation_module, "_build_plan", counted)
    presentation_module._graph_of.cache_clear()
    first = surfaces.graph("genus2_fuchsian").plan()
    # genus2_quasifuchsian.json has the same gluings, so the same graph
    assert surfaces.graph("genus2_quasifuchsian").plan() is first
    assert len(builds) == 1
    # labels, ends and edge order all go into the plan
    edges = surfaces.graph("genus2_fuchsian").edges
    variants = [
        [("beta" + label[-1], a, b) for label, a, b in edges],
        [(label, b, a) for label, a, b in edges],
        edges[::-1],
    ]
    plans = [presentation_module._graph_of(2, tuple(variant)).plan() for variant in variants]
    assert len(builds) == 4
    assert all(plan is not first for plan in plans)


def test_random_graphs_all_reach_standard_form():
    rng = np.random.RandomState(1700 + 1)
    for genus in (2, 3, 4):
        for _ in range(8):
            graph = random_trivalent_graph(rng, genus)
            for label, *ends in graph.edges:
                for v, c in ends:
                    assert graph.curve_labels[graph.pants_cuffs[v][c]] == label
            pres = graph.plan().presentation
            assert_standard_relator(pres)
            assert len(pres.marking) == 3 * genus - 3
            for word in pres.marking.values():
                assert word == reduce_word(word) and len(word) > 0


@pytest.mark.parametrize("genus, word", [
    (1, (1, -2, -1, 2)),
    (2, (1, 3, -2, 4, -1, -3, 2, -4)),
])
def test_collection_flips_a_negative_inner_letter(monkeypatch, genus, word):
    # the y inside x ... x^-1 occurs inverted, so y is flipped before the
    # basis change; no bundled or random graph's relator reaches this branch
    flips = []
    flip = presentation_module._flip_generator

    def counted(*args):
        flips.append(args[1])
        return flip(*args)

    monkeypatch.setattr(presentation_module, "_flip_generator", counted)
    phi = {g: (g,) for g in range(1, 2 * genus + 1)}
    psi = dict(phi)
    collected = presentation_module._collect_pair(word, (1, 2), phi, psi)
    assert flips == [2]
    blocks = presentation_module._parse_commutator_blocks(collected, genus)
    assert blocks is not None and (1, 2) in blocks
    # the new word is the old one in the new basis, and the basis changes
    # are mutually inverse
    moved = cyclic_reduce(expand(word, phi))
    assert any(rotate(moved, r) == collected for r in range(len(moved)))
    for g in phi:
        assert expand(phi[g], psi) == (g,) and expand(psi[g], phi) == (g,)


# sha256 of the plans below as the reducer first produced them; any change to
# a root, gluing order, relator, marking or assembly word moves it
PLAN_DIGEST = "0a5708cacf50686dd8d1d477556d49ce70d7bf7a695be52376dd6cc2fdc3db2c"


def plan_digest(graphs):
    digest = hashlib.sha256()
    for graph in graphs:
        plan = presentation_module._build_plan(graph)
        pres = plan.presentation
        digest.update(repr((
            plan.root, plan.tree_gluings, plan.nontree_gluings, pres.relator,
            sorted(pres.marking.items()),
            sorted(pres.generator_assembly_words.items()),
        )).encode())
    return digest.hexdigest()


def test_plans_match_pinned_digest():
    graphs = [surfaces.graph(stem) for stem in surfaces.BUNDLED]
    graphs += [surfaces.graph(stem)
               for stem in ("genus2_fuchsian", "genus2_separating", "genus3")]
    rng = np.random.RandomState(1406)
    graphs += [random_trivalent_graph(rng, genus)
               for genus in (2, 3, 4, 5, 6) for _ in range(8)]
    assert plan_digest(graphs) == PLAN_DIGEST


def test_word_string_round_trip():
    pres = surfaces.graph("genus2_fuchsian").plan().presentation
    word = (1, -2, 3, 4, -1)
    assert pres.word_from_string(pres.word_to_string(word)) == word
    assert pres.word_from_string("a1*B1*a2") == (1, -2, 3)
    # a capital and a ^-1 suffix each invert the letter, so together they cancel
    assert pres.word_from_string("A1") == pres.word_from_string("a1^-1") == (-1,)
    assert pres.word_from_string("A1^-1") == (1,)
    assert pres.word_from_string("a1*B1^-1") == (1, 2)


def test_malformed_graphs_rejected():
    with pytest.raises(MalformedGraph):
        PantsDecompositionGraph(2, [
            ("a", (0, 0), (1, 0)),
            ("b", (0, 1), (1, 1)),
        ])  # missing an edge
    with pytest.raises(MalformedGraph):
        PantsDecompositionGraph(2, [
            ("a", (0, 0), (1, 0)),
            ("b", (0, 1), (1, 1)),
            ("c", (0, 1), (1, 2)),  # cuff (0,1) used twice
        ])
    with pytest.raises(MalformedGraph, match="cuff \\(0, 0\\) used by both 'a' and 'a'"):
        PantsDecompositionGraph(2, [
            ("a", (0, 0), (0, 0)),  # a cuff glued to itself
            ("b", (0, 1), (1, 1)),
            ("c", (0, 2), (1, 2)),
        ])
    with pytest.raises(MalformedGraph):
        PantsDecompositionGraph(4, [
            ("a", (0, 0), (0, 1)),
            ("b", (0, 2), (1, 0)),
            ("c", (1, 1), (1, 2)),
            ("d", (2, 0), (2, 1)),
            ("e", (2, 2), (3, 0)),
            ("f", (3, 1), (3, 2)),
        ])  # two genus-2 components, disconnected
    # the reducer's invariants raise a typed error even under python -O,
    # which strips assert statements
    check = (
        "from qfsurface.presentation import MalformedGraph, _assert_surface_word\n"
        "try:\n"
        "    _assert_surface_word((1, 2, -1, 2), 2)\n"
        "except MalformedGraph as exc:\n"
        "    print('MalformedGraph:', exc)\n"
    )
    src = str(Path(qfsurface.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-O", "-c", check], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("MalformedGraph: generator 2 ")
