"""Pants decomposition graphs and standard surface-group presentations.

A genus-g pants decomposition is a connected trivalent gluing graph with
2g-2 vertices (pairs of pants, each with cuffs 0, 1, 2) and 3g-3 edges
(decomposition curves).  ``PantsDecompositionGraph.plan`` turns such a graph
into an assembly plan whose presentation is the standard one-relator
presentation

    < a1, b1, ..., ag, bg | [a1,b1]...[ag,bg] >

together with, for every decomposition curve, an explicit word in the
standard generators representing it, and a dictionary expressing each
standard generator as a word in the "assembly" alphabet (two generators per
pants plus one stable letter per edge outside a spanning tree) that the
holonomy construction knows how to evaluate.

The reduction to the standard relator is the classical cut-and-paste
normalization done as tracked changes of free basis:

1.  Glue pants along a breadth-first spanning tree.  The partial surface is
    planar, and its based boundary loops, listed in order, multiply to the
    identity in the free group on the pants generators.
2.  Each leftover edge pairs two boundary loops through a stable letter;
    eliminating the paired loop words yields one relator of length 4g in 2g
    generators, with every generator appearing twice with opposite signs.
3.  Repeatedly pick an interleaved generator pair x ... y ... x' ... y' and
    change basis so a commutator block splits off; after g rounds the
    relator is a concatenation of commutator blocks, which is the standard
    relator after renaming.
"""

from __future__ import annotations

import functools
from collections import deque, namedtuple

from .words import cyclic_reduce, expand, invert_word, multiply, reduce_word, rotate

__all__ = [
    "MalformedGraph",
    "GluingEdge",
    "PantsDecompositionGraph",
    "SurfaceGroupPresentation",
    "UnknownGenerator",
]


class MalformedGraph(Exception):
    """Counts, cuff usage, or connectivity of the gluing graph are wrong."""


class UnknownGenerator(Exception):
    """A word refers to a generator the presentation does not have."""


# A decomposition curve joining two distinct cuffs (the same pants allowed);
# each end is (pants, cuff).
GluingEdge = namedtuple("GluingEdge", "label end_a end_b")


class PantsDecompositionGraph:
    """Validated trivalent gluing graph of a genus-g pants decomposition.

    ``edges`` holds the gluings as :class:`GluingEdge` tuples, in the order
    given; ``curve_labels`` their labels sorted, which is the order of the
    coordinates; ``pants_cuffs[v]`` the index in ``curve_labels`` of the
    curve glued to each cuff 0, 1, 2 of pants v.
    """

    def __init__(self, num_pants, gluings):
        self.num_pants = int(num_pants)
        self.edges = [GluingEdge(str(label), (int(va), int(ca)), (int(vb), int(cb)))
                      for label, (va, ca), (vb, cb) in gluings]
        self.curve_labels = sorted(edge.label for edge in self.edges)
        self._validate()
        self._plan = None

    @property
    def genus(self):
        return len(self.edges) - self.num_pants + 1

    @property
    def num_curves(self):
        return len(self.edges)

    def _validate(self):
        labels = [edge.label for edge in self.edges]
        if len(set(labels)) != len(labels):
            raise MalformedGraph("duplicate curve labels")
        seen = {}
        for edge in self.edges:
            for end in (edge.end_a, edge.end_b):
                vertex, cuff = end
                if not (0 <= vertex < self.num_pants):
                    raise MalformedGraph(f"edge {edge.label!r} references pants {vertex}")
                if cuff not in (0, 1, 2):
                    raise MalformedGraph(f"edge {edge.label!r} references cuff {cuff}")
                if end in seen:
                    raise MalformedGraph(
                        f"cuff {end} used by both {seen[end]!r} and {edge.label!r}"
                    )
                seen[end] = edge.label
        expected = 3 * self.num_pants
        if len(seen) != expected:
            missing = [
                (v, c)
                for v in range(self.num_pants)
                for c in (0, 1, 2)
                if (v, c) not in seen
            ]
            raise MalformedGraph(f"unglued cuffs: {missing}")
        index = {label: k for k, label in enumerate(self.curve_labels)}
        self.pants_cuffs = [tuple(index[seen[v, c]] for c in (0, 1, 2))
                            for v in range(self.num_pants)]
        genus = self.genus
        if genus < 2:
            raise MalformedGraph(f"graph has genus {genus}, need at least 2")
        if self.num_pants != 2 * genus - 2 or len(self.edges) != 3 * genus - 3:
            raise MalformedGraph(
                f"counts ({self.num_pants} pants, {len(self.edges)} curves) do not "
                f"match a closed genus-{genus} surface"
            )
        if len(_spanning_tree(self, 0)[2]) != self.num_pants:
            raise MalformedGraph("gluing graph is not connected")

    # -- assembly symbols ------------------------------------------------
    def symbol_a(self, vertex):
        return 2 * vertex + 1

    def symbol_b(self, vertex):
        return 2 * vertex + 2

    def symbol_z(self, nontree_index):
        return 2 * self.num_pants + nontree_index + 1

    def plan(self):
        """The assembly plan, built on the first call and kept on the graph.
        Configs with equal gluings share one graph (:func:`_graph_of`), so
        each distinct gluing builds one plan."""
        if self._plan is None:
            self._plan = _build_plan(self)
        return self._plan


class SurfaceGroupPresentation:
    """Standard presentation plus marking words for decomposition curves."""

    def __init__(self, genus, relator, marking, generator_assembly_words):
        self.genus = genus
        self.num_generators = 2 * genus
        self.generator_names = []
        for k in range(genus):
            self.generator_names.append(f"a{k + 1}")
            self.generator_names.append(f"b{k + 1}")
        self.relator = tuple(relator)
        self.marking = dict(marking)
        self.generator_assembly_words = dict(generator_assembly_words)

    def name_of(self, letter):
        base = self.generator_names[abs(letter) - 1]
        return base.upper() if letter < 0 else base

    def word_to_string(self, word):
        return "*".join(self.name_of(letter) for letter in word) or "1"

    def word_from_string(self, text):
        """Parse words like 'a1*b1*A1^-1'.

        A capital letter and a ``^-1`` suffix each invert the letter, so
        'A1' and 'a1^-1' are the inverse of a1 and 'A1^-1' is a1 itself.
        """
        text = text.strip()
        if text in ("", "1"):
            return ()
        letters = []
        for token in text.replace(",", " ").replace("*", " ").split():
            inverse = False
            name = token
            if name.endswith("^-1"):
                inverse = not inverse
                name = name[:-3]
            if name[:1].isupper():
                inverse = not inverse
                name = name.lower()
            try:
                idx = self.generator_names.index(name) + 1
            except ValueError:
                raise UnknownGenerator(f"unknown generator {token!r}") from None
            letters.append(-idx if inverse else idx)
        return reduce_word(letters)


class _Node:
    """Boundary-list entry; replaced entries remember their two children."""

    __slots__ = ("word", "tag", "children", "c_index")

    def __init__(self, word, tag):
        self.word = tuple(word)
        self.tag = tag
        self.children = None
        self.c_index = None


# Everything the holonomy builder needs, computed once per graph.  A graph is
# shared by every config with its gluings (see :func:`_graph_of`), so neither
# a plan nor its presentation is ever mutated.
AssemblyPlan = namedtuple("AssemblyPlan", [
    "root",
    "tree_gluings",     # (label, parent_end, child_end)
    "nontree_gluings",  # (label, s_end, t_end, z_symbol)
    "presentation",
])


def _graph_center(graph):
    """Vertex of minimal BFS eccentricity (lowest index on ties).

    Rooting the spanning tree at a center keeps conjugator words short,
    which keeps holonomy matrix entries as small as the geometry allows.
    """
    return min(range(graph.num_pants),
               key=lambda v: max(_spanning_tree(graph, v)[2].values()))


def _spanning_tree(graph, root):
    """Breadth-first tree from the root, edges tried in label order.

    Returns the tree gluings (label, parent end, child end), the other edges
    in label order, and the distance from the root to every pants reached.
    """
    edges = sorted(graph.edges)
    incident = {v: [] for v in range(graph.num_pants)}
    for label, end_a, end_b in edges:
        incident[end_a[0]].append((label, end_a, end_b))
        incident[end_b[0]].append((label, end_b, end_a))
    dist = {root: 0}
    queue = deque([root])
    tree = []
    while queue:
        v = queue.popleft()
        for label, my_end, other_end in incident[v]:
            w = other_end[0]
            if w not in dist:
                dist[w] = dist[v] + 1
                tree.append((label, my_end, other_end))
                queue.append(w)
    tree_labels = {label for label, _, _ in tree}
    return tree, [edge for edge in edges if edge.label not in tree_labels], dist


@functools.lru_cache(maxsize=32)
def _graph_of(num_pants, gluings):
    """The validated graph with these pants and ordered (label, end, end)
    gluings, built once per distinct gluing and shared by every config parse
    that names it, so nothing changes it but the plan it builds once and
    keeps.  A malformed graph raises on every call: the cache keeps no
    exception."""
    return PantsDecompositionGraph(num_pants, gluings)


def _build_plan(graph):
    genus = graph.genus
    root = _graph_center(graph)
    tree, nontree, _ = _spanning_tree(graph, root)

    # ---- stage 1: glue pants along the tree, tracking boundary loops ----
    sym_a, sym_b = graph.symbol_a, graph.symbol_b
    a0, b0 = sym_a(root), sym_b(root)
    entries = [
        _Node((a0,), (root, 0)),
        _Node((b0,), (root, 1)),
        _Node((-b0, -a0), (root, 2)),
    ]
    tree_curve_nodes = {}

    for label, parent_end, child_end in tree:
        position = next(
            k for k, node in enumerate(entries) if node.tag == parent_end
        )
        u_node = entries[position]
        u = u_node.word
        w, j = child_end
        aw, bw = sym_a(w), sym_b(w)
        if j == 0:
            # A_w := u^-1; boundary loops 1 and 2 of the child get inserted
            first = _Node((bw,), (w, 1))
            second = _Node(multiply((-bw,), u), (w, 2))
        elif j == 1:
            # B_w := u^-1
            first = _Node(multiply(u, (-aw,)), (w, 2))
            second = _Node((aw,), (w, 0))
        else:
            # (A_w B_w)^-1 = u^-1, so B_w := A_w^-1 u
            first = _Node((aw,), (w, 0))
            second = _Node(multiply((-aw,), u), (w, 1))
        u_node.children = (first, second)
        entries[position:position + 1] = [first, second]
        tree_curve_nodes[label] = u_node

    if len(entries) != 2 * genus:
        raise MalformedGraph(
            f"tree gluing left {len(entries)} boundary loops, expected {2 * genus}"
        )
    if multiply(*(node.word for node in entries)) != ():
        raise MalformedGraph("boundary loops of the planar surface do not multiply to 1")

    for index, node in enumerate(entries):
        node.c_index = index + 1

    def expr_in_c(node):
        if node.c_index is not None:
            return (node.c_index,)
        left, right = node.children
        return multiply(expr_in_c(left), expr_in_c(right))

    # ---- stage 2: pair leftover boundary loops with stable letters ------
    # The free basis P1 has a cuff letter c = 2k+1 and a stable letter
    # z = 2k+2 for the k-th non-tree edge; its loop with the smaller c-index
    # becomes c, the other z c^-1 z^-1.
    tag_to_node = {node.tag: node for node in entries}
    nontree_gluings = []
    c_to_p1 = {}          # boundary-loop index -> P1 word
    p1_to_assembly = {}   # P1 generator -> assembly word
    for k, edge in enumerate(nontree):
        s_end, t_end = sorted((edge.end_a, edge.end_b),
                              key=lambda end: tag_to_node[end].c_index)
        s_node, t_node = tag_to_node[s_end], tag_to_node[t_end]
        c, z = 2 * k + 1, 2 * k + 2
        c_to_p1[s_node.c_index] = (c,)
        c_to_p1[t_node.c_index] = (z, -c, -z)
        p1_to_assembly[c] = s_node.word
        p1_to_assembly[z] = (graph.symbol_z(k),)
        nontree_gluings.append((edge.label, s_end, t_end, graph.symbol_z(k)))

    relator_p1 = expand(tuple(range(1, 2 * genus + 1)), c_to_p1)
    num_p1 = len(p1_to_assembly)
    if num_p1 != 2 * genus:
        raise MalformedGraph(f"{num_p1} generators after pairing, expected {2 * genus}")
    if len(relator_p1) != 4 * genus:
        raise MalformedGraph(
            f"relator of length {len(relator_p1)} after pairing, expected {4 * genus}"
        )
    _assert_surface_word(relator_p1, num_p1)

    # ---- stage 3: collect commutators ------------------------------------
    word = relator_p1
    phi = {g: (g,) for g in range(1, num_p1 + 1)}   # P1 generator -> current
    psi = {g: (g,) for g in range(1, num_p1 + 1)}   # current generator -> P1
    collected = set()
    for _ in range(genus):
        pair = _find_interleaved_pair(word, collected)
        if pair is None:
            raise MalformedGraph("no interleaved generator pair in the relator")
        word = _collect_pair(word, pair, phi, psi)
        collected.update(pair)
    blocks = _parse_commutator_blocks(word, genus)
    if blocks is None:
        raise MalformedGraph("collection did not reach commutator form")

    # ---- stage 4: rename block generators to a1, b1, ..., ag, bg --------
    rename = {}       # current generator -> standard letter
    final_psi = {}    # standard generator -> P1 word
    for k, pair in enumerate(blocks):
        for new, letter in enumerate(pair, start=2 * k + 1):
            rename[abs(letter)] = (new if letter > 0 else -new,)
            final_psi[new] = expand((letter,), psi)
    final_phi = {g: expand(image, rename) for g, image in phi.items()}

    standard = []
    for k in range(genus):
        a, b = 2 * k + 1, 2 * k + 2
        standard.extend((a, b, -a, -b))
    standard = tuple(standard)
    renamed = expand(word, rename)
    if not any(rotate(renamed, r) == standard for r in range(len(renamed))):
        raise MalformedGraph("renamed relator is not a rotation of the standard one")

    # phi and psi must be mutually inverse free-basis changes
    for p1_gen, image in final_phi.items():
        if expand(image, final_psi) != (p1_gen,):
            raise MalformedGraph(
                f"basis changes are not mutually inverse on generator {p1_gen}"
            )

    # ---- marking words ---------------------------------------------------
    loops = {label: expr_in_c(node) for label, node in tree_curve_nodes.items()}
    for label, s_end, _t_end, _z in nontree_gluings:
        loops[label] = (tag_to_node[s_end].c_index,)
    marking = {label: expand(expand(loop, c_to_p1), final_phi)
               for label, loop in loops.items()}
    for label in graph.curve_labels:
        if not marking[label]:
            raise MalformedGraph(f"empty marking word for curve {label!r}")

    generator_assembly_words = {
        gen: expand(image, p1_to_assembly) for gen, image in final_psi.items()
    }
    presentation = SurfaceGroupPresentation(
        genus, standard, marking, generator_assembly_words
    )
    return AssemblyPlan(root, tree, nontree_gluings, presentation)


def _assert_surface_word(word, num_generators):
    counts = {}
    for letter in word:
        counts.setdefault(abs(letter), []).append(letter > 0)
    if sorted(counts) != list(range(1, num_generators + 1)):
        raise MalformedGraph(
            f"surface word uses generators {sorted(counts)}, "
            f"expected 1..{num_generators}"
        )
    for gen, signs in counts.items():
        if len(signs) != 2 or signs[0] == signs[1]:
            raise MalformedGraph(
                f"generator {gen} does not appear twice with opposite signs"
            )


def _find_interleaved_pair(word, excluded):
    positions = {}
    for idx, letter in enumerate(word):
        positions.setdefault(abs(letter), []).append(idx)
    for x in sorted(g for g in positions if g not in excluded):
        i1, i2 = positions[x]
        for y in sorted({abs(word[k]) for k in range(i1 + 1, i2)}):
            if y == x or y in excluded:
                continue
            j1, j2 = positions[y]
            if (i1 < j1 < i2) != (i1 < j2 < i2):
                return x, y
    return None


def _flip_generator(word, gen, phi, psi):
    flipped = tuple(-l if abs(l) == gen else l for l in word)
    for key in phi:
        phi[key] = tuple(-l if abs(l) == gen else l for l in phi[key])
    psi[gen] = invert_word(psi[gen])
    return flipped


def _collect_pair(word, pair, phi, psi):
    x, y = pair
    # rotate the positive x occurrence to the front
    if x not in word:
        raise MalformedGraph(f"generator {x} does not occur positively in the relator")
    w = rotate(word, word.index(x))
    px = w.index(-x)
    ys = [k for k, letter in enumerate(w) if abs(letter) == y]
    inside = [k for k in ys if 0 < k < px]
    outside = [k for k in ys if k > px]
    if len(inside) != 1 or len(outside) != 1:
        raise MalformedGraph(f"generators {x} and {y} are not interleaved")
    if w[inside[0]] < 0:
        w = _flip_generator(w, y, phi, psi)
    j_in, j_out = inside[0], outside[0]

    A = w[1:j_in]
    B = w[j_in + 1:px]
    C = w[px + 1:j_out]
    D = w[j_out + 1:]

    # basis change: old x = C B A x' A^-1, old y = y' A^-1 B^-1
    e_x = multiply(C, B, A, (x,), invert_word(A))
    e_y = multiply((y,), invert_word(A), invert_word(B))
    # new generators in terms of the old basis
    back_x = multiply(invert_word(A), invert_word(B), invert_word(C), (x,), A)
    back_y = multiply((y,), B, A)

    psi[x], psi[y] = expand(back_x, psi), expand(back_y, psi)
    change = {g: (g,) for g in psi}
    change[x], change[y] = e_x, e_y
    for key in phi:
        phi[key] = expand(phi[key], change)

    new_word = cyclic_reduce(expand(w, change))
    if len(new_word) != len(word):
        raise MalformedGraph("cancellation during collection")
    return new_word


def _parse_commutator_blocks(word, genus):
    length = 4 * genus
    if len(word) != length:
        return None
    for r in range(length):
        w = rotate(word, r)
        blocks = []
        ok = True
        for k in range(genus):
            p, q, pi, qi = w[4 * k:4 * k + 4]
            if pi != -p or qi != -q or abs(p) == abs(q):
                ok = False
                break
            blocks.append((p, q))
        if ok:
            seen = [abs(l) for pq in blocks for l in pq]
            if len(set(seen)) == 2 * genus:
                return blocks
    return None
