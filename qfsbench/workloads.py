"""Seeded inputs and per-operation correctness gates for the three workloads.

Every operation is one ``qfs`` command line.  A workload draws its slots
(one operation each: graph, stratum or depth, and coordinates) once from the
seed, and every round runs the same slots again.  Which operations run, and
so which of them fail, therefore depends on the seed alone, not on how many
rounds fit in the run; repeats of one input give its time on a quiet host.

Each check returns a :class:`Verdict`: whether the operation met its gate,
the residual that was compared against the tolerance, and the health fields
read off the command's output.  Checks only call public entry points, and
only after the timed command has returned.
"""

from __future__ import annotations

import cmath
import io
import json
import math
from pathlib import Path

import numpy as np

# Pants-decomposition gluing graphs: (curve, (pants, cuff), (pants, cuff)).
GRAPHS = {
    "g2std": [("alpha1", (0, 0), (1, 0)), ("alpha2", (0, 1), (1, 1)),
              ("alpha3", (0, 2), (1, 2))],
    "g2sep": [("alpha1", (0, 0), (0, 1)), ("alpha2", (0, 2), (1, 0)),
              ("alpha3", (1, 1), (1, 2))],
    "g3": [("c1", (0, 0), (0, 1)), ("c2", (0, 2), (1, 0)), ("c3", (1, 1), (2, 0)),
           ("c4", (1, 2), (2, 1)), ("c5", (2, 2), (3, 0)), ("c6", (3, 1), (3, 2))],
    # the bundled genus-3 chain pattern extended by two pants
    "g4": [("c1", (0, 0), (0, 1)), ("c2", (0, 2), (1, 0)), ("c3", (1, 1), (2, 0)),
           ("c4", (1, 2), (2, 1)), ("c5", (2, 2), (3, 0)), ("c6", (3, 1), (4, 0)),
           ("c7", (3, 2), (4, 1)), ("c8", (4, 2), (5, 0)), ("c9", (5, 1), (5, 2))],
}

BUNDLED = ("genus2_fuchsian", "genus2_quasifuchsian", "genus2_separating", "genus3")

DARBOUX_TOL = 1e-4          # the bundled configs' own "tol" option
LENGTHS_TOL = 1e-9          # relator and round-trip tolerance the tests state
MEMBERSHIP_TOL = 1e-8       # chordal distance of a generator fixed point to the cloud
CIRCLE_TOL = 1e-8           # cross-ratio Im spread of a Fuchsian cloud
CROSS_RATIO_TRIALS = 200
LENGTHS_PER_CELL = 167      # points per (stratum, graph) cell: 1002 lengths slots
DARBOUX_SEEDED = {"g2std": 8, "g2sep": 8, "g3": 1, "g4": 1}   # seeded gram slots
STRATA = {"small": (1.0, 4.0), "large": (4.0, 10.0)}
NEAR = 0.02                 # limit-set inputs: largest move off the bundled coordinates


class MalformedOutput(Exception):
    """A command that exited 0 printed something its gate cannot read."""


class Op:
    """One command line plus what its gate needs to know."""

    def __init__(self, argv, genus, expect, stratum=None, depth=None):
        self.argv = argv
        self.genus = genus
        self.kind = argv[0]
        self.expect = expect    # curve -> (l, tau) for seeded inputs
        self.stratum = stratum
        self.depth = depth


class Verdict:
    def __init__(self, passed, residual, health=None, outputs=0):
        self.passed = passed
        self.residual = residual
        self.health = health or {}
        self.outputs = outputs


def genus_of(graph):
    return len(GRAPHS[graph]) // 3 + 1


def config_doc(graph, lengths, twists):
    gluings = GRAPHS[graph]
    num_pants = 2 * genus_of(graph) - 2
    return {
        "genus": genus_of(graph),
        "pants": [{"id": f"P{k}"} for k in range(num_pants)],
        "gluings": [{"curve": c, "ends": [list(a), list(b)]} for c, a, b in gluings],
        "fn": {
            c: {"l": [lengths[k].real, lengths[k].imag],
                "tau": [twists[k].real, twists[k].imag]}
            for k, (c, _a, _b) in enumerate(gluings)
        },
    }


def draw_point(rng, graph, l_range, imag, twist_range):
    n = len(GRAPHS[graph])
    lengths = rng.uniform(*l_range, n) + 1j * rng.uniform(-imag, imag, n)
    twists = rng.uniform(*twist_range, n) + 1j * rng.uniform(-imag, imag, n)
    return [complex(v) for v in lengths], [complex(v) for v in twists]


class Workload:
    """Writes each operation's config into ``workdir`` and checks its output."""

    name = None

    def __init__(self, root, workdir, seed):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self._count = 0
        self._slots = None

    def bundled(self, stem):
        return str(self.root / "src" / "qfsurface" / "data" / f"{stem}.json")

    def write(self, doc):
        # one file per slot, written once and read by every round
        self._count += 1
        path = self.workdir / f"op{self._count}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def seeded(self, kind, graph, l_range, imag, twist_range, **kw):
        lengths, twists = draw_point(self.rng, graph, l_range, imag, twist_range)
        path = self.write(config_doc(graph, lengths, twists))
        expect = {c: (lengths[k], twists[k]) for k, (c, _a, _b) in enumerate(GRAPHS[graph])}
        return Op([kind, path], genus_of(graph), expect, **kw)

    def round(self):
        """The workload's slots, drawn from the seed on the first call."""
        if self._slots is None:
            self._slots = self.ops()
        return self._slots

    def ops(self):
        raise NotImplementedError

    def check(self, op, text, cli):
        raise NotImplementedError


def worst(values):
    """Largest of the values, with NaN read as infinitely bad."""
    return max((v if v == v else math.inf) for v in values)


def _load(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedOutput(f"not JSON: {exc}") from exc


def _field(payload, key):
    try:
        return payload[key]
    except (KeyError, TypeError):
        raise MalformedOutput(f"missing field {key!r}") from None


class Darboux(Workload):
    """``qfs gram``: 4 bundled configs + seeded genus 2 (two graphs), 3 and 4."""

    name = "darboux"

    @property
    def warmup(self):
        return ["gram", self.bundled("genus2_fuchsian")]

    def ops(self):
        ops = []
        for stem in BUNDLED:
            genus = 3 if stem == "genus3" else 2
            ops.append(Op(["gram", self.bundled(stem)], genus, None))
        for graph, count in DARBOUX_SEEDED.items():
            for _ in range(count):
                ops.append(self.seeded("gram", graph, (1.5, 3.5), 0.1, (-0.5, 0.5)))
        return ops

    def check(self, op, text, cli):
        payload = _load(text)
        residual = worst([float(_field(payload, "darboux_residual"))])
        matrix = _field(payload, "matrix")
        dim = 6 * op.genus - 6
        if len(_field(payload, "basis")) != dim or len(matrix) != dim:
            raise MalformedOutput(f"Gram matrix is not {dim}x{dim}")
        health = {
            "cocycles.darboux_residual_max": residual,
            "cocycles.raw_asymmetry_max": float(_field(payload, "raw_asymmetry")),
        }
        return Verdict(residual <= DARBOUX_TOL, residual, health, dim * dim)


class Lengths(Workload):
    """``qfs lengths``: seeded genus-2/3 points, half small, half large lengths."""

    name = "lengths"

    @property
    def warmup(self):
        return ["lengths", self.bundled("genus2_fuchsian")]

    def ops(self):
        ops = []
        for stratum, l_range in STRATA.items():
            for graph in ("g2std", "g2sep", "g3"):
                for _ in range(LENGTHS_PER_CELL):
                    ops.append(self.seeded("lengths", graph, l_range, 0.3, (-1.0, 1.0),
                                           stratum=stratum))
        return ops

    def check(self, op, text, cli):
        payload = _load(text)
        relator = worst([float(_field(payload, "relator_residual"))])
        lengths = _field(payload, "lengths")
        errors = []
        for curve, (l, _tau) in op.expect.items():
            try:
                re_part, im_part = lengths[curve]
            except (KeyError, TypeError, ValueError):
                raise MalformedOutput(f"no length for curve {curve!r}") from None
            errors.append(abs(complex(re_part, im_part) - l))
        error = worst(errors)
        residual = max(relator, error)
        health = {"surface.relator_residual_max": relator,
                  "surface.length_error_max": error}
        return Verdict(residual <= LENGTHS_TOL, residual, health, len(op.expect))


def reduced_word_count(genus, depth):
    """Freely reduced words of length 1..depth over 2*genus generators."""
    letters = 4 * genus
    return sum(letters * (letters - 1) ** (k - 1) for k in range(1, depth + 1))


def attracting_fixed_point(a, b, c, d):
    """Attracting fixed point of a loxodromic SL2 matrix; None at infinity."""
    tr = a + d
    disc = cmath.sqrt(tr * tr - 4.0)
    lam = (tr + disc) / 2.0
    if abs(lam) < 1.0:
        lam = (tr - disc) / 2.0
    if abs(c) <= 1e-14:
        return None if abs(lam - a) <= abs(lam - d) else b / (d - a)
    return (lam - d) / c


def chordal(z, cloud):
    return np.abs(cloud - z) / np.sqrt((1.0 + abs(z) ** 2) * (1.0 + np.abs(cloud) ** 2))


def cross_ratio_spread(points, rng, trials):
    """Largest |Im| of the cross ratio over random 4-tuples of cloud points."""
    idx = np.array([rng.choice(len(points), size=4, replace=False) for _ in range(trials)])
    z1, z2, z3, z4 = (points[idx[:, k]] for k in range(4))
    num = (z1 - z3) * (z2 - z4)
    den = (z1 - z4) * (z2 - z3)
    keep = np.abs(den) >= 1e-30
    return float(np.max(np.abs((num[keep] / den[keep]).imag), initial=0.0))


def parse_cloud(text, depth):
    if not text.startswith("re,im,word_length\n"):
        raise MalformedOutput("missing CSV header")
    try:
        rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise MalformedOutput(f"bad CSV row: {exc}") from exc
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise MalformedOutput("CSV rows do not have three columns")
    points = rows[:, 0] + 1j * rows[:, 1]
    word_lengths = rows[:, 2]
    sane = bool(np.all(np.isfinite(points))) and bool(
        np.all((word_lengths >= 1) & (word_lengths <= depth)
               & (word_lengths == np.round(word_lengths))))
    return points, sane


class LimitSet(Workload):
    """``qfs limitset --format csv``: genus-2 QF at depth 6, genus-3 Fuchsian at 5.

    The points sit near the bundled configs because the cloud size depends
    on the coordinates, and with it the rate of points per second: within
    NEAR of them it stays within about 2% of the bundled 124,979 points.
    """

    name = "limitset"

    @property
    def warmup(self):
        return ["limitset", self.bundled("genus2_quasifuchsian"), "--depth", "3",
                "--format", "csv"]

    def ops(self):
        return [self.near_bundled("genus2_quasifuchsian", 6, fuchsian=False),
                self.near_bundled("genus3", 5, fuchsian=True)]

    def near_bundled(self, stem, depth, fuchsian):
        """The bundled config with every coordinate moved by at most NEAR."""
        doc = json.loads(Path(self.bundled(stem)).read_text())
        expect = {}
        for curve, entry in doc["fn"].items():
            for key in ("l", "tau"):
                entry[key][0] += self.rng.uniform(-NEAR, NEAR)
                if not fuchsian:
                    entry[key][1] += self.rng.uniform(-NEAR, NEAR)
            expect[curve] = (complex(*entry["l"]), complex(*entry["tau"]))
        argv = ["limitset", self.write(doc), "--depth", str(depth), "--format", "csv"]
        return Op(argv, doc["genus"], expect, depth=depth)

    def check(self, op, text, cli):
        points, sane = parse_cloud(text, op.depth)
        if len(points) == 0:
            raise MalformedOutput("empty cloud")
        code, holonomy_text = cli(["holonomy", op.argv[1]])
        if code != 0:
            raise MalformedOutput(f"qfs holonomy exited {code} on a config limitset accepted")
        generators = _field(_load(holonomy_text), "generators")
        distances = [0.0]
        for entries in generators.values():
            (a, b), (c, d) = [[complex(*z) for z in row] for row in entries]
            for m in ((a, b, c, d), (d, -b, -c, a)):     # generator and inverse
                z = attracting_fixed_point(*m)
                if z is not None:
                    distances.append(float(np.min(chordal(z, points))))
        residual = worst(distances)
        passed = sane and residual <= MEMBERSHIP_TOL
        if all(l.imag == 0.0 and t.imag == 0.0 for l, t in op.expect.values()):
            # the same 4-tuples on every check, so repeats of an op agree
            check_rng = np.random.default_rng([self.seed, 1])
            spread = worst([cross_ratio_spread(points, check_rng, CROSS_RATIO_TRIALS)])
            passed = passed and spread <= CIRCLE_TOL
            residual = max(residual, spread)
        return Verdict(passed, residual, outputs=len(points))


WORKLOADS = {w.name: w for w in (Darboux, Lengths, LimitSet)}
