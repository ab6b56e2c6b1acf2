"""Surface configuration files: parsing, validation, serialization.

The schema (UTF-8 JSON, one surface per document):

    {
      "genus": 2,
      "pants": [{"id": "P0"}, {"id": "P1"}],
      "gluings": [
        {"curve": "alpha1", "ends": [[0, 0], [1, 0]]},
        ...
      ],
      "fn": {"alpha1": {"l": [2.0, 0.0], "tau": [0.3, 0.0]}, ...},
      "options": {"tol": 1e-4, "word_length": 6}
    }

Validation failures carry a JSON-pointer-style path to the offending
field.  Counts are checked against the closed-surface relations
(3g-3 curves, 2g-2 pants) and every cuff must be glued exactly once.
"""

from __future__ import annotations

import json
import math

from .presentation import MalformedGraph, PantsDecompositionGraph
from .surface import FNCoordinates

__all__ = [
    "SchemaError",
    "CountMismatch",
    "DanglingCuff",
    "SurfaceConfig",
    "parse_config",
    "config_to_json",
]

DEFAULT_OPTIONS = {"tol": 1e-4, "word_length": 6}


class SchemaError(Exception):
    """Malformed JSON or a field of the wrong shape/type."""


class CountMismatch(SchemaError):
    """Pants/curve counts do not match a closed genus-g surface."""


class DanglingCuff(SchemaError):
    """A cuff is glued twice or not at all."""


def _is_int(x):
    # JSON true and false load as bool, which is an int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x):
    """A JSON number that is not NaN or infinite (json reads both)."""
    return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)


def _complex_pair(value, curve, key):
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_is_finite_number(x) for x in value)):
        raise SchemaError(
            f"/fn/{curve}/{key}: expected a finite [re, im] pair, got {value!r}")
    return complex(float(value[0]), float(value[1]))


class SurfaceConfig:
    """Validated surface description; builds the graph and coordinates."""

    def __init__(self, genus, pants_ids, gluings, fn_table, options):
        self.genus = genus
        self.pants_ids = pants_ids
        self.gluings = gluings            # list of (curve, (p, c), (p, c))
        self.fn_table = fn_table          # curve -> (l, tau) complex pair
        self.options = options
        self._graph = None

    def graph(self):
        """The gluing graph, built once: the one parse_config validates."""
        if self._graph is None:
            self._graph = PantsDecompositionGraph(
                len(self.pants_ids), self.gluings, pants_ids=self.pants_ids
            )
        return self._graph

    def fn(self, graph=None):
        if graph is None:
            graph = self.graph()
        return FNCoordinates.from_mapping(graph, self.fn_table)

    def as_dict(self):
        return {
            "genus": self.genus,
            "pants": [{"id": pid} for pid in self.pants_ids],
            "gluings": [
                {"curve": curve, "ends": [list(end_a), list(end_b)]}
                for curve, end_a, end_b in self.gluings
            ],
            "fn": {
                curve: {
                    "l": [value[0].real, value[0].imag],
                    "tau": [value[1].real, value[1].imag],
                }
                for curve, value in sorted(self.fn_table.items())
            },
            "options": dict(self.options),
        }

    def with_twist(self, curve, delta):
        if curve not in self.fn_table:
            raise SchemaError(f"/fn/{curve}: no such curve")
        table = dict(self.fn_table)
        l, tau = table[curve]
        table[curve] = (l, tau + delta)
        return SurfaceConfig(self.genus, self.pants_ids, self.gluings,
                             table, self.options)


def parse_config(text):
    """Parse and validate a configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("/: expected a JSON object")

    genus = doc.get("genus")
    if not _is_int(genus) or genus < 2:
        raise SchemaError(f"/genus: expected an integer >= 2, got {genus!r}")

    pants = doc.get("pants")
    if not isinstance(pants, list) or not pants:
        raise SchemaError("/pants: expected a nonempty list")
    pants_ids = []
    for k, entry in enumerate(pants):
        if not isinstance(entry, dict) or "id" not in entry:
            raise SchemaError(f"/pants/{k}: expected an object with an 'id'")
        pants_ids.append(str(entry["id"]))
    if len(set(pants_ids)) != len(pants_ids):
        raise SchemaError("/pants: duplicate pants ids")
    if len(pants_ids) != 2 * genus - 2:
        raise CountMismatch(
            f"/pants: {len(pants_ids)} pants for genus {genus}, expected {2 * genus - 2}"
        )

    gluings_doc = doc.get("gluings")
    if not isinstance(gluings_doc, list):
        raise SchemaError("/gluings: expected a list")
    if len(gluings_doc) != 3 * genus - 3:
        raise CountMismatch(
            f"/gluings: {len(gluings_doc)} gluing edges for genus {genus}, "
            f"expected {3 * genus - 3}"
        )
    gluings = []
    seen_curves = set()
    seen_cuffs = {}
    # the pointer paths are formatted on the raising branch only; with the
    # counts above, 3g - 3 gluings of distinct cuffs use all 6g - 6 of them,
    # and a cuff glued to itself is a cuff used twice
    for k, entry in enumerate(gluings_doc):
        if not isinstance(entry, dict):
            raise SchemaError(f"/gluings/{k}: expected an object")
        curve = entry.get("curve")
        if not isinstance(curve, str) or not curve:
            raise SchemaError(f"/gluings/{k}/curve: expected a nonempty string")
        if curve in seen_curves:
            raise SchemaError(f"/gluings/{k}/curve: duplicate curve label {curve!r}")
        seen_curves.add(curve)
        ends = entry.get("ends")
        if not isinstance(ends, list) or len(ends) != 2:
            raise SchemaError(f"/gluings/{k}/ends: expected two [pants, cuff] pairs")
        parsed_ends = []
        for j, end in enumerate(ends):
            if (not isinstance(end, list) or len(end) != 2
                    or not all(_is_int(x) for x in end)):
                raise SchemaError(
                    f"/gluings/{k}/ends/{j}: expected [pantsIndex, cuffIndex]")
            p, c = end
            if not 0 <= p < len(pants_ids):
                raise SchemaError(f"/gluings/{k}/ends/{j}: pants index {p} out of range")
            if c not in (0, 1, 2):
                raise SchemaError(f"/gluings/{k}/ends/{j}: cuff index {c} not in 0..2")
            if (p, c) in seen_cuffs:
                raise DanglingCuff(
                    f"/gluings/{k}/ends/{j}: cuff [{p}, {c}] already used by curve "
                    f"{seen_cuffs[(p, c)]!r}"
                )
            seen_cuffs[(p, c)] = curve
            parsed_ends.append((p, c))
        gluings.append((curve, *parsed_ends))

    fn_doc = doc.get("fn")
    if not isinstance(fn_doc, dict):
        raise SchemaError("/fn: expected an object keyed by curve label")
    fn_table = {}
    for curve in sorted(seen_curves):
        if curve not in fn_doc:
            raise SchemaError(f"/fn/{curve}: missing coordinates for this curve")
        entry = fn_doc[curve]
        if not isinstance(entry, dict):
            raise SchemaError(f"/fn/{curve}: expected an object")
        l = _complex_pair(entry.get("l"), curve, "l")
        tau = _complex_pair(entry.get("tau"), curve, "tau")
        if l.real <= 0.0:
            raise SchemaError(f"/fn/{curve}/l: real part must be positive")
        fn_table[curve] = (l, tau)
    for curve in fn_doc:
        if curve not in seen_curves:
            raise SchemaError(f"/fn/{curve}: no gluing edge with this label")

    options = dict(DEFAULT_OPTIONS)
    options_doc = doc.get("options", {})
    if not isinstance(options_doc, dict):
        raise SchemaError("/options: expected an object")
    for key, value in options_doc.items():
        if key not in DEFAULT_OPTIONS:
            raise SchemaError(f"/options/{key}: unknown option")
        if key == "word_length":
            if not _is_int(value) or value < 1:
                raise SchemaError(f"/options/{key}: expected a positive integer")
        elif not _is_finite_number(value) or value <= 0:
            raise SchemaError(f"/options/{key}: expected a finite positive number")
        options[key] = value

    config = SurfaceConfig(genus, pants_ids, gluings, fn_table, options)
    try:
        config.graph()
    except MalformedGraph as exc:
        raise CountMismatch(f"/gluings: {exc}") from exc
    return config


def config_to_json(config):
    return json.dumps(config.as_dict(), indent=2, sort_keys=False) + "\n"
