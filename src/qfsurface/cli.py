"""Command-line interface.

Commands read a JSON surface configuration (see :mod:`qfsurface.config`)
and emit JSON, CSV, or SVG on stdout unless --output is given.  Exit codes:
0 success / checks passed, 1 a verification failed its tolerance (also
``PrecisionExhausted``: a FAIL line names the stage and the quantity, such
as a Gram's cocycle_residual or a holonomy's relator_residual), 2 bad input.
Property-test subcommands seed their RNG from the QFS_SEED environment
variable (default 0).  The limit-set and Schwarzian modules, and numpy, are
loaded by the commands that use them, so ``holonomy``, ``lengths``,
``twist``, ``gram`` and ``darboux-check`` start without them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import matrix2 as m2
from .cocycles import PrecisionExhausted, darboux_residual, symplectic_gram
from .config import SchemaError, config_to_json, parse_config
from .moebius import NotLoxodromic
from .presentation import MalformedGraph
from .surface import (
    BranchFailure,
    DegenerateFN,
    UnknownGenerator,
    complex128_stage,
    complex_length_of_curve,
    holonomy,
)

__all__ = ["main"]


def _complex_json(z):
    return [float(z.real), float(z.imag)]


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    return parse_config(text)


def _emit(text, output):
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _relator_residual(rep, config):
    """The relator residual, checked against the config's tolerance: a
    representation that misses its own relator has no trustworthy output."""
    residual = rep.relator_residual()
    tol = config.options["tol"]
    if not residual <= tol:
        raise PrecisionExhausted(f"holonomy: relator_residual {residual:.3e} "
                                 f"exceeds {tol:.1e}")
    return residual


def _cmd_holonomy(args):
    config = _load_config(args.config)
    graph = config.graph()
    rep = holonomy(graph, config.fn(graph))
    generators = {}
    with complex128_stage("holonomy"):
        for gen_id, name in enumerate(rep.presentation.generator_names, start=1):
            a, b, c, d = map(_complex_json, m2.flat_entries(rep.mp_images[gen_id]))
            generators[name] = [[a, b], [c, d]]
    payload = {
        "genus": graph.genus,
        "generators": generators,
        "relator_residual": _relator_residual(rep, config),
        "marking": {
            label: rep.presentation.word_to_string(word)
            for label, word in sorted(rep.presentation.marking.items())
        },
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _cmd_lengths(args):
    config = _load_config(args.config)
    graph = config.graph()
    rep = holonomy(graph, config.fn(graph))
    lengths = {}
    if args.word:
        word = rep.presentation.word_from_string(args.word)
        lengths[args.word] = _complex_json(complex_length_of_curve(rep, word))
    else:
        labels = [args.curve] if args.curve else graph.curve_labels
        for label in labels:
            if label not in rep.presentation.marking:
                raise SchemaError(f"no decomposition curve {label!r}")
            word = rep.curve_word(label)
            lengths[label] = _complex_json(complex_length_of_curve(rep, word))
    payload = {"lengths": lengths, "relator_residual": _relator_residual(rep, config)}
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _gram_payload(config):
    graph = config.graph()
    gram = symplectic_gram(graph, config.fn(graph))
    # basis cocycles that do not vanish on the relator pair to garbage
    tol = config.options["tol"]
    if not gram.cocycle_residual <= tol:
        raise PrecisionExhausted(f"cocycle_gram: cocycle_residual "
                                 f"{gram.cocycle_residual:.3e} exceeds {tol:.1e}")
    residual = darboux_residual(gram)
    labels = [f"l:{c}" for c in graph.curve_labels] + \
             [f"tau:{c}" for c in graph.curve_labels]
    matrix = [[_complex_json(entry) for entry in row] for row in gram.matrix]
    return gram, {
        "basis": labels,
        "matrix": matrix,
        "darboux_residual": residual,
        "raw_asymmetry": gram.raw_asymmetry,
        "cocycle_residual": gram.cocycle_residual,
    }


def _cmd_gram(args):
    config = _load_config(args.config)
    _gram, payload = _gram_payload(config)
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _cmd_darboux_check(args):
    config = _load_config(args.config)
    _gram, payload = _gram_payload(config)
    residual = payload["darboux_residual"]
    tol = config.options["tol"]
    passed = residual <= tol
    status = "PASS" if passed else "FAIL"
    sys.stdout.write(
        f"{status} darboux residual {residual:.3e} (tolerance {tol:.1e})\n"
    )
    return 0 if passed else 1


def _cmd_twist(args):
    config = _load_config(args.config)
    try:
        re_part, im_part = (float(x) for x in args.t.split(","))
    except ValueError:
        raise SchemaError(f"--t expects 're,im', got {args.t!r}") from None
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise SchemaError(f"--t expects finite 're,im', got {args.t!r}")
    moved = config.with_twist(args.curve, complex(re_part, im_part))
    _emit(config_to_json(moved), args.output)
    return 0


def _cmd_limitset(args):
    from .limitset import cloud_to_csv, cloud_to_svg, limit_set
    config = _load_config(args.config)
    depth = config.options["word_length"] if args.depth is None else args.depth
    if depth < 1:
        raise SchemaError(f"--depth must be at least 1, got {depth}")
    graph = config.graph()
    rep = holonomy(graph, config.fn(graph))
    # checked first: far past the tolerance the word products overflow, and
    # the non-finite points all share one dedup cell, whose pairs grow as n^2
    _relator_residual(rep, config)
    cloud = limit_set(rep, depth)
    if args.format == "csv":
        _emit(cloud_to_csv(cloud), args.output)
    else:
        _emit(cloud_to_svg(cloud), args.output)
    return 0


def _cmd_schwarzian_selftest(args):
    import numpy as np

    from .schwarzian import SELFTEST_DRAWS, selftest
    rng = np.random.RandomState(int(os.environ.get("QFS_SEED", "0")))
    worst_kernel, worst_cocycle = selftest(rng)
    failures = []
    if worst_kernel > 1e-8:
        failures.append(f"moebius kernel {worst_kernel:.3e} > 1e-8")
    if worst_cocycle > 1e-6:
        failures.append(f"composition cocycle {worst_cocycle:.3e} > 1e-6")

    sys.stdout.write(
        f"moebius kernel: worst |Sf| = {worst_kernel:.3e} over {SELFTEST_DRAWS} trials\n"
        f"composition cocycle: worst residual = {worst_cocycle:.3e} "
        f"over {SELFTEST_DRAWS} pairs\n"
    )
    sys.stdout.write("".join(f"FAIL {failure}\n" for failure in failures) or "PASS\n")
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qfs",
        description="Surface-group holonomy from complex Fenchel-Nielsen "
                    "coordinates, with symplectic verification tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("holonomy", help="generator matrices and relator residual")
    p.add_argument("config")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_holonomy)

    p = sub.add_parser("lengths", help="complex lengths of curves or words")
    p.add_argument("config")
    p.add_argument("--curve")
    p.add_argument("--word")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_lengths)

    p = sub.add_parser("gram", help="symplectic Gram matrix over the FN frame")
    p.add_argument("config")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("darboux-check", help="compare the Gram matrix to the canonical form")
    p.add_argument("config")
    p.set_defaults(func=_cmd_darboux_check)

    p = sub.add_parser("twist", help="emit the configuration twisted along a curve")
    p.add_argument("config")
    p.add_argument("--curve", required=True)
    p.add_argument("--t", required=True, help="complex twist increment 're,im'")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("limitset", help="limit-set point cloud")
    p.add_argument("config")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_limitset)

    p = sub.add_parser("schwarzian-selftest", help="Schwarzian property suite")
    p.set_defaults(func=_cmd_schwarzian_selftest)

    return parser


@functools.cache
def _parser():
    # parse_args leaves the parser as it was, so one serves every call
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PrecisionExhausted as exc:
        sys.stdout.write(f"FAIL {exc}\n")
        return 1
    except SchemaError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except (DegenerateFN, BranchFailure, NotLoxodromic, UnknownGenerator,
            MalformedGraph) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
