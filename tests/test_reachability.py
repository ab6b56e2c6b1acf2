"""Every function of the package is entered by some ``qfs`` command.

The commands run in-process on the four bundled configs under a
``sys.setprofile`` hook, which records the code object of every Python
frame entered.  A function, method or nested function under
``src/qfsurface`` that no command enters fails the test unless it is on
``ALLOWED``, with the reason it stays.  Comprehensions and lambdas are
left out: they run inside a function that is checked.
"""

import contextlib
import inspect
import io
import os
import sys
from pathlib import Path

import qfsurface
import surfaces
from qfsurface import cli, presentation

OPEN_ITEM = "open item"
PUBLIC_API = "public API"
HARNESS = "benchmark harness"
ORACLE = "test oracle"
DEBUG = "debug __repr__"
BRANCH = "input branch no bundled graph takes, tested directly"

# "module:qualname" -> why it stays though no command enters it
ALLOWED = {
    # the benchmark's health record evaluates each basis cocycle on the
    # relator, and its tests enumerate words, outside the commands
    "cocycles:cocycle_residual": HARNESS,
    "cocycles:TangentCocycle.evaluate_flat": HARNESS,
    "words:reduced_words_up_to": HARNESS,
    # the Goldman bracket of item 3 pairs coboundaries and single cocycles
    "cocycles:coboundary": OPEN_ITEM,
    "cocycles:goldman_pairing": OPEN_ITEM,
    "matrix2:fconj": OPEN_ITEM,
    "matrix2:flat_from_array": OPEN_ITEM,
    # an independent twist oracle and the hexagon criterion (items 2 and 7)
    "hexagon:Hexagon.__init__": OPEN_ITEM,
    "hexagon:Hexagon.__getitem__": OPEN_ITEM,
    "hexagon:hexagon_residuals": OPEN_ITEM,
    "hexagon:_flip": OPEN_ITEM,
    "hexagon:solve_hexagon": OPEN_ITEM,
    # the self-test takes exact derivatives only; the stencils and the map
    # itself serve the Schwarzian work of items 3 and 9
    "schwarzian:HolomorphicSample._step": OPEN_ITEM,
    "schwarzian:moebius_sample.<locals>.f": OPEN_ITEM,
    # the names the package gives on first access, the canonical form, and
    # the twist flow of a coordinate set
    "__init__:__getattr__": PUBLIC_API,
    "cocycles:canonical_form": PUBLIC_API,
    "surface:twist_flow": PUBLIC_API,
    "surface:FNCoordinates.shifted": PUBLIC_API,
    # the Fixed-tuple oracle mixes Fixed with other numbers, converts and
    # tests it
    "matrix2:Fixed.__complex__": ORACLE,
    "matrix2:Fixed.__bool__": ORACLE,
    "matrix2:_operand": ORACLE,
    "matrix2:Jet.__radd__": ORACLE,
    "matrix2:Fixed.__repr__": DEBUG,
    "hexagon:Hexagon.__repr__": DEBUG,
    # collection flips a generator whose inner occurrence is inverted
    "presentation:_flip_generator": BRANCH,
}


def package_functions():
    """(module:qualname) of every function code object in the package."""
    package = Path(os.path.realpath(qfsurface.__file__)).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            # class bodies and the module run without new locals; lambdas
            # and comprehensions run inside a function that is checked
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                found[(str(path), code.co_firstlineno, code.co_name)] = \
                    f"{path.stem}:{code.co_qualname}"
    return found


def command_lines(tmp_path):
    lines = [["schwarzian-selftest"]]
    for stem in surfaces.BUNDLED:
        path = tmp_path / f"{stem}.json"
        path.write_text(surfaces.text(stem))
        config, curve = str(path), "alpha1" if stem.startswith("genus2") else "c1"
        lines += [
            ["holonomy", config], ["lengths", config],
            ["lengths", config, "--curve", curve], ["lengths", config, "--word", "a1*B2"],
            ["gram", config], ["darboux-check", config],
            ["limitset", config, "--depth", "3"],
            ["limitset", config, "--depth", "3", "--format", "svg"],
            ["twist", config, "--curve", curve, "--t", "0.5,-0.25"],
        ]
    return lines


def entered_by_commands(tmp_path):
    lines = command_lines(tmp_path)
    # cached per process: a warm cache would hide the builders behind it
    cli._parser.cache_clear()
    presentation._graph_of.cache_clear()
    entered = set()

    def hook(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in lines]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(lines)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
            for code in entered}


def test_every_function_is_reached_or_allowed(tmp_path):
    functions = package_functions()
    entered = entered_by_commands(tmp_path)
    unreached = {name for key, name in functions.items() if key not in entered}
    assert sorted(unreached - set(ALLOWED)) == []
    # an entry for a function that is gone, or that a command now enters,
    # goes from the list
    assert sorted(set(ALLOWED) - unreached) == []
    assert set(ALLOWED.values()) <= {OPEN_ITEM, PUBLIC_API, HARNESS, ORACLE, DEBUG, BRANCH}
