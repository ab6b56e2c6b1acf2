import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import qfsurface
from qfsurface import cli
from qfsurface import matrix2 as m2
from qfsurface import presentation
from qfsurface.config import (
    CountMismatch,
    DanglingCuff,
    SchemaError,
    config_to_json,
    parse_config,
)
from qfsurface.cli import main as cli_main
from qfsurface.presentation import MalformedGraph
from qfsurface.surface import holonomy

BUNDLED = ("genus2_fuchsian.json", "genus2_quasifuchsian.json",
           "genus2_separating.json", "genus3.json")


def bundled(name):
    return resources.files("qfsurface.data").joinpath(name).read_text()


def bundled_path(name, tmp_path):
    path = tmp_path / name
    path.write_text(bundled(name))
    return str(path)


def test_bundled_configs_parse():
    for name in BUNDLED:
        config = parse_config(bundled(name))
        graph = config.graph()
        assert graph.num_curves == 3 * config.genus - 3
        assert graph.num_pants == 2 * config.genus - 2
        fn = config.fn(graph)
        assert len(fn) == graph.num_curves
        # the relator holds to the working precision, not to complex128
        rep = holonomy(graph, fn)
        product = m2.FEYE
        for letter in rep.presentation.relator:
            product = m2.fmul(product, rep.generator_flat(letter))
        residual = m2.fmax_abs(m2.fadd(product, m2.fscale(m2.FEYE, -1)))
        assert residual <= 1e-25


def test_count_mismatch_detected():
    doc = json.loads(bundled("genus2_fuchsian.json"))
    doc["gluings"].append({"curve": "alpha4", "ends": [[0, 0], [1, 1]]})
    with pytest.raises(CountMismatch):
        parse_config(json.dumps(doc))


def test_duplicate_cuff_detected():
    doc = json.loads(bundled("genus2_fuchsian.json"))
    doc["gluings"][2]["ends"] = [[0, 1], [1, 2]]  # cuff (0,1) used twice
    with pytest.raises(DanglingCuff):
        parse_config(json.dumps(doc))


def test_schema_errors_have_pointer_paths():
    doc = json.loads(bundled("genus2_fuchsian.json"))
    doc["fn"]["alpha2"]["l"] = [2.0]
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(doc))
    assert "/fn/alpha2/l" in str(err.value)

    doc = json.loads(bundled("genus2_fuchsian.json"))
    doc["gluings"][1]["ends"][0] = [0, 7]
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(doc))
    assert "/gluings/1/ends/0" in str(err.value)


def mutated(edit):
    doc = json.loads(bundled("genus2_fuchsian.json"))
    edit(doc)
    return json.dumps(doc)


def disconnected_genus3():
    # two genus-2 halves: the counts of genus 3, but two components
    doc = json.loads(bundled("genus2_fuchsian.json"))
    doc["genus"] = 3
    doc["pants"] = [{"id": f"P{k}"} for k in range(4)]
    doc["gluings"] += [{"curve": f"beta{k}", "ends": [[2, k], [3, k]]} for k in range(3)]
    doc["fn"].update({f"beta{k}": doc["fn"]["alpha1"] for k in range(3)})
    return json.dumps(doc)


def nan_text():
    return bundled("genus2_fuchsian.json").replace('"l": [2.5, 0.0]', '"l": [NaN, 0.0]')


# (document, error type, message): every error parse_config raises, one row
# per raising branch
CONFIG_ERRORS = [
    ("", SchemaError, "invalid JSON at line 1 column 1: Expecting value"),
    ("[]", SchemaError, "/: expected a JSON object"),
    (mutated(lambda d: d.update(genus=1)), SchemaError,
     "/genus: expected an integer >= 2, got 1"),
    (mutated(lambda d: d.update(genus=True)), SchemaError,
     "/genus: expected an integer >= 2, got True"),
    (mutated(lambda d: d.update(pants=[])), SchemaError, "/pants: expected a nonempty list"),
    (mutated(lambda d: d["pants"].__setitem__(1, {})), SchemaError,
     "/pants/1: expected an object with an 'id'"),
    (mutated(lambda d: d["pants"].__setitem__(1, {"id": "P0"})), SchemaError,
     "/pants: duplicate pants ids"),
    (mutated(lambda d: d["pants"].append({"id": "P2"})), CountMismatch,
     "/pants: 3 pants for genus 2, expected 2"),
    (mutated(lambda d: d.update(gluings={})), SchemaError, "/gluings: expected a list"),
    (mutated(lambda d: d["gluings"].pop()), CountMismatch,
     "/gluings: 2 gluing edges for genus 2, expected 3"),
    (mutated(lambda d: d["gluings"].__setitem__(1, [])), SchemaError,
     "/gluings/1: expected an object"),
    (mutated(lambda d: d["gluings"][1].update(curve="")), SchemaError,
     "/gluings/1/curve: expected a nonempty string"),
    (mutated(lambda d: d["gluings"][1].update(curve="alpha1")), SchemaError,
     "/gluings/1/curve: duplicate curve label 'alpha1'"),
    (mutated(lambda d: d["gluings"][1].update(ends=[[0, 1]])), SchemaError,
     "/gluings/1/ends: expected two [pants, cuff] pairs"),
    (mutated(lambda d: d["gluings"][1]["ends"].__setitem__(1, [1, 1.0])), SchemaError,
     "/gluings/1/ends/1: expected [pantsIndex, cuffIndex]"),
    (mutated(lambda d: d["gluings"][1]["ends"].__setitem__(0, [2, 1])), SchemaError,
     "/gluings/1/ends/0: pants index 2 out of range"),
    (mutated(lambda d: d["gluings"][1]["ends"].__setitem__(0, [0, 7])), SchemaError,
     "/gluings/1/ends/0: cuff index 7 not in 0..2"),
    (mutated(lambda d: d["gluings"][2].update(ends=[[0, 1], [1, 2]])), DanglingCuff,
     "/gluings/2/ends/0: cuff [0, 1] already used by curve 'alpha2'"),
    # a cuff glued to itself is a cuff used twice
    (mutated(lambda d: d["gluings"][1].update(ends=[[0, 1], [0, 1]])), DanglingCuff,
     "/gluings/1/ends/1: cuff [0, 1] already used by curve 'alpha2'"),
    (disconnected_genus3(), CountMismatch, "/gluings: gluing graph is not connected"),
    (mutated(lambda d: d.update(fn=[])), SchemaError,
     "/fn: expected an object keyed by curve label"),
    (mutated(lambda d: d["fn"].pop("alpha2")), SchemaError,
     "/fn/alpha2: missing coordinates for this curve"),
    (mutated(lambda d: d["fn"].update(alpha2=[2.5, 0.0])), SchemaError,
     "/fn/alpha2: expected an object"),
    (mutated(lambda d: d["fn"]["alpha2"].update(l=[2.0])), SchemaError,
     "/fn/alpha2/l: expected a finite [re, im] pair, got [2.0]"),
    (nan_text(), SchemaError, "/fn/alpha2/l: expected a finite [re, im] pair, got [nan, 0.0]"),
    (mutated(lambda d: d["fn"]["alpha3"].pop("tau")), SchemaError,
     "/fn/alpha3/tau: expected a finite [re, im] pair, got None"),
    (mutated(lambda d: d["fn"]["alpha1"].update(l=[0.0, 1.0])), SchemaError,
     "/fn/alpha1/l: real part must be positive"),
    (mutated(lambda d: d["fn"].update(alpha4=d["fn"]["alpha1"])), SchemaError,
     "/fn/alpha4: no gluing edge with this label"),
    (mutated(lambda d: d.update(options=[])), SchemaError, "/options: expected an object"),
    (mutated(lambda d: d["options"].update(depth=3)), SchemaError,
     "/options/depth: unknown option"),
    (mutated(lambda d: d["options"].update(word_length=0)), SchemaError,
     "/options/word_length: expected a positive integer"),
    (mutated(lambda d: d["options"].update(tol=-1.0)), SchemaError,
     "/options/tol: expected a finite positive number"),
]


@pytest.mark.parametrize("text, error, message", CONFIG_ERRORS,
                         ids=[message for _text, _error, message in CONFIG_ERRORS])
def test_config_errors_keep_their_messages(text, error, message):
    with pytest.raises(SchemaError) as err:
        parse_config(text)
    assert type(err.value) is error
    assert str(err.value) == message


def test_config_round_trip():
    config = parse_config(bundled("genus2_fuchsian.json"))
    again = parse_config(config_to_json(config))
    assert again.as_dict() == config.as_dict()


def test_twist_emission():
    config = parse_config(bundled("genus2_fuchsian.json"))
    moved = config.with_twist("alpha1", 0.25 + 0.5j)
    l, tau = moved.fn_table["alpha1"]
    assert tau == 0.3 + 0.25 + 0.5j
    assert l == 2.0
    # other curves untouched
    assert moved.fn_table["alpha2"] == config.fn_table["alpha2"]


def test_cli_holonomy_and_lengths(tmp_path, capsys):
    path = bundled_path("genus2_fuchsian.json", tmp_path)
    assert cli_main(["holonomy", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["relator_residual"] <= 1e-9
    assert set(payload["generators"]) == {"a1", "b1", "a2", "b2"}

    assert cli_main(["lengths", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["lengths"]["alpha1"][0] - 2.0) <= 1e-9
    assert abs(payload["lengths"]["alpha2"][0] - 2.5) <= 1e-9

    # B1^-1 inverts b1 twice, so a1*B1^-1 is the word a1*b1
    printed = []
    for word in ("a1*b1", "a1*B1^-1"):
        assert cli_main(["lengths", path, "--word", word]) == 0
        printed.append(json.loads(capsys.readouterr().out)["lengths"][word])
    assert printed[0] == printed[1]


@pytest.mark.parametrize("extra, message", [
    (["--word", "x9"], "unknown generator 'x9'"),
    (["--word", "^-1"], "unknown generator '^-1'"),
    (["--word", ""], "the identity"),
    (["--curve", ""], "no decomposition curve ''"),
    (["--curve", "alpha1", "--word", "a1"], "--curve and --word exclude each other"),
])
def test_cli_lengths_rejects_bad_words(tmp_path, capsys, extra, message):
    # an empty --word or --curve names nothing, not every curve
    path = bundled_path("genus2_fuchsian.json", tmp_path)
    assert cli_main(["lengths", path, *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: ") and message in err


def test_cli_darboux_check(tmp_path, capsys):
    for name in BUNDLED:
        assert cli_main(["darboux-check", bundled_path(name, tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS darboux residual ")
        assert float(out.split()[3]) <= 1e-15


def test_cli_gram_payload(tmp_path, capsys):
    path = bundled_path("genus2_fuchsian.json", tmp_path)
    assert cli_main(["gram", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["darboux_residual"] <= 1e-4
    for key in ("raw_asymmetry", "cocycle_residual"):
        assert math.isfinite(payload[key])
    matrix = np.array([[complex(re, im) for re, im in row]
                       for row in payload["matrix"]])
    assert matrix.shape == (6, 6)
    assert np.max(np.abs(matrix + matrix.T)) <= 1e-8


def test_cli_twist_round_trip(tmp_path, capsys):
    path = bundled_path("genus2_fuchsian.json", tmp_path)
    assert cli_main(["twist", path, "--curve", "alpha2", "--t", "0.5,-0.25"]) == 0
    moved = parse_config(capsys.readouterr().out)
    assert moved.fn_table["alpha2"][1] == -0.4 + 0.5 - 0.25j


def test_cli_limitset_csv(tmp_path, capsys):
    path = bundled_path("genus2_fuchsian.json", tmp_path)
    assert cli_main(["limitset", path, "--depth", "4", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "re,im,word_length"
    assert len(lines) > 10
    for line in lines[1:]:
        re_s, im_s, length_s = line.split(",")
        float(re_s), float(im_s), int(length_s)


def test_cli_limitset_depth_defaults_to_word_length(tmp_path, capsys):
    doc = json.loads(bundled("genus2_fuchsian.json"))
    doc["options"]["word_length"] = 2
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["limitset", str(path)]) == 0
    lengths = {int(line.rsplit(",", 1)[1])
               for line in capsys.readouterr().out.strip().split("\n")[1:]}
    assert lengths == {1, 2}


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_cli_limitset_rejects_depth_below_one(tmp_path, capsys, depth):
    path = bundled_path("genus2_fuchsian.json", tmp_path)
    assert cli_main(["limitset", path, "--depth", depth]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--depth must be at least 1, got {depth}" in captured.err


def test_cli_limitset_svg(tmp_path, capsys):
    path = bundled_path("genus2_fuchsian.json", tmp_path)
    assert cli_main(["limitset", path, "--depth", "3", "--format", "svg"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<svg")
    assert "<circle" in out


def test_cli_schwarzian_selftest(capsys, monkeypatch):
    monkeypatch.setenv("QFS_SEED", "0")
    assert cli_main(["schwarzian-selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_input_error_exit_code(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"genus\": 2}")
    assert cli_main(["holonomy", str(bad)]) == 2
    assert cli_main(["holonomy", str(tmp_path / "missing.json")]) == 2

    def broken_plan(graph):
        raise MalformedGraph("collection did not reach commutator form")

    monkeypatch.setattr(presentation, "_build_plan", broken_plan)
    # plans are cached per graph; the broken builder runs on a miss
    presentation._plan_of.cache_clear()
    assert cli_main(["holonomy", bundled_path("genus2_fuchsian.json", tmp_path)]) == 2
    assert "commutator form" in capsys.readouterr().err


def _set_fn(part, value):
    def mutate(doc):
        doc["fn"]["alpha1"][part] = value
    return mutate


def _set_tol(doc):
    doc["options"]["tol"] = math.inf


# json reads NaN, Infinity, true and false, and bool is an int
@pytest.mark.parametrize("command, mutate, path", [
    (["lengths"], _set_fn("l", [math.nan, 0.0]), "/fn/alpha1/l"),
    (["gram"], _set_fn("l", [2.0, math.inf]), "/fn/alpha1/l"),
    (["gram"], _set_fn("tau", [-math.inf, 0.0]), "/fn/alpha1/tau"),
    (["gram"], _set_fn("tau", [True, 0.0]), "/fn/alpha1/tau"),
    (["darboux-check"], _set_tol, "/options/tol"),
    (["twist", "--curve", "alpha1", "--t", "nan,0"], None, "--t"),
], ids=["lengths-nan-l", "gram-inf-l", "gram-inf-tau", "gram-bool-tau",
        "darboux-check-inf-tol", "twist-nan"])
def test_cli_rejects_non_finite_and_boolean_input(tmp_path, capsys, command, mutate, path):
    doc = json.loads(bundled("genus2_fuchsian.json"))
    if mutate is not None:
        mutate(doc)
    config = tmp_path / "input.json"
    config.write_text(json.dumps(doc))
    argv = [command[0], str(config), *command[1:]]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert path in captured.err


def test_cli_residual_failure_exit_code(tmp_path, capsys):
    doc = json.loads(bundled("genus2_fuchsian.json"))
    doc["options"]["tol"] = 1e-300  # unreachably tight tolerance
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["darboux-check", str(path)]) == 1
    assert capsys.readouterr().out.startswith("FAIL")


def test_console_entry_point(tmp_path):
    path = bundled_path("genus2_fuchsian.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "qfsurface.cli", "lengths", path],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "alpha1" in result.stdout


def test_cli_overflow_past_complex128_is_input_error(tmp_path, capsys):
    # at Re l = 1000 the working-precision values pass 2^1024, the range of
    # complex128; each command names the stage where they are rounded
    doc = json.loads(bundled("genus2_fuchsian.json"))
    doc["fn"]["alpha1"]["l"] = [1000.0, 0.0]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    output = str(tmp_path / "out")
    for command, stage in (("lengths", "complex_length_of_curve"),
                           ("holonomy", "holonomy"),
                           ("gram", "cocycle_gram"),
                           ("limitset", "relator_residual")):
        assert cli_main([command, str(path), "--output", output]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {stage}: ")
        assert "exceed complex128" in captured.err


def long_alpha1_path(tmp_path):
    # at Re l = 60 the working precision no longer holds the relator:
    # its residual reads about 1e9
    doc = json.loads(bundled("genus2_fuchsian.json"))
    doc["fn"]["alpha1"]["l"] = [60.0, 0.0]
    path = tmp_path / "long60.json"
    path.write_text(json.dumps(doc))
    return str(path)


GATED = (("lengths",), ("holonomy",), ("limitset", "--depth", "2"))


def test_cli_relator_residual_gate(tmp_path, capsys):
    output = tmp_path / "out"
    path = long_alpha1_path(tmp_path)
    for command, *extra in GATED:
        assert cli_main([command, path, "--output", str(output), *extra]) == 1
        assert capsys.readouterr().out.startswith("FAIL holonomy: relator_residual ")
        assert not output.exists()
    for name in BUNDLED:
        path = bundled_path(name, tmp_path)
        for command, *extra in GATED:
            assert cli_main([command, path, "--output", str(output), *extra]) == 0
            assert capsys.readouterr().out == ""


def test_cli_builds_its_parser_once(tmp_path, monkeypatch):
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    path = bundled_path("genus2_fuchsian.json", tmp_path)
    for k in range(2):
        argv = ["twist", path, "--curve", "alpha1", "--t", f"0.{k},0",
                "--output", str(tmp_path / f"twisted{k}.json")]
        assert cli_main(argv) == 0
    assert len(calls) <= 1


def test_cli_checks_hold_under_optimize(tmp_path):
    # the checks are computations, not asserts: -O strips nothing they need
    path = bundled_path("genus3.json", tmp_path)
    src = Path(qfsurface.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(*argv):
        return subprocess.run([sys.executable, "-O", "-m", "qfsurface.cli", *argv],
                              capture_output=True, text=True, env=env)

    for command, key in (("lengths", "relator_residual"),
                         ("gram", "cocycle_residual")):
        result = run(command, path)
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload[key] <= 1e-40
    result = run("limitset", path, "--depth", "3", "--format", "csv")
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header == "re,im,word_length"
    cloud = np.loadtxt(rows, delimiter=",", ndmin=2)
    assert cloud.shape == (len(rows), 3) and len(rows) > 100
    assert np.all(np.isfinite(cloud))
    result = run("limitset", long_alpha1_path(tmp_path), "--depth", "3")
    assert result.returncode == 1
    assert result.stdout.startswith("FAIL holonomy: relator_residual ")


PUBLIC_NAMES = [
    "BaseMismatch", "BranchFailure", "COEFFICIENT_SCALE", "CountMismatch",
    "CriticalPoint", "DanglingCuff", "DegenerateFN", "DegenerateSide", "FNCoordinates",
    "GluingEdge", "Hexagon", "HolomorphicSample", "LimitSetCloud", "MalformedGraph",
    "NotLoxodromic", "PAIRING_SIGN", "PantsDecompositionGraph", "PrecisionExhausted",
    "ReduciblePants", "Representation", "SchemaError", "SurfaceConfig",
    "SurfaceGroupPresentation", "SymplecticGram", "TangentCocycle", "UnknownGenerator",
    "build_presentation", "cloud_to_csv", "cloud_to_svg", "coboundary", "cocycle_check",
    "cocycle_gram", "cocycle_residual", "cocycles", "complex_length_of_curve", "config",
    "config_to_json", "darboux_residual", "fd_basis_cocycles", "fuchsian_residual",
    "goldman_pairing", "hexagon", "hexagon_residuals", "holonomy", "importlib",
    "limit_set", "limitset", "matrix2", "normalize_complex_length", "pants",
    "parse_config", "presentation", "schwarzian", "schwarzian_at", "solve_hexagon",
    "surface", "symplectic_gram", "twist_flow", "words",
]


def test_package_public_names_are_pinned():
    # the names bound on a fresh import, and those given on first access: an
    # export added or removed is an edit of this list
    src = Path(qfsurface.__file__).resolve().parent.parent
    script = """
import json, qfsurface
names = {name for name in dir(qfsurface) if not name.startswith("_")}
names |= set(qfsurface._ON_ACCESS) | set(qfsurface._HOME)
print(json.dumps(sorted(names)))
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == PUBLIC_NAMES


def test_commands_do_not_import_mpmath(tmp_path):
    # mpmath is the tests' oracle: the working precision, exp included, is
    # plain integer arithmetic, so no command pays for importing it.  numpy
    # is loaded only where an array is built: lengths, holonomy, gram and
    # darboux-check start without it.  Importing the CLI still loads every
    # module a Gram runs, and the package gives the other modules' names on
    # first access.
    path = bundled_path("genus3.json", tmp_path)
    src = Path(qfsurface.__file__).resolve().parent.parent
    script = """
import contextlib, io, json, sys
from qfsurface.cli import main
path = sys.argv[1]
loaded = "qfsurface.cocycles" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["lengths", path]), main(["holonomy", path]),
             main(["gram", path]), main(["darboux-check", path])]
    without_numpy = "numpy" not in sys.modules
    import qfsurface
    # names given on first access are the submodules' own objects
    wrong = [name for name, home in qfsurface._HOME.items()
             if getattr(qfsurface, name) is not getattr(sys.modules["qfsurface." + home], name)]
    wrong += [home for home in qfsurface._ON_ACCESS
              if getattr(qfsurface, home) is not sys.modules["qfsurface." + home]]
    # every exported name resolves: a deleted function left in __all__ shows here
    import importlib, pkgutil
    modules = [importlib.import_module("qfsurface." + info.name)
               for info in pkgutil.iter_modules(qfsurface.__path__)]
    wrong += [module.__name__ + "." + name for module in modules
              for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    codes.append(main(["limitset", path, "--depth", "3"]))
print(json.dumps([codes, loaded, without_numpy, wrong,
                  sorted(m for m in sys.modules if m.startswith("mpmath"))]))
"""
    result = subprocess.run([sys.executable, "-c", script, path], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[0, 0, 0, 0, 0], True, True, [], []]
