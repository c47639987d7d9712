"""The import contract: ``import gamblesets`` loads no submodule, the deciding
commands load only the modules they run, the package exports the same names
from the same home modules, and no module defines or imports a name that
nothing uses."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gamblesets

from test_cli import WORKED_INSTANCE, honest

SRC = Path(gamblesets.__file__).resolve().parents[1]

# Every public name of the package, by the module that defines it.
EXPORTS = {
    "ratlp": [
        "EQ", "LEQ", "LT", "Infeasible", "LinearProgram", "Optimal",
        "Unbounded", "fm_feasible", "lp_solve", "rational", "rational_str",
        "verify_outcome",
    ],
    "gambles": [
        "DimensionMismatch", "Gamble", "PossibilitySpace", "gamble", "geq",
        "gt", "in_cone_geq0", "in_cone_gt0", "in_cone_wd0", "indicator", "scale",
        "wgeq", "zero",
    ],
    "cones": [
        "Certificate", "ConeGenerators", "certificate_valid",
        "certificate_valid_strict", "d_coherent", "desext_contains",
        "desext_contains_strict", "posi_contains", "zero_in_desext",
        "zero_in_desext_strict",
    ],
    "extension": [
        "Assessment", "CapExceeded", "Evidence", "ExtAnswer", "GambleSet",
        "InconsistentAssessment", "closure_holds", "ext_contains",
        "is_consistent", "verify_ext_answer",
    ],
    "axioms": [
        "DerivationTrace", "DominanceError", "KAddInstance", "TraceError",
        "addpair_derive", "dom_from_add_check", "verify_trace",
    ],
    "formulations": ["ext_contains_indicator", "ext_contains_split", "formulations_agree"],
    "representation": ["DFamilySpec", "FinGenD", "k_family_contains", "kd_contains"],
    "oracle": [
        "InstanceGenConfig", "brute_ext_contains", "default_space",
        "fm_desext_contains", "fm_desext_contains_strict", "fm_posi_contains",
        "fm_zero_in_desext", "gen_instance",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]

# Modules that no decision and no certificate check needs.
UNUSED_BY_DECISIONS = ("formulations", "representation", "axioms")


def run_python(code: str, *args) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this source tree."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_no_submodule():
    out = run_python(
        "import sys, gamblesets\n"
        "print(sorted(m for m in sys.modules if m.startswith('gamblesets.')))"
    )
    assert out == "[]\n"


def test_deciding_commands_load_only_what_they_run(tmp_path):
    worked = tmp_path / "worked.json"
    worked.write_text(json.dumps(WORKED_INSTANCE), encoding="utf-8")
    answer = tmp_path / "answer.json"
    code = (
        "import contextlib, io, json, pathlib, sys\n"
        "from gamblesets.cli import main\n"
        "instance, answer = sys.argv[1:]\n"
        "loaded = {}\n"
        "for args in (['in-ext', instance], ['consistency', instance],\n"
        "             ['in-desext', instance], ['selftest', '--verify', answer]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(args) == 0\n"
        "    if args[0] == 'in-ext':\n"
        "        pathlib.Path(answer).write_text(out.getvalue())\n"
        "    loaded[args[0]] = sorted(m for m in sys.modules if m.startswith('gamblesets.'))\n"
        "print(json.dumps(loaded))\n"
    )
    loaded = json.loads(run_python(code, worked, answer))
    assert list(loaded) == ["in-ext", "consistency", "in-desext", "selftest"]
    for command, modules in loaded.items():
        unused = [m for m in modules if m.rpartition(".")[2] in UNUSED_BY_DECISIONS]
        assert unused == [], command
        # Only selftest --verify reads a recorded payload back.
        assert ("gamblesets.check" in modules) == (command == "selftest"), command


def test_verify_loads_no_decider(tmp_path):
    # selftest --verify checks by substitution alone: it reads a payload back
    # into the values of ``proofs`` and applies its rules, so neither the
    # cone tests nor the walk is loaded, for a "yes" or for a weak "no" and
    # its refutations.
    paths = []
    for instance in ("worked", "negative"):
        paths.append(tmp_path / f"{instance}.json")
        paths[-1].write_text(honest("in-ext", instance), encoding="utf-8")
    code = (
        "import contextlib, io, json, sys\n"
        "from gamblesets.cli import main\n"
        "verdicts = []\n"
        "for path in sys.argv[1:]:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(['selftest', '--verify', path]) == 0\n"
        "    verdicts.append(json.loads(out.getvalue()))\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('gamblesets.'))\n"
        "print(json.dumps([verdicts, loaded]))\n"
    )
    verdicts, loaded = json.loads(run_python(code, *paths))
    assert [(v["certificates_checked"], v["refutations_checked"]) for v in verdicts] == [
        (4, 0), (0, 2)
    ]
    solvers = {f"gamblesets.{m}" for m in ("cones", "extension", *UNUSED_BY_DECISIONS)}
    assert "gamblesets.proofs" in loaded and solvers.isdisjoint(loaded), loaded


def test_deciding_commands_build_no_dataclass(tmp_path):
    # The engine's value classes are plain classes: a frozen dataclass costs
    # about a millisecond to create, and ``dataclasses`` imports ``inspect``.
    # Nor is argv read by argparse, whose first message imports ``gettext``
    # and ``locale``.
    worked = tmp_path / "worked.json"
    worked.write_text(json.dumps(WORKED_INSTANCE), encoding="utf-8")
    answer = tmp_path / "answer.json"
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contextlib, io, json, pathlib\n"
        "from gamblesets.cli import main\n"
        "instance, answer = sys.argv[1:]\n"
        "added = {}\n"
        "for args in (['in-ext', instance], ['consistency', instance],\n"
        "             ['in-desext', instance], ['selftest', '--verify', answer]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(args) == 0\n"
        "    if args[0] == 'in-ext':\n"
        "        pathlib.Path(answer).write_text(out.getvalue())\n"
        "    added[args[0]] = [m for m in ('dataclasses', 'inspect', 'argparse', 'gettext',\n"
        "                                  'locale')\n"
        "                      if m in sys.modules and m not in before]\n"
        "print(json.dumps(added))\n"
    )
    added = json.loads(run_python(code, worked, answer))
    assert added == {"in-ext": [], "consistency": [], "in-desext": [], "selftest": []}


@pytest.mark.parametrize("module, name", NAMES)
def test_public_name_resolves_to_its_home(module, name):
    home = importlib.import_module(f"gamblesets.{module}")
    assert getattr(gamblesets, name) is getattr(home, name)
    assert name in dir(gamblesets)


def test_exports_are_exactly_the_public_names():
    assert sorted(gamblesets.__all__) == sorted(name for _, name in NAMES)
    assert len(NAMES) == 67
    with pytest.raises(AttributeError):
        gamblesets.no_such_name
    with pytest.raises(ImportError):
        exec("from gamblesets import no_such_name", {})


def test_cli_binds_the_oracle_calls_it_is_traced_by():
    # Traced self-tests key their oracle calls by the binding module
    # (``calls:cli.fm_posi_contains``, ...), so these stay names of ``cli``.
    cli = importlib.import_module("gamblesets.cli")
    for module, names in (
        ("oracle", ("fm_posi_contains", "fm_zero_in_desext", "fm_desext_contains",
                    "fm_desext_contains_strict", "brute_ext_contains")),
        ("ratlp", ("fm_feasible", "lp_solve")),
    ):
        home = importlib.import_module(f"gamblesets.{module}")
        for name in names:
            assert vars(cli).get(name) is getattr(home, name), name


def _imports(module: str) -> list[tuple[str, str]]:
    """(sibling module, name) for each name ``module`` imports from a module
    of the package by a relative ``from`` import."""
    tree = ast.parse((SRC / "gamblesets" / f"{module}.py").read_text(encoding="utf-8"))
    return [
        (node.module or "", alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]


MODULES = sorted(p.stem for p in (SRC / "gamblesets").glob("*.py"))


def test_each_encoding_has_one_home():
    # Every cone LP is built in ``cones`` (``cli`` runs its own random programs
    # in the self-test); nothing reaches into a sibling's private names; and
    # the Fourier-Motzkin oracle stays independent of the engine it checks.
    solvers = sorted(
        m for m in MODULES if any(n in ("lp_solve", "LinearProgram") for _, n in _imports(m))
    )
    assert solvers == ["cli", "cones"]
    private = [(m, src, n) for m in MODULES for src, n in _imports(m) if n.startswith("_")]
    assert private == []
    engine = {"cones", "extension", "formulations", "axioms", "representation"}
    assert [src for src, _ in _imports("oracle") if src in engine] == []


def test_the_checker_imports_no_solver():
    # ``proofs`` holds the answers' values and the rules that check them by
    # substitution: it imports the gambles and the value helpers of
    # ``ratlp``, and no solver, decider or oracle.
    imports = _imports("proofs")
    assert {src for src, _ in imports} == {"gambles", "ratlp"}
    banned = {"lp_solve", "LinearProgram", "fm_feasible", "cones", "extension", "oracle"}
    assert [(src, n) for src, n in imports if banned & {src, n}] == []
    tree = ast.parse((SRC / "gamblesets" / "proofs.py").read_text(encoding="utf-8"))
    absolute = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ]
    absolute += [
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and not node.level
    ]
    assert [m for m in absolute if m.partition(".")[0] == "gamblesets"] == []


def _trees() -> dict[str, ast.Module]:
    return {
        m: ast.parse((SRC / "gamblesets" / f"{m}.py").read_text(encoding="utf-8"))
        for m in MODULES
    }


def _defined(tree: ast.Module) -> list[str]:
    """The top-level names a module defines: functions, classes and
    assignment targets, dunders left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _read(tree: ast.AST) -> set[str]:
    """The names a tree loads, imports by a ``from`` import, or reads as an
    attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_top_level_name_is_used_or_exported():
    trees = _trees()
    read = set().union(*map(_read, trees.values()))
    exported = {name for names in gamblesets._EXPORTS.values() for name in names}
    unused = [
        (m, name) for m, tree in trees.items() for name in _defined(tree)
        if name not in read and name not in exported
    ]
    assert unused == []


def test_every_imported_name_is_used_where_it_is_imported():
    # The package, the tests and the scripts; a plain ``import a.b`` binds a.
    root = Path(__file__).resolve().parents[1]
    paths = [
        *(SRC / "gamblesets").glob("*.py"), *root.glob("tests/*.py"), *root.glob("scripts/*.py")
    ]
    unused = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                bound = (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                unused += [(path.name, name) for name in bound if name not in loaded]
    assert unused == []
