#!/usr/bin/env python3
"""Mutation gate on the functions that decide whether evidence holds.

Each mutant changes one token of one target function: a comparison swapped
(``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``in``/``not in``,
``is``/``is not``), ``and``/``or`` swapped, a ``not`` dropped, ``any``/``all``
swapped, a ``return True``/``return False`` flipped, or an integer constant
0 or 1 turned into the other. The mutated module is written, with
``ast.unparse``, into a fresh copy of the package, and the fixed pytest
subset ``TESTS`` runs against that copy; a mutant that no test fails
*survives* and is printed with its line. The tests draw their instances
from fixed seeds, so a run is repeatable. The unmutated copy, unparsed the
same way, runs first and must pass.

A survivor is allowed only when ``ALLOWED`` names it, with the reason why the
mutant is equivalent: no input the checker can be given tells it from the
original. The exit status is 1 when a survivor is not allowed (or an allowed
entry names no mutant), 2 when the unmutated copy fails, else 0.

    python scripts/mutate_checker.py            # run every mutant, JOBS at once
    python scripts/mutate_checker.py --list     # print the mutants only

Method: DeMillo, Lipton and Sayward, "Hints on test data selection" (IEEE
Computer, 1978); Jia and Harman, "An analysis and survey of the development
of mutation testing" (IEEE TSE, 2011).
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gamblesets"

# The functions that decide whether a certificate, a refutation or an
# answer holds, as (module, qualified name).
TARGETS = (
    ("proofs", "verify_ext_answer"),
    ("proofs", "_kept_members"),
    ("proofs", "_refuted"),
    ("proofs", "Certificate.reconstructs"),
    ("proofs", "Refutation.refutes"),
    ("proofs", "_valid"),
    ("proofs", "answer_holds"),
    ("gambles", "substitute"),
    ("gambles", "in_cone_wd0"),
    ("gambles", "in_cone_gt0"),
    ("ratlp", "verify_outcome"),
    ("check", "_check_verdicts"),
    ("check", "_ext_answer_from_payload"),
    ("check", "verify_recorded"),
    ("axioms", "verify_trace"),
)

# The one pytest subset every mutant runs against.
TESTS = (
    "tests/test_extension.py",
    "tests/test_cones.py",
    "tests/test_cli.py",
    "tests/test_formulations.py",
    "tests/test_gambles.py",
    "tests/test_ratlp.py",
    "tests/test_derivations.py",
)

# Mutants run at once, each a pytest process of its own.
JOBS = 2

# Survivors that are equivalent mutants, keyed by the id ``--list`` prints
# (module.function+line:column, the line counted from the ``def``, and the
# change), each with the reason no input tells it from the original. None
# survives today. A mutant that survives only because no test asks for its
# behaviour is not equivalent: write the test instead.
ALLOWED: dict[str, str] = {}

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
}


def _function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    scope: list[ast.stmt] = tree.body
    for name in qualname.split("."):
        node = next(
            n for n in scope
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name
        )
        scope = node.body
    return node


def _sites(func: ast.FunctionDef):
    """(node, description, apply) for every mutation of the function, in a
    fixed order; ``apply`` mutates the node in place."""
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                new = _SWAPS.get(type(op))
                if new is not None:
                    desc = f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[new]}"
                    yield node, desc, lambda n, k=k, new=new: n.ops.__setitem__(k, new())
        elif isinstance(node, ast.BoolOp):
            new = ast.Or if isinstance(node.op, ast.And) else ast.And
            desc = "and -> or" if new is ast.Or else "or -> and"
            yield node, desc, lambda n, new=new: setattr(n, "op", new())
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            swap = {"any": "all", "all": "any"}.get(node.func.id)
            if swap:
                yield node, f"{node.func.id} -> {swap}", (
                    lambda n, swap=swap: setattr(n.func, "id", swap))
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, bool):
                flip = not node.value.value
                yield node, f"return {not flip} -> return {flip}", (
                    lambda n, flip=flip: setattr(n.value, "value", flip))
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1):
            other = 1 - node.value
            yield node, f"{node.value} -> {other}", (
                lambda n, other=other: setattr(n, "value", other))
        # A dropped ``not``: the operand stands alone. Its parent is found
        # again when the mutant is applied.
        for field, value in ast.iter_fields(node):
            items = value if isinstance(value, list) else [value]
            for k, child in enumerate(items):
                if isinstance(child, ast.UnaryOp) and isinstance(child.op, ast.Not):
                    def drop(n, field=field, k=k, listed=isinstance(value, list)):
                        if listed:
                            getattr(n, field)[k] = getattr(n, field)[k].operand
                        else:
                            setattr(n, field, getattr(n, field).operand)
                    yield node, "not dropped", drop


def mutants() -> list[dict]:
    """Every mutant of every target, by target and then by position. An id
    is the function, the line's offset from its ``def`` and the column, and
    the change; a change made more than once at one place is numbered."""
    found = []
    for module, qualname in TARGETS:
        path = PACKAGE / f"{module}.py"
        func = _function(ast.parse(path.read_text(encoding="utf-8")), qualname)
        sites = [(node.lineno, node.col_offset, index, desc)
                 for index, (node, desc, _) in enumerate(_sites(func))]
        seen: dict[str, int] = {}
        for line, col, index, desc in sorted(sites):
            key = f"{module}.{qualname}+{line - func.lineno}:{col} {desc}"
            seen[key] = seen.get(key, 0) + 1
            found.append({
                "id": key if seen[key] == 1 else f"{key} #{seen[key]}",
                "module": module, "qualname": qualname, "index": index, "line": line,
            })
    return found


def _unparsed(module: str, mutant: dict | None) -> str:
    """The module's source through ``ast.unparse``, with the mutant applied
    when it is one of this module's."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    if mutant is not None and mutant["module"] == module:
        node, _, apply = list(_sites(_function(tree, mutant["qualname"])))[mutant["index"]]
        apply(node)
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def run_mutant(mutant: dict | None) -> bool:
    """Whether some test of ``TESTS`` fails on a copy of the package whose
    target modules are unparsed, with the mutant applied (None: none)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "src" / "gamblesets"
        shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        for module in {module for module, _ in TARGETS}:
            (copy / f"{module}.py").write_text(_unparsed(module, mutant), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy.parent), PYTHONDONTWRITEBYTECODE="1")
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
            )
        except subprocess.TimeoutExpired:
            return True  # the tests hang on it: a test run would fail
        return result.returncode != 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args(argv)
    found = mutants()
    if args.list:
        for m in found:
            print(f"{m['id']}  (line {m['line']})")
        print(f"{len(found)} mutants")
        return 0
    start = time.perf_counter()
    if run_mutant(None):
        print("the unmutated copy fails its tests; no mutant was run")
        return 2
    with ThreadPoolExecutor(JOBS) as pool:
        killed = list(pool.map(run_mutant, found))
    survivors = [m for m, k in zip(found, killed) if not k]
    bad = 0
    for m in survivors:
        allowed = m["id"] in ALLOWED
        bad += not allowed
        print(f"{'allowed' if allowed else 'SURVIVED'}: {m['id']} (line {m['line']})")
    for stale in sorted(set(ALLOWED) - {m["id"] for m in found}):
        bad += 1
        print(f"STALE allow-list entry: {stale}")
    print(f"{len(found)} mutants, {len(found) - len(survivors)} killed, "
          f"{len(survivors)} survived ({bad} not allowed) in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
