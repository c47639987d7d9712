"""Each script under ``scripts/`` runs once, at a small size, and exits 0, so a
change to the library or to the command line cannot break one silently. The
mutation gate only lists its mutants here; CI runs it."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gamblesets

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = Path(gamblesets.__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.mark.parametrize(
    "name, args",
    [
        ("differential_sweep.py", ["--instances", "40"]),
        ("demo_natural_extension.py", []),
    ],
)
def test_script_exits_zero(name, args):
    result = run_script(name, *args)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    if name == "demo_natural_extension.py":
        # The evidence dump ends the output, in the entry shape of desir/1:
        # a hit names its gamble.
        dump = json.loads(result.stdout[result.stdout.index("\n{") + 1:])
        hits = [e for e in dump["sequences"] if e["kind"] == "hit"]
        assert hits and all("gamble" in e for e in hits), dump
    if name == "differential_sweep.py":
        # A tamper section that silently stops forging would still exit 0.
        forged = re.search(r"\((\d+) forged answers\)", result.stdout)
        assert forged and int(forged.group(1)) > 0, result.stdout[-2000:]
        # So would one that stops forging reductions. Every drop is forged at
        # least four ways: its keeper made the dropped member itself, and a
        # keeper, dropped member and set out of range.
        reduced = re.search(r"(\d+) reduction_forgeries \((\d+) drops\)", result.stdout)
        assert reduced, result.stdout[-2000:]
        forgeries, drops = map(int, reduced.groups())
        assert drops >= 1 and forgeries >= 4 * drops, result.stdout[-2000:]
        # So would a cone section that stops reading the refutations of its
        # weak "no" answers.
        refuted = re.search(r"cone \((\d+) refuted\)", result.stdout)
        assert refuted and int(refuted.group(1)) > 0, result.stdout[-2000:]
        # So would an LP section that silently stops drawing wide programs,
        # or rational ones, which the program stores as integer rows over a
        # scale above 1, or one that stops checking the Farkas rays of
        # infeasible programs with equality rows, or of those with two or
        # more negative right-hand sides, which share phase 1's auxiliary
        # column.
        lp = re.search(r"\((\d+) wide, (\d+) stored over a scale > 1, (\d+) equality rays, "
                       r"(\d+) rays over 2\+ negative rows\)", result.stdout)
        assert lp and min(map(int, lp.groups())) > 0, result.stdout[-2000:]
        # Or derivation and representation sections that check too few to
        # catch a fault: they draw 30 and 60 instances at any size, and most
        # of the 60 assessments are consistent.
        for section, least in (("derivation traces", 25), ("representation comparisons", 40)):
            count = re.search(rf"(\d+) {section}", result.stdout)
            assert count and int(count.group(1)) >= least, result.stdout[-2000:]



def test_mutation_gate_lists_a_fixed_set_of_mutants():
    # The gate itself runs in CI; tier-1 checks what it would run. A change
    # to a target function changes this count, and the gate must then be run
    # again and its allow-list reviewed.
    result = run_script("mutate_checker.py", "--list")
    assert result.returncode == 0, result.stderr[-2000:]
    lines = result.stdout.splitlines()
    assert lines[-1] == "180 mutants"
    ids = [line.split("  (line ")[0] for line in lines[:-1]]
    assert len(set(ids)) == len(ids) == 180
    spec = importlib.util.spec_from_file_location("mutate_checker", SCRIPTS / "mutate_checker.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    assert {f"{module}.{name}" for module, name in gate.TARGETS} == {
        i.split("+")[0] for i in ids
    }
    # Every allowed survivor is a mutant the gate makes, and says why it is
    # equivalent.
    assert set(gate.ALLOWED) <= set(ids)
    assert all(len(reason) > 40 for reason in gate.ALLOWED.values())
