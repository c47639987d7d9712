"""Each script under ``scripts/`` runs once, at a small size, and exits 0, so a
change to the library or to the command line cannot break one silently. The
mutation gate only lists its mutants here; CI runs it."""

import importlib.util
import json
import os
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
        ("differential_sweep.py", ["--instances", "10"]),
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
        # Its drivers run in tier-1 at full size, each from its property's
        # test module; here the loop over them prints its summary.
        assert "disagreements: 0" in result.stdout.splitlines()[-1], result.stdout[-2000:]


def test_mutation_gate_lists_a_fixed_set_of_mutants():
    # The gate itself runs in CI; tier-1 checks what it would run. A change
    # to a target function changes this count, and the gate must then be run
    # again and its allow-list reviewed.
    result = run_script("mutate_checker.py", "--list")
    assert result.returncode == 0, result.stderr[-2000:]
    lines = result.stdout.splitlines()
    assert lines[-1] == "196 mutants"
    ids = [line.split("  (line ")[0] for line in lines[:-1]]
    assert len(set(ids)) == len(ids) == 196
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
