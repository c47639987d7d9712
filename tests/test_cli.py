import contextlib
import functools
import io
import itertools
import json
import operator
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import gamblesets
from differential import (
    ANSWER_KINDS,
    FORMULATIONS,
    REFUTATION_KINDS,
    UNFILED,
    as_leaves,
    as_payload,
    forgeries,
    seeded_assessment,
)
from gamblesets import cli
from gamblesets.check import _ext_answer_from_payload
from gamblesets.cli import _COMMANDS, main
from gamblesets.oracle import default_space, random_gamble_set

README = Path(__file__).resolve().parents[1] / "README.md"

# What selftest --verify says of evidence that does not prove the answer.
MISMATCH = "input error: recorded evidence fails substitution or does not match the answer"

WORKED_INSTANCE = {
    "schema": "desir/1",
    "omega": ["a", "b"],
    "gambles": {
        "g1": ["1", "-1"],
        "g2": ["-1", "2"],
        "zero": [0, 0],
        "sum": ["0", "1"],
        "a1": ["-17/10", "4/5"],
        "c2": ["1", "-11/10"],
    },
    "assessment": [["g1", "zero"], ["g2", "zero"]],
    "query": {
        "kind": "in-extension",
        "set": ["sum"],
        "generators": ["a1", "c2"],
        "gamble": "sum",
    },
}


def _worked(**gambles):
    """The worked instance's gambles, with these added or replaced."""
    return dict(WORKED_INSTANCE["gambles"], **gambles)


def _cone(generators, f):
    """An instance whose query asks about f and the cone of ``generators``."""
    names = {f"g{i}": v for i, v in enumerate(generators)}
    return {
        "schema": "desir/1", "omega": ["a", "b"], "gambles": dict(names, f=f),
        "assessment": [], "query": {"generators": list(names), "gamble": "f"},
    }


# The instances whose honest answers the verify tables forge, by name.
INSTANCES = {
    "worked": WORKED_INSTANCE,
    # (-17/10, 4/5) fails at the second picking, and lies outside
    # desext({(1, -1)}), a coherent cone.
    "negative": dict(WORKED_INSTANCE, query={"set": ["a1"], "generators": ["g1"], "gamble": "a1"}),
    # {(-1, -1)}: a weak "no" whose refutations name the first picking.
    "minus": dict(WORKED_INSTANCE, gambles=_worked(m=["-1", "-1"]), query={"set": ["m"]}),
    # (1, -1, 1) = (1, -1, 0) + (0, 0, 1) lies in the extension of {{(1, -1, 0)}}.
    "three": {
        "schema": "desir/1", "omega": ["a", "b", "c"],
        "gambles": {"g": ["1", "-1", "0"], "f": ["1", "-1", "1"]},
        "assessment": [["g"]], "query": {"set": ["f"]},
    },
    # (0, 1) is weakly positive, so it lies in every cone.
    "cone-pair": _cone([["1", "-1"], ["-1", "2"]], ["0", "1"]),
    # (-1, 1) is outside desext({(1, -1)}) in both modes, and (2, -2) inside.
    "cone-minus": _cone([["1", "-1"]], ["-1", "1"]),
    "cone-yes": _cone([["1", "-1"]], ["2", "-2"]),
    # Over no generators a "no" needs no vector, only a gamble that is not
    # weakly positive.
    "cone-empty": _cone([], ["1", "-1"]),
    "cone-empty-minus": _cone([], ["-1", "1"]),
}


@pytest.fixture
def worked(tmp_path) -> Path:
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(WORKED_INSTANCE), encoding="utf-8")
    return path


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out else None
    return code, payload, out.err


@functools.lru_cache(maxsize=None)
def honest(command: str, instance) -> str:
    """What ``command`` writes for the named instance of ``INSTANCES`` (None:
    it reads no file), made once per source; it must exit 0 in silence."""
    args, out, err = command.split(), io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if instance is not None:
            args.append(os.path.join(tmp, "instance.json"))
            Path(args[-1]).write_text(json.dumps(INSTANCES[instance]), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    assert (code, err.getvalue()) == (0, ""), (command, instance)
    return out.getvalue()


def test_in_ext_answer_with_certificates():
    payload = json.loads(honest("in-ext", "worked"))
    assert payload["answer"] is True and "refutations" not in payload
    kinds = sorted(e["kind"] for e in payload["sequences"])
    assert kinds == ["hit", "hit", "hit", "hit"]
    # An honest negative records no evidence, only its failed picking
    # {(-1, 2), (1, -1)}, refuted for zero and for the query's one member.
    negative = json.loads(honest("in-ext", "negative"))
    assert negative["answer"] is False and negative["sequences"] == []
    assert [r["form"] for r in negative["refutations"]] == ["sum", "empty"]


def test_consistency_answers(worked, capsys, tmp_path):
    code, payload, _ = run_cli(["consistency", worked], capsys)
    assert code == 0 and payload["answer"] is True
    bad = tmp_path / "bad.json"
    inconsistent = dict(WORKED_INSTANCE, gambles={"neg": ["-1", "-1"]}, assessment=[["neg"]])
    bad.write_text(json.dumps(dict(inconsistent, query={})), encoding="utf-8")
    code, payload, _ = run_cli(["consistency", bad], capsys)
    assert code == 0 and payload["answer"] is False
    assert payload["sequences"][0]["kind"] == "skip"


def test_zero_in_desext_pins_the_equal_weights_witness(worked, capsys, tmp_path):
    code, payload, _ = run_cli(["zero-in-desext", worked], capsys)
    assert code == 0
    assert payload["answer"] is True
    # The engine returns the normalised LP's vertex as coprime integers ...
    assert payload["lambdas"] == ["11", "8"]
    assert payload["remainder"] == ["107/10", "0"]
    # ... and the paper's equal weights, a1 + c2 = (-7/10, -3/10), are a
    # certificate too.
    equal = tmp_path / "equal.json"
    equal.write_text(
        json.dumps(dict(payload, lambdas=["1", "1"], remainder=["7/10", "3/10"])),
        encoding="utf-8",
    )
    code, verdict, _ = run_cli(["selftest", "--verify", equal], capsys)
    assert code == 0 and verdict["answer"] is True
    assert verdict["certificates_checked"] == 1


def test_in_desext_and_coherent_d(worked, capsys):
    code, payload, _ = run_cli(["in-desext", worked], capsys)
    assert code == 0 and payload["answer"] is True
    code, payload, _ = run_cli(["coherent-d", worked], capsys)
    assert code == 0 and payload["answer"] is False
    assert payload["lambdas"] == ["11", "8"]


def test_equiv_reports_agreement(worked, capsys):
    code, payload, _ = run_cli(["equiv", worked], capsys)
    assert code == 0
    assert payload["agree"] is True
    assert payload["formulations"] == {"direct": True, "indicator": True, "split": True}


def test_repr_agreement_and_inconsistent_exit(worked, capsys):
    # An inconsistent assessment exits 2: REFUSED, row repr-inconsistent.
    code, payload, _ = run_cli(["repr", worked], capsys)
    assert code == 0 and payload["answer"] is True


def test_strict_flag(worked, capsys, tmp_path):
    # equiv takes no --strict: REFUSED, row equiv-strict.
    code, payload, _ = run_cli(["in-ext", worked, "--strict"], capsys)
    assert code == 0 and payload["strict"] is True and payload["answer"] is True
    code, payload, _ = run_cli(["zero-in-desext", worked, "--strict"], capsys)
    assert code == 0 and payload["answer"] is True

    # Options come before or after the file, as --opt value or --opt=value,
    # and each spelling writes the same bytes.
    def output(args):
        code = main([str(a) for a in args])
        return code, *capsys.readouterr()

    recorded = tmp_path / "answer.json"
    recorded.write_text(output(["in-ext", worked])[1], encoding="utf-8")
    for one, other in (
        (["in-ext", "--strict", worked], ["in-ext", worked, "--strict"]),
        (["in-ext", worked, "--cap=5"], ["in-ext", worked, "--cap", "5"]),
        (["in-ext", "--", worked], ["in-ext", worked]),
        (["selftest", f"--verify={recorded}"], ["selftest", "--verify", recorded]),
    ):
        assert output(one) == output(other), one
        assert output(one)[0] == 0, one
    # -h and --help write the usage to stdout, of every command or of one.
    for args, first in (
        (["--help"], "usage: gamblesets consistency "),
        (["in-ext", "-h"], "usage: gamblesets in-ext [--strict] [--cap N] FILE\n"),
    ):
        code, out, err = output(args)
        assert (code, err) == (0, "") and out.startswith(first), args


@pytest.mark.parametrize("check, oracle", [
    ("lp_vs_fm", "fm_feasible"), ("cones_vs_fm", "fm_zero_in_desext"),
    ("brute_vs_engine", "brute_ext_contains"),
])
def test_selftest_counts_what_a_lying_oracle_denies(check, oracle, capsys, monkeypatch):
    # An oracle of cli that lies makes its check, and no other, disagree on
    # every instance; the self-test then answers false and exits 1.
    monkeypatch.setattr(cli, oracle, lambda *args, _honest=getattr(cli, oracle): not _honest(*args))
    code, payload, err = run_cli(["selftest", "--trials", "6"], capsys)
    assert (code, err, payload["answer"]) == (1, "", False)
    assert {name: c["disagreements"] for name, c in payload["checks"].items()} == {
        name: c["instances"] if name == check else 0 for name, c in payload["checks"].items()
    }


# The file a refusal row writes, in the directory its command runs in.
FILE = "input.json"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def _write(content) -> None:
    """Write FILE: raw bytes, or a JSON value."""
    if isinstance(content, bytes):
        Path(FILE).write_bytes(content)
    else:
        Path(FILE).write_text(json.dumps(content), encoding="utf-8")


def refused(argv, capsys) -> tuple[int, str]:
    """The exit code and stderr of ``main(argv)``, which must hold what every
    refusal holds: nothing on stdout, one stderr line of under 1,024 bytes,
    and an answer within half a second."""
    start = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("\n") and err.count("\n") == 1, err[:200]
    assert len(err.encode()) < 1024 and seconds < 0.5, (len(err.encode()), seconds)
    return code, err


DROP = object()  # a change that deletes the field


def forged(source, change) -> dict:
    """The payload that ``source``, (command, instance), writes, changed: each
    path of ``change`` (a key, or a tuple of keys and indices) deleted for
    DROP, passed through a function, or set to the value."""
    payload = json.loads(honest(*source))
    for path, value in change.items():
        *parents, last = path if isinstance(path, tuple) else (path,)
        parent = functools.reduce(operator.getitem, parents, payload)
        if value is DROP:
            del parent[last]
        else:
            parent[last] = value(parent[last]) if callable(value) else value
    return payload


CHOICES = (
    "'consistency', 'in-ext', 'in-desext', 'zero-in-desext', 'coherent-d', 'equiv', 'repr', "
    "'gen', 'selftest'"
)
GRAMMAR = 'is not a rational of the form "n", "-n" or "n/d"'
NOT_STRINGS = "gamble names must be strings, got"
F_QUERY = {"set": ["f"], "generators": ["g1"], "gamble": "f"}


def _forty_atoms(digits: int) -> dict:
    """An instance of 40 atoms and four gambles, each entry +-1/p for a
    distinct odd p of ``digits`` digits."""
    rng = random.Random(6)
    gambles = {}
    for k in range(4):
        ps = set()
        while len(ps) < 40:
            ps.add(rng.randrange(10**(digits - 1), 10**digits) | 1)
        gambles[f"g{k}"] = [f"{rng.choice(('', '-'))}1/{p}" for p in sorted(ps)]
    return {
        "schema": "desir/1", "omega": [f"w{i}" for i in range(40)], "gambles": gambles,
        "assessment": [["g0", "g1"], ["g2"]],
        "query": {"set": ["g3"], "generators": ["g0", "g1", "g2"], "gamble": "g3"},
    }


# Answers too long to write, each refused as an input error: the gambles,
# the line, and the commands that refuse them, weak and strict. First: no
# entry is longer than 2,504 characters, but the certificate would have
# lambda = 1/10^5000 and a remainder with a 7,501-digit denominator, which
# ``rational`` could not read back. The loader refuses g1 before any work:
# over its denominator 10^2500 its second entry is -10^5000. Second: the
# gambles pass the loader, f being (-a, 0) and g1 (-1/q, -1) with a = 7^4700
# (3,972 digits) and q = 3^4600 (2,195 digits), so their common denominator
# is q, but the certificate of f over g1 has lambda = a q (weak) or a q + 1
# (strict), about 6,170 digits, so the write refuses it.
BIG = "1" + "0" * 2500
TOO_LONG_ANSWERS = {
    "denominator": (
        {"g1": [f"1/{BIG}", f"-{BIG}"], "f": [f"1/{BIG}", f"-1/{BIG}"]},
        "gamble 'g1': over their common denominator, its entries need an integer",
        ("in-desext", "in-ext"),
    ),
    "answer-entry": (
        {"g1": [f"-1/{3**4600}", "-1"], "f": [f"-{7**4700}", "0"]},
        "an answer entry has an integer",
        ("in-desext",),
    ),
}

# Forty atoms, refused before any test. With 200-digit p every entry is
# short, but each gamble's entries over their common denominator, the
# product of its 40 p, have about 7,800 digits (solving and then failing to
# write took seconds). With 100-digit p each gamble passes on its own (about
# 4,000 digits), but the least common denominator of the four, which bounds
# the scale of every cone LP over them, has about 16,000 digits.
FORTY_ATOMS = {
    "gamble": (
        _forty_atoms(200),
        "gamble 'g0': over their common denominator, its entries need an integer of over 4300 "
        "digits",
        ("in-desext", "in-ext --strict"),
    ),
    "common": (
        _forty_atoms(100),
        "the gambles' least common denominator has over 4300 digits",
        ("in-desext", "in-ext --strict", "consistency"),
    ),
}

# What a command refuses before it decides anything, or when what it
# decides cannot be written: the argv, the file it finds as FILE (a JSON
# value, raw bytes, or None: no file), the exit code and the stderr line.
REFUSED = [
    # The argv.
    pytest.param(["selftest", "--trials", "x"], None, 1,
                 "input error: argument --trials: invalid int value: 'x'", id="trials"),
    pytest.param(["gen", "--seed", "x"], None, 1,
                 "input error: argument --seed: invalid int value: 'x'", id="seed"),
    pytest.param([], None, 1, "input error: the following arguments are required: command",
                 id="no-command"),
    pytest.param(["in-ext"], None, 1, "input error: the following arguments are required: file",
                 id="no-file"),
    pytest.param(["in-ext", "a.json", "b.json"], None, 1,
                 "input error: unrecognized arguments: b.json", id="second-file"),
    pytest.param(["in-ext", "a.json", "--cap"], None, 1,
                 "input error: argument --cap: expected one argument", id="no-value"),
    pytest.param(["bogus-command"], None, 1,
                 f"input error: argument command: invalid choice: 'bogus-command' (choose from "
                 f"{CHOICES})", id="unknown-command"),
    # render left the commands, and writes no figure.
    pytest.param(["render", FILE, "--out", "fig.svg"], WORKED_INSTANCE, 1,
                 f"input error: argument command: invalid choice: 'render' (choose from "
                 f"{CHOICES})", id="render"),
    pytest.param(["in-ext", FILE, "--cap", "2"], WORKED_INSTANCE, 1,
                 "cap exceeded: 4 pickings exceed the cap of 2", id="cap-exceeded"),
    *[
        pytest.param([command, FILE, "--cap", cap], WORKED_INSTANCE, 1,
                     f"input error: argument --cap: must be at least 1, got {cap}",
                     id=f"cap-{cap}-{command}")
        for command, cap in (("in-ext", "0"), ("in-ext", "-1"), ("equiv", "0"))
    ],
    *[
        pytest.param(["selftest", "--trials", trials], None, 1,
                     f"input error: argument --trials: must be at least 1, got {trials}",
                     id=f"trials-{trials}")
        for trials in ("0", "-1")
    ],
    # The cone commands enumerate no pickings, so they take no --cap, and
    # equiv has no --strict.
    *[
        pytest.param([command, FILE, "--cap", "5"], WORKED_INSTANCE, 1,
                     "input error: unrecognized arguments: --cap 5", id=f"cap-{command}")
        for command in ("in-desext", "zero-in-desext", "coherent-d")
    ],
    pytest.param(["equiv", FILE, "--strict"], WORKED_INSTANCE, 1,
                 "input error: unrecognized arguments: --strict", id="equiv-strict"),
    # An argv value of over 40 characters is quoted by its first 40 and its
    # length.
    pytest.param(["in-ext", "g.json", "--cap", "1" * 5000], None, 1,
                 f"input error: argument --cap: invalid int value: {'1' * 40!r}... (5000 "
                 f"characters)", id="cap-5000-digits"),
    pytest.param(["x" * 5000], None, 1,
                 f"input error: argument command: invalid choice: {'x' * 40!r}... (5000 "
                 f"characters) (choose from {CHOICES})", id="command-5000-characters"),
    pytest.param(["in-ext", "g.json", "--strict=" + "y" * 5000], None, 1,
                 f"input error: argument --strict: ignored explicit argument {'y' * 40!r}... "
                 f"(5000 characters)", id="strict-explicit-5000-characters"),
    pytest.param(["in-ext", "g.json", "w" * 100_000], None, 1,
                 f"input error: unrecognized arguments: {'w' * 40!r}... (100000 characters)",
                 id="leftover-100000-characters"),
    pytest.param(["in-ext", "g.json", "--cap", "-" + "1" * 4000], None, 1,
                 f"input error: argument --cap: must be at least 1, got {'-' + '1' * 39!r}... "
                 f"(4001 characters)", id="cap-minus-4000-digits"),
    # "--" before the command is an unknown option; after it, every word is
    # a value, the file or left over.
    pytest.param(["--", "in-ext", FILE], None, 1, "input error: unrecognized arguments: --",
                 id="dashes-before-command"),
    pytest.param(["in-ext", FILE, "--", "--strict"], None, 1,
                 "input error: unrecognized arguments: --strict", id="dashes-then-option"),
    pytest.param(["in-ext", "--", "-h"], None, 1,
                 "input error: cannot read -h: [Errno 2] No such file or directory: '-h'",
                 id="dashes-then-help"),
    # A file that cannot be read or decoded, as an instance or as a recorded
    # answer, is named.
    pytest.param(["in-ext", FILE], None, 1,
                 f"input error: cannot read {FILE}: [Errno 2] No such file or directory: "
                 f"'{FILE}'", id="missing-file"),
    pytest.param(["in-ext", FILE], b"{not json", 1,
                 f"input error: {FILE} is not valid JSON: Expecting property name enclosed in "
                 f"double quotes: line 1 column 2 (char 1)", id="not-json"),
    *[
        pytest.param([*command.split(), FILE], data, 1, f"input error: {FILE} {message}",
                     id=f"{name}-{kind}")
        for name, data, message in (
            ("deep", b"[" * 200_000, "nests too deeply to decode"),
            ("utf", b'{"schema": "\xff"}', "is not valid UTF-8: 'utf-8' codec can't decode byte "
                                            "0xff in position 12: invalid start byte"),
            ("long-literal",
             json.dumps(WORKED_INSTANCE).replace('"1", "-1"', f"{'9' * 5000}, 1").encode(),
             "has an integer literal of over 4300 digits"),
        )
        for command, kind in (("in-ext", "instance"), ("selftest --verify", "answer"))
    ],
    # The shape of an instance.
    pytest.param(["in-ext", FILE], [], 1, "input error: instance must be a JSON object",
                 id="instance"),
    pytest.param(["in-ext", FILE], {"schema": "desir/0", "omega": ["a"]}, 1,
                 'input error: instance must declare "schema": "desir/1"', id="schema"),
    pytest.param(["in-ext", FILE], dict(WORKED_INSTANCE, omega="ab"), 1,
                 'input error: "omega" must be a nonempty list of atom labels', id="omega"),
    # Atom labels are checked to be strings before they are hashed.
    *[
        pytest.param(["in-ext", FILE], dict(WORKED_INSTANCE, omega=omega), 1,
                     "input error: atom labels must be nonempty strings", id=name)
        for name, omega in (("atom-list", [["a"], "b"]), ("atom-int", ["a", 5]))
    ],
    pytest.param(["in-ext", FILE], dict(WORKED_INSTANCE, gambles=[]), 1,
                 'input error: "gambles" must map names to vectors', id="gambles"),
    pytest.param(["in-ext", FILE], dict(WORKED_INSTANCE, assessment={}), 1,
                 'input error: "assessment" must be a list of name lists', id="assessment"),
    pytest.param(["in-ext", FILE], dict(WORKED_INSTANCE, assessment=["g1"]), 1,
                 'input error: "assessment" must be a list of name lists', id="assessment-row"),
    pytest.param(["in-ext", FILE], dict(WORKED_INSTANCE, query=[]), 1,
                 'input error: "query" must be an object', id="query"),
    pytest.param(["in-ext", FILE],
                 dict(WORKED_INSTANCE, gambles={"g": ["1", "0"]}, assessment=[["g", "ghost"]],
                      query={"set": ["g"]}), 1,
                 "input error: unknown gamble name 'ghost'", id="unknown-name"),
    # A gamble name that is not a string is reported with the field it is in.
    pytest.param(["in-desext", FILE],
                 dict(WORKED_INSTANCE, query=dict(WORKED_INSTANCE["query"], generators=[["x"]])),
                 1, f"input error: query.generators: {NOT_STRINGS} ['x']",
                 id="name-in-generators"),
    pytest.param(["in-ext", FILE], dict(WORKED_INSTANCE, query={"set": [{"n": 1}]}), 1,
                 f"input error: query.set: {NOT_STRINGS} {{'n': 1}}", id="name-in-set"),
    pytest.param(["in-desext", FILE],
                 dict(WORKED_INSTANCE, query=dict(WORKED_INSTANCE["query"], gamble=["x"])), 1,
                 f"input error: query.gamble: {NOT_STRINGS} ['x']", id="name-in-gamble"),
    pytest.param(["in-ext", FILE], dict(WORKED_INSTANCE, assessment=[[{"n": 1}]]), 1,
                 f"input error: assessment: {NOT_STRINGS} {{'n': 1}}", id="name-in-assessment"),
    # The query fields a command needs.
    *[
        pytest.param([command, FILE], dict(WORKED_INSTANCE, query=query), 1,
                     f"input error: {line}", id=name)
        for name, command, query, line in (
            ("query-gamble", "in-desext", {"generators": ["g1"]},
             "query needs a 'gamble' name for this command"),
            ("no-set-in-ext", "in-ext", {"kind": "in-extension"},
             "query needs a 'set' list for this command"),
            ("no-set-zero-in-desext", "zero-in-desext", {"kind": "in-extension"},
             "query needs a 'generators' list for this command"),
            ("no-set-in-desext", "in-desext", {"kind": "in-extension"},
             "query needs a 'generators' list for this command"),
        )
    ],
    pytest.param(["repr", FILE], dict(WORKED_INSTANCE, assessment=[]), 1,
                 "input error: repr needs a nonempty assessment", id="repr-assessment"),
    pytest.param(["repr", FILE],
                 dict(WORKED_INSTANCE, gambles={"neg": ["-1", "-1"], "g": ["1", "0"]},
                      assessment=[["neg"]], query={"set": ["g"]}), 2,
                 "inconsistent assessment: repr needs a consistent assessment",
                 id="repr-inconsistent"),
    # A gamble is read like a payload's vector: a list, one entry per atom.
    pytest.param(["in-ext", FILE], dict(WORKED_INSTANCE, gambles=_worked(g1="1, -1")), 1,
                 "input error: gamble 'g1' must be a list", id="gamble-not-list"),
    pytest.param(["in-ext", FILE], dict(WORKED_INSTANCE, gambles=_worked(g1=["1", "-1", "0"])),
                 1, "input error: gamble 'g1': gamble has 3 entries for a 2-atom space",
                 id="gamble-entries"),
    # A rejected entry is quoted by its first 40 characters and its length,
    # so a megabyte entry gets a short diagnostic. An integer past the
    # interpreter's 4300-digit limit for reading decimal text is named with
    # that limit.
    *[
        pytest.param(["in-ext", FILE], dict(WORKED_INSTANCE, gambles=_worked(sum=[entry, "1"])),
                     1, f"input error: gamble 'sum': {line}", id=name)
        for name, entry, line in (
            ("megabyte-entry", "x" * 1000000,
             f"{'x' * 40!r}... (1000000 characters) {GRAMMAR}"),
            ("zero-denominator", "1" * 50 + "/0",
             f"zero denominator in {'1' * 40!r}... (52 characters)"),
            ("entry-over-4300-digits", "1" * 4301,
             f"{'1' * 40!r}... (4301 characters) has an integer of over 4300 digits"),
        )
    ],
    # Fraction would read these, the first by building a ten-million-digit
    # integer; the documented grammar ("n", "-n", "n/d") turns them away
    # before any arithmetic, naming the gamble.
    *[
        pytest.param([command, FILE],
                     dict(WORKED_INSTANCE, gambles=_worked(f=[text, "1"]), query=F_QUERY), 1,
                     f"input error: gamble 'f': {text!r} {GRAMMAR}", id=f"{text}-{command}")
        for text in ("1e10000000", "1e100000", "1.5")
        for command in ("in-ext", "in-desext")
    ],
    *[
        pytest.param([command, *strict, FILE],
                     dict(WORKED_INSTANCE, gambles=gambles, assessment=[["g1"]], query=F_QUERY),
                     1, f"input error: {line} of over 4300 digits",
                     id=f"{name}-{command}{'-strict' if strict else ''}")
        for name, (gambles, line, commands) in TOO_LONG_ANSWERS.items()
        for command in commands
        for strict in ((), ("--strict",))
    ],
    *[
        pytest.param([*command.split(), FILE], instance, 1, f"input error: {line}",
                     id=f"forty-atoms-{name}-{command.replace(' --', '-')}")
        for name, (instance, line, commands) in FORTY_ATOMS.items()
        for command in commands
    ],
    # Files that selftest --verify refuses before it reads any evidence.
    pytest.param(["selftest", "--verify", FILE], {"schema": "desir/1"}, 1,
                 "input error: not a recorded answer: missing 'command'", id="verify-command"),
    pytest.param(["selftest", "--verify", FILE],
                 {"schema": "desir/1", "command": "in-ext", "omega": ["a"], "witness_list": [],
                  "query_set": [], "sequences": [5]}, 1,
                 "input error: sequences[0]: not a JSON object", id="verify-sequence"),
    pytest.param(["selftest", "--verify", FILE],
                 {"schema": "desir/1", "command": "render", "answer": True, "path": "fig.svg"}, 1,
                 "input error: cannot verify output of command 'render'", id="verify-render"),
]


@pytest.mark.parametrize("argv, content, code, line", REFUSED)
def test_malformed_input_is_refused_with_one_line(argv, content, code, line, capsys, workdir):
    if content is not None:
        _write(content)
    assert refused(argv, capsys) == (code, line + "\n")
    assert os.listdir() == ([] if content is None else [FILE])


# The single-cone answers: the worked pair's cone holds (0, 1) and 0, so it
# is not coherent; desext({(1, -1)}) holds neither (-17/10, 4/5) nor 0. Each
# answer, flipped, is refused for the answer it claims and whether a
# certificate is recorded.
SINGLE_FLIPS = {
    ("zero-in-desext", "worked"): (False, "contradicts its certificate"),
    ("in-desext", "worked"): (False, "contradicts its certificate"),
    ("coherent-d", "worked"): (True, "contradicts its certificate"),
    ("zero-in-desext", "negative"): (True, "needs a certificate"),
    ("in-desext", "negative"): (True, "needs a certificate"),
    ("coherent-d", "negative"): (False, "needs a certificate"),
}

# Every verdict that repr and equiv report must be the extension verdict the
# evidence proves, on a "yes" (worked: {(0, 1)}) and on a "no" (negative:
# {(-17/10, 4/5)}, refuted at its failed picking): by command, the verdicts
# it reports, the one that says whether they agree, and the field they must
# match. Each verdict flipped, alone or with the agreement flipped to match,
# is refused with its field named; so is a payload that claims the strict
# mode neither command has.
VERDICTS = {
    "repr": ((("family_member",),), "answer", '"ext_member"'),
    "equiv": (
        tuple(("formulations", key) for key in ("direct", "split", "indicator")),
        "agree",
        '"answer"',
    ),
}

# Two refutations. e_a, of the "empty" form, is the one the weak "no" about
# (-1, 1) over {(1, -1)} records. Neither refutes a "yes" of CONE_YES: (1, 1)
# and e_a meet a1 below 0, and the weakly positive (0, 1) lies in every cone.
E_A = {"form": "empty", "y": ["1", "0"]}
ONES = {"form": "sum", "y": ["1", "1"]}
# A "yes" of each single-cone command, turned into a "no" with no certificate.
FORGED_NO = {"answer": operator.not_, "lambdas": None, "remainder": None}
CONE_YES = {"in-desext": "cone-pair", "zero-in-desext": "worked", "coherent-d": "worked"}


def _hit(field):
    return ("sequences", 0, field)


# Forged answers that selftest --verify refuses: the command and instance of
# the honest answer, the change made to it (see ``forged``), and the stderr
# line.
VERIFY_REFUSED = [
    # A tampered coefficient.
    pytest.param(("in-ext", "worked"), {("sequences", 0, "certificate", "lambdas", 0): "5"},
                 MISMATCH, id="tampered-coefficient"),
    # Faults of a file that no forgery of an answer makes (the others are
    # made by ``tests/differential.py``; see the file test below): a member
    # turned into a non-member with no failed picking at all, the
    # refutations of the zero gamble and of the member swapped, every
    # picking recorded but not in canonical order, hits whose certificates
    # hold for a gamble outside the query set, and honest evidence whose
    # kinds are neither "skip" nor "hit".
    pytest.param(("in-ext", "worked"), {"answer": False, "sequences": []}, MISMATCH,
                 id="no-failed-picking"),
    pytest.param(("in-ext", "negative"), {"refutations": lambda refs: refs[::-1]}, MISMATCH,
                 id="refutations-swapped"),
    pytest.param(("in-ext", "worked"), {"sequences": lambda seqs: seqs[::-1]}, MISMATCH,
                 id="sequences-reordered"),
    pytest.param(("in-ext", "worked"), {"query_set": [["1", "1"]]}, MISMATCH,
                 id="outside-query-set"),
    pytest.param(("in-ext", "worked"),
                 {"sequences": lambda seqs: [dict(e, kind="banana") for e in seqs]},
                 "input error: sequences[0]: unknown evidence kind 'banana'",
                 id="kind-banana"),
    # A consistent assessment's "yes" relabelled as its inconsistency: a
    # consistency answer is about the empty set, whatever it claims.
    pytest.param(("in-ext", "worked"), {"command": "consistency", "answer": False},
                 'input error: payload: "query_set" of a consistency answer must be empty',
                 id="consistency-relabelled"),
    # A missing field is reported with the entry it is missing from.
    pytest.param(("in-ext", "worked"), {_hit("gamble"): DROP},
                 'input error: sequences[0]: hit without "gamble"', id="hit-gamble"),
    *[
        pytest.param(("in-ext", "worked"), {_hit(field): DROP},
                     f'input error: sequences[0]: missing "{field}"', id=f"hit-{field}")
        for field in ("certificate", "sequence", "kind")
    ],
    *[
        pytest.param(("in-ext", "negative"), {field: DROP},
                     f'input error: payload: missing "{field}"', id=f"missing-{field}")
        for field in ("witness_list", "sequences", "failed_sequence")
    ],
    # ... and so is a missing or malformed certificate field.
    *[
        pytest.param(("in-ext", "worked"), {("sequences", 0, "certificate", field): DROP},
                     f'input error: sequences[0]: certificate missing "{field}"',
                     id=f"certificate-{field}")
        for field in ("lambdas", "remainder")
    ],
    pytest.param(("in-ext", "worked"), {_hit("certificate"): lambda c: list(c.values())},
                 "input error: sequences[0]: certificate is not an object",
                 id="certificate-not-object"),
    # A field of the wrong JSON type is reported with its place.
    *[
        pytest.param(("in-ext", "worked"), {field: value},
                     f"input error: payload: {place} must be a list", id=f"{field}-not-list")
        for field, value, place in (
            ("sequences", 5, '"sequences"'),
            ("witness_list", 7, '"witness_list"'),
            ("omega", 5, '"omega"'),
            ("query_set", [5], '"query_set"[0]'),
            ("failed_sequence", 5, '"failed_sequence"'),
        )
    ],
    pytest.param(("in-ext", "negative"), {"refutations": 5},
                 'input error: payload: "refutations" must be a list', id="refutations-not-list"),
    *[
        pytest.param(("in-ext", "negative"), {("refutations", 0, field): DROP},
                     f'input error: refutations[0]: missing "{field}"', id=f"refutation-{field}")
        for field in ("form", "y")
    ],
    pytest.param(("in-ext", "negative"), {("refutations", 0, "y"): 5},
                 'input error: refutations[0]: "y" must be a list', id="refutation-y-not-list"),
    pytest.param(("in-ext", "worked"), {"command": ["in-ext"]},
                 'input error: payload: "command" must be a string', id="command-not-string"),
    pytest.param(("in-ext", "worked"), {("sequences", 0, "certificate", "lambdas"): 5},
                 'input error: sequences[0]: certificate "lambdas" must be a list',
                 id="lambdas-not-list"),
    # A vector with the wrong number of entries is reported with its place.
    pytest.param(("in-ext", "worked"), {"query_set": [["1", "2", "3"]]},
                 'input error: payload: "query_set"[0]: gamble has 3 entries for a 2-atom space',
                 id="query-set-entries"),
    pytest.param(("in-ext", "worked"), {_hit("gamble"): ["1", "2", "3"]},
                 'input error: sequences[0]: "gamble": gamble has 3 entries for a 2-atom space',
                 id="hit-gamble-entries"),
    # A vector is read once per payload only when its entries are strings:
    # (1, -1) written as ints and later with true for 1 is read again, since
    # (True, -1) == (1, -1) in Python.
    pytest.param(("in-ext", "worked"),
                 {("sequences", 1, "sequence", 1): [1, -1],
                  ("sequences", 3, "sequence", 1): [True, -1]},
                 'input error: sequences[3]: "sequence"[1]: bool is not a rational',
                 id="sequence-int-then-true"),
    pytest.param(("in-desext", "worked"), {("generators", 1): 7},
                 'input error: payload: "generators"[1] must be a list', id="generator-not-list"),
    *[
        pytest.param(("in-desext", "worked"), {field: DROP},
                     f'input error: payload: missing "{field}"', id=f"single-missing-{field}")
        for field in ("omega", "generators", "gamble", "lambdas", "remainder")
    ],
    # Entries are read by the grammar, and an integer past the digit limit
    # is named with it, in a payload field as in an instance.
    *[
        pytest.param(("in-ext", "worked"), {path: text},
                     f"input error: {place}: {text!r} {GRAMMAR}", id=f"{text}-{name}")
        for text in ("1e10000000", "1e100000", "1.5")
        for name, path, place in (
            ("query-set", ("query_set", 0, 0), 'payload: "query_set"[0]'),
            ("lambdas", ("sequences", 0, "certificate", "lambdas", 0),
             'sequences[0]: certificate "lambdas"'),
        )
    ],
    pytest.param(("in-ext", "worked"), {("sequences", 0, "certificate", "lambdas", 0): "1" * 4301},
                 f'input error: sequences[0]: certificate "lambdas": {"1" * 40!r}... (4301 '
                 f"characters) has an integer of over 4300 digits", id="lambdas-over-4300-digits"),
    # The flags a verdict depends on are JSON booleans. Read as true, the
    # string "no" would turn a forged weak "no" into a strict one, which
    # needs no refutations: here {(-1, -1)}, with its refutations removed,
    # naming the first picking.
    pytest.param(("in-ext", "minus"),
                 {"refutations": DROP, "failed_sequence": [["1", "-1"], ["-1", "2"]],
                  "strict": "no"},
                 'input error: payload: "strict" must be a boolean', id="strict-string"),
    pytest.param(("in-desext", "worked"), {"strict": 0},
                 'input error: payload: "strict" must be a boolean', id="single-strict-int"),
    *[
        pytest.param((command, "worked"), {field: change}, f'input error: payload: {line}',
                     id=f"{command}-{field}-{name}")
        for command, field in (("in-ext", "answer"), ("consistency", "answer"),
                               ("repr", "ext_member"))
        for name, change, line in (("string", "true", f'"{field}" must be a boolean'),
                                   ("missing", DROP, f'missing "{field}"'))
    ],
    # The verdicts that repr and equiv report next to the extension verdict
    # are read as JSON booleans too, and are required.
    pytest.param(("repr", "worked"), {"family_member": DROP},
                 'input error: payload: missing "family_member"', id="repr-family-missing"),
    pytest.param(("equiv", "worked"), {"agree": DROP},
                 'input error: payload: missing "agree"', id="equiv-agree-missing"),
    pytest.param(("equiv", "worked"), {("formulations", "split"): "yes"},
                 'input error: payload: "formulations": "split" must be a boolean',
                 id="equiv-split-string"),
    *[
        pytest.param((command, instance), change,
                     f"input error: payload: {': '.join(map(json.dumps, path))}: "
                     f"{json.dumps(not member)} contradicts {proved}",
                     id=f"{command}-{instance}-{path[-1]}{also}")
        for command, (verdicts, agreement, proved) in VERDICTS.items()
        for instance, member in (("worked", True), ("negative", False))
        for path in verdicts
        for also, change in (("", {path: not member}),
                             (f"-{agreement}", {path: not member, agreement: False}))
    ],
    *[
        pytest.param((command, instance), change, f"input error: payload: {line}",
                     id=f"{command}-{instance}-{name}")
        for command, (_, agreement, _) in VERDICTS.items()
        for instance in ("worked", "negative")
        for name, change, line in (
            (agreement, {agreement: False}, f'"{agreement}": false contradicts the evidence'),
            ("strict", {"strict": True}, f'"strict": true, but {command} has no --strict'),
        )
    ],
    # (1, -1, 1) lies in the extension of {{(1, -1, 0)}}. A forged "no"
    # refutes it with y = (0, 0, -1), which has y . g = 0 and y . f = -1 < 0,
    # the sums of the "empty" form; only the sign of y rules it out. Zero's
    # refutation (1, 0, 0) holds.
    pytest.param(("in-ext", "three"),
                 {"answer": False, "sequences": [], "failed_sequence": [["1", "-1", "0"]],
                  "refutations": [{"form": "sum", "y": ["1", "0", "0"]},
                                  {"form": "empty", "y": ["0", "0", "-1"]}]},
                 MISMATCH, id="refutation-negative-entry"),
    *[
        pytest.param((command + mode, instance), {"answer": flipped},
                     f'input error: payload: "answer": {json.dumps(flipped)} {reason}',
                     id=f"flipped-{command}{mode.replace(' --', '-')}-{instance}")
        for (command, instance), (flipped, reason) in SINGLE_FLIPS.items()
        for mode in ("", " --strict")
    ],
    *[
        pytest.param((command, instance), {**FORGED_NO, **extra}, MISMATCH,
                     id=f"forged-no-{command}-{name}")
        for command, instance in CONE_YES.items()
        for name, extra in (("none", {}), ("sum", {"refutation": ONES}),
                            ("empty", {"refutation": E_A}))
    ],
    # A strict "no" is not refuted yet, but the strictly positive (1, 1) is
    # in every strict cone.
    pytest.param(("in-desext", "cone-pair"),
                 {**FORGED_NO, "strict": True, "gamble": ["1", "1"]}, MISMATCH,
                 id="forged-strict-no-positive"),
    pytest.param(("in-desext", "cone-empty"), {"gamble": ["1", "0"]}, MISMATCH,
                 id="no-generators-positive"),
    # A refutation is recorded only by a weak "no" over generators: one is
    # refused beside the strict "no", even one that refutes, and so is a
    # malformed one; so is any refutation over no generators, and beside a
    # certificate.
    *[
        pytest.param(source, {"refutation": refutation}, MISMATCH, id=f"{name}-{kind}")
        for name, source in (("strict-no", ("in-desext --strict", "cone-minus")),
                             ("no-generators", ("in-desext", "cone-empty-minus")),
                             ("certified", ("in-desext", "cone-yes")))
        for kind, refutation in (("refuting", E_A), ("sum", ONES))
    ],
    pytest.param(("in-desext --strict", "cone-minus"),
                 {"refutation": {"form": "bogus", "y": ["x"]}},
                 f'input error: refutation: "y": \'x\' {GRAMMAR}', id="refutation-malformed"),
    # The schema is checked after the command, whose diagnostics stay.
    *[
        pytest.param(("in-ext", "worked"), {"schema": schema, **command}, line,
                     id=f"schema-{name}{'-gen' if command else ''}")
        for name, schema in (("9", "desir/9"), ("missing", DROP))
        for command, line in (({}, 'input error: payload must declare "schema": "desir/1"'),
                              ({"command": "gen"},
                               "input error: cannot verify output of command 'gen'"))
    ],
    # A self-test output records nothing to substitute, so a failed self-test
    # must not come back verified. (Its source exits 0: every check agreed.)
    pytest.param(("selftest --seed 3 --trials 15", None), {"answer": False},
                 "input error: cannot verify output of command 'selftest'",
                 id="failed-selftest"),
]


@pytest.mark.parametrize("source, change, line", VERIFY_REFUSED)
def test_forged_answers_are_refused_with_one_line(source, change, line, capsys, workdir):
    _write(forged(source, change))
    assert refused(["selftest", "--verify", FILE], capsys) == (1, line + "\n")


# Answers that selftest --verify accepts: the command and instance of the
# honest answer, a change made to it, and the certificates and refutations
# it checks. A weak single-cone answer without a certificate is refuted
# instead; a strict one is not yet.
VERIFIED = [
    *[
        pytest.param((command, instance), {}, certificates, refutations,
                     id=f"{command.replace(' --', '-')}-{instance}")
        for command, instance, certificates, refutations in (
            ("in-ext", "worked", 4, 0),
            ("in-ext", "negative", 0, 2),
            ("in-ext", "minus", 0, 2),
            ("in-ext", "three", 1, 0),
            # The other extension payloads, of either polarity.
            ("consistency", "worked", 0, 1),
            ("consistency", "negative", 0, 1),
            *[(command, instance, *counts)
              for command in ("equiv", "repr")
              for instance, counts in (("worked", (4, 0)), ("negative", (0, 2)))],
            *[(command + mode, "worked", 1, 0)
              for command in ("zero-in-desext", "in-desext", "coherent-d")
              for mode in ("", " --strict")],
            *[(command + mode, "negative", 0, int(not mode))
              for command in ("zero-in-desext", "in-desext", "coherent-d")
              for mode in ("", " --strict")],
            ("in-desext", "cone-pair", 1, 0),
            ("in-desext", "cone-minus", 0, 1),
            ("in-desext --strict", "cone-minus", 0, 0),
            ("in-desext", "cone-yes", 1, 0),
            ("in-desext", "cone-empty", 0, 0),
            ("in-desext", "cone-empty-minus", 0, 0),
        )
    ],
    # e_a refutes (-1, 1) over {(1, -1)}.
    pytest.param(("in-desext", "cone-minus"), {"refutation": E_A}, 0, 1,
                 id="in-desext-cone-minus-refuting"),
    # A strict "no" is not refuted yet, and (0, 1) is not strictly positive,
    # so a forged strict "no" about it passes.
    pytest.param(("in-desext", "cone-pair"), {**FORGED_NO, "strict": True}, 0, 0,
                 id="forged-strict-no-weakly-positive"),
]


@pytest.mark.parametrize("source, change, certificates, refutations", VERIFIED)
def test_honest_answers_verify(source, change, certificates, refutations, capsys, workdir):
    _write(forged(source, change))
    code, verdict, err = run_cli(["selftest", "--verify", FILE], capsys)
    assert (code, err) == (0, "")
    assert verdict == {
        "schema": "desir/1", "command": "selftest", "answer": True,
        "verified_command": source[0].split()[0],
        "certificates_checked": certificates, "refutations_checked": refutations,
    }


def test_cap_bounds_the_full_product(capsys, tmp_path):
    # {(1, 1), g1} keeps only (1, 1) for the walk, which then has 2 pickings,
    # but the cap bounds all 4.
    gambles = dict(WORKED_INSTANCE["gambles"], pos=["1", "1"])
    instance = tmp_path / "reduced.json"
    instance.write_text(json.dumps(dict(
        WORKED_INSTANCE, gambles=gambles, assessment=[["pos", "g1"], ["g2", "zero"]]
    )), encoding="utf-8")
    for command in ("in-ext", "consistency"):
        code, out, err = run_cli([command, instance, "--cap", "3"], capsys)
        assert (code, out, err) == (1, None, "cap exceeded: 4 pickings exceed the cap of 3\n")
        code, out, _ = run_cli([command, instance, "--cap", "4"], capsys)
        assert code == 0 and out["answer"] is True


def test_zero_denominators_are_input_errors(tmp_path):
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(dict(WORKED_INSTANCE, gambles=_worked(sum=["1/0", "1"]))),
                        encoding="utf-8")
    recorded = tmp_path / "answer.json"
    recorded.write_text(json.dumps(forged(("zero-in-desext", "worked"), {"lambdas": ["1/0", "1"]})),
                        encoding="utf-8")
    for args, line in (
        (["in-ext", instance], "gamble 'sum': zero denominator in '1/0'"),
        (["selftest", "--verify", recorded], "payload: \"lambdas\": zero denominator in '1/0'"),
    ):
        result = _run_subprocess([str(a) for a in args])
        assert (result.returncode, result.stdout, result.stderr.decode()) == (
            1, b"", f"input error: {line}\n"), args


def test_gen_round_trip(capsys, tmp_path):
    code, payload, _ = run_cli(["gen", "--seed", 7, "--omega-size", 2], capsys)
    assert code == 0 and payload["schema"] == "desir/1"
    instance = tmp_path / "gen.json"
    instance.write_text(json.dumps(payload), encoding="utf-8")
    code, answer, _ = run_cli(["in-ext", instance], capsys)
    assert code == 0 and isinstance(answer["answer"], bool)


def test_every_forgery_a_file_holds_is_rejected_from_the_file(capsys, tmp_path):
    # The answers of the four formulations, the walk's in the leaf form that
    # in-ext writes and split's and indicator's with their prefix covers, and
    # every forgery of them that a desir/1 file can hold: one with drops
    # (``reduced``), or with a node without a certificate (``uncertified``),
    # cannot. Each reads back as written, and the file verifies exactly when
    # the answer is honest.
    rng = random.Random("file-forgeries")
    recorded = tmp_path / "answer.json"

    def verify(answer, candidate):
        recorded.write_text(json.dumps(as_payload(answer, candidate)), encoding="utf-8")
        read = _ext_answer_from_payload(json.loads(recorded.read_text(encoding="utf-8")))
        assert read == (answer, candidate)
        return run_cli(["selftest", "--verify", recorded], capsys)

    rejected = {kind: 0 for kind in ANSWER_KINDS + REFUTATION_KINDS if kind not in UNFILED}
    while min(rejected.values()) < 5:
        space = default_space(rng.randint(2, 3))
        assessment = seeded_assessment(rng, space, 4, 3, 2)
        candidate = random_gamble_set(rng, space, rng.randint(0, 2), 2)
        for name, decide in FORMULATIONS.items():
            answer = decide(assessment, candidate)
            if name in ("weak", "strict"):
                answer = as_leaves(answer)
            code, verdict, _ = verify(answer, candidate)
            assert code == 0 and verdict["certificates_checked"] == len(answer.cover)
            assert verdict["refutations_checked"] == len(answer.refutations)
            for kind, forgery in forgeries(answer, candidate, rng.randrange(space.size)):
                if kind not in UNFILED:
                    assert verify(forgery, candidate) == (1, None, MISMATCH + "\n"), (name, kind)
                    rejected[kind] += 1


def _run_subprocess(args):
    return subprocess.run(
        [sys.executable, "-m", "gamblesets", *args],
        capture_output=True,
        timeout=120,
    )


def _readme_table(header: str) -> set[str]:
    """First words of the first cells of the README table under ``header``."""
    lines = iter(README.read_text(encoding="utf-8").splitlines())
    for line in lines:
        if line == header:
            break
    else:
        raise AssertionError(f"README has no table {header!r}")
    next(lines)  # the | --- | row
    words = set()
    for line in itertools.takewhile(lambda row: row.startswith("|"), lines):
        words.add(line.split("|")[1].strip(" `").split()[0])
    return words


def test_readme_tables_match_the_code():
    # A command or module that leaves the code must leave README too.
    assert _readme_table("| command | needs | answer |") == set(_COMMANDS)
    package = Path(gamblesets.__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    assert _readme_table("| module | holds |") == modules
