import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gamblesets
from differential import (
    ANSWER_KINDS,
    FORMULATIONS,
    REFUTATION_KINDS,
    as_leaves,
    as_payload,
    forgeries,
    seeded_assessment,
)
from gamblesets.check import _ext_answer_from_payload
from gamblesets.cli import _COMMANDS, main
from gamblesets.oracle import default_space, random_gamble_set

README = Path(__file__).resolve().parents[1] / "README.md"

# What selftest --verify says of evidence that does not prove the answer.
MISMATCH = "input error: recorded evidence fails substitution or does not match the answer\n"

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


def test_in_ext_answer_with_certificates(worked, capsys):
    code, payload, _ = run_cli(["in-ext", worked], capsys)
    assert code == 0
    assert payload["answer"] is True
    kinds = sorted(e["kind"] for e in payload["sequences"])
    assert kinds == ["hit", "hit", "hit", "hit"]


def test_consistency_answers(worked, capsys, tmp_path):
    code, payload, _ = run_cli(["consistency", worked], capsys)
    assert code == 0 and payload["answer"] is True
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "schema": "desir/1",
                "omega": ["a", "b"],
                "gambles": {"neg": ["-1", "-1"]},
                "assessment": [["neg"]],
                "query": {},
            }
        ),
        encoding="utf-8",
    )
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


def test_repr_agreement_and_inconsistent_exit(worked, capsys, tmp_path):
    code, payload, _ = run_cli(["repr", worked], capsys)
    assert code == 0 and payload["answer"] is True
    bad = tmp_path / "incons.json"
    bad.write_text(
        json.dumps(
            {
                "schema": "desir/1",
                "omega": ["a", "b"],
                "gambles": {"neg": ["-1", "-1"], "g": ["1", "0"]},
                "assessment": [["neg"]],
                "query": {"set": ["g"]},
            }
        ),
        encoding="utf-8",
    )
    code, payload, err = run_cli(["repr", bad], capsys)
    assert code == 2 and payload is None and "inconsistent" in err


def test_strict_flag(worked, capsys, tmp_path):
    code, payload, _ = run_cli(["in-ext", worked, "--strict"], capsys)
    assert code == 0 and payload["strict"] is True and payload["answer"] is True
    code, payload, _ = run_cli(["zero-in-desext", worked, "--strict"], capsys)
    assert code == 0 and payload["answer"] is True
    code, _, err = run_cli(["equiv", worked, "--strict"], capsys)
    assert code == 1 and "--strict" in err

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


# Malformed input that each command refuses before it decides anything: the
# command, the file it reads (None: none), and the line it writes to stderr.
SHAPE_ERRORS = [
    pytest.param(["selftest", "--trials", "x"], None,
                 "argument --trials: invalid int value: 'x'", id="trials"),
    pytest.param(["gen", "--seed", "x"], None, "argument --seed: invalid int value: 'x'",
                 id="seed"),
    pytest.param([], None, "the following arguments are required: command", id="no-command"),
    pytest.param(["in-ext"], None, "the following arguments are required: file", id="no-file"),
    pytest.param(["in-ext", "a.json", "b.json"], None, "unrecognized arguments: b.json",
                 id="second-file"),
    pytest.param(["in-ext", "a.json", "--cap"], None, "argument --cap: expected one argument",
                 id="no-value"),
    pytest.param(["in-ext"], [], "instance must be a JSON object", id="instance"),
    pytest.param(["in-ext"], dict(WORKED_INSTANCE, omega="ab"),
                 '"omega" must be a nonempty list of atom labels', id="omega"),
    pytest.param(["in-ext"], dict(WORKED_INSTANCE, gambles=[]),
                 '"gambles" must map names to vectors', id="gambles"),
    pytest.param(["in-ext"], dict(WORKED_INSTANCE, assessment={}),
                 '"assessment" must be a list of name lists', id="assessment"),
    pytest.param(["in-ext"], dict(WORKED_INSTANCE, assessment=["g1"]),
                 '"assessment" must be a list of name lists', id="assessment-row"),
    pytest.param(["in-ext"], dict(WORKED_INSTANCE, query=[]), '"query" must be an object',
                 id="query"),
    pytest.param(["in-desext"], dict(WORKED_INSTANCE, query={"generators": ["g1"]}),
                 "query needs a 'gamble' name for this command", id="query-gamble"),
    pytest.param(["repr"], dict(WORKED_INSTANCE, assessment=[]),
                 "repr needs a nonempty assessment", id="repr-assessment"),
    pytest.param(["selftest", "--verify"], {"schema": "desir/1"},
                 "not a recorded answer: missing 'command'", id="verify-command"),
    pytest.param(["selftest", "--verify"],
                 {"schema": "desir/1", "command": "in-ext", "omega": ["a"], "witness_list": [],
                  "query_set": [], "sequences": [5]},
                 "sequences[0]: not a JSON object", id="verify-sequence"),
]


@pytest.mark.parametrize("args, content, message", SHAPE_ERRORS)
def test_malformed_input_is_refused_with_one_line(args, content, message, capsys, tmp_path):
    if content is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        args = [*args, path]
    assert run_cli(args, capsys) == (1, None, f"input error: {message}\n")


def test_input_errors_exit_one(worked, capsys, tmp_path):
    code, _, err = run_cli(["in-ext", tmp_path / "missing.json"], capsys)
    assert code == 1 and "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(["in-ext", bad], capsys)
    assert code == 1 and "not valid JSON" in err

    # A file the JSON reader cannot decode, as an instance or as a recorded
    # answer, is an input error that names the file.
    long_int = "9" * 5000
    undecodable = {
        "deep": (b"[" * 200_000, "nests too deeply to decode"),
        "utf": (
            b'{"schema": "\xff"}',
            "is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 12:"
            " invalid start byte",
        ),
        "long": (
            json.dumps(WORKED_INSTANCE).replace('"1", "-1"', f"{long_int}, 1").encode(),
            "has an integer literal of over 4300 digits",
        ),
    }
    for name, (data, message) in undecodable.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        for args in (["in-ext", path], ["selftest", "--verify", path]):
            assert run_cli(args, capsys) == (1, None, f"input error: {path} {message}\n"), args

    bad.write_text(
        json.dumps(
            {
                "schema": "desir/1",
                "omega": ["a", "b"],
                "gambles": {"g": ["1", "0"]},
                "assessment": [["g", "ghost"]],
                "query": {"set": ["g"]},
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run_cli(["in-ext", bad], capsys)
    assert code == 1 and "ghost" in err

    bad.write_text(json.dumps({"schema": "desir/0", "omega": ["a"]}), encoding="utf-8")
    code, _, err = run_cli(["in-ext", bad], capsys)
    assert code == 1 and "schema" in err

    # A gamble name that is not a string is reported with the field it is in.
    not_strings = {
        "query.generators": (
            "in-desext", dict(WORKED_INSTANCE["query"], generators=[["x"]]), "['x']"
        ),
        "query.set": ("in-ext", {"set": [{"n": 1}]}, "{'n': 1}"),
        "query.gamble": ("in-desext", dict(WORKED_INSTANCE["query"], gamble=["x"]), "['x']"),
    }
    for field, (command, query, shown) in not_strings.items():
        bad.write_text(json.dumps(dict(WORKED_INSTANCE, query=query)), encoding="utf-8")
        code, out, err = run_cli([command, bad], capsys)
        message = f"input error: {field}: gamble names must be strings, got {shown}\n"
        assert (code, out, err) == (1, None, message)
    bad.write_text(json.dumps(dict(WORKED_INSTANCE, assessment=[[{"n": 1}]])), encoding="utf-8")
    code, out, err = run_cli(["in-ext", bad], capsys)
    message = "input error: assessment: gamble names must be strings, got {'n': 1}\n"
    assert (code, out, err) == (1, None, message)

    # Atom labels are checked to be strings before they are hashed.
    for omega in ([["a"], "b"], ["a", 5]):
        bad.write_text(json.dumps(dict(WORKED_INSTANCE, omega=omega)), encoding="utf-8")
        code, out, err = run_cli(["in-ext", bad], capsys)
        assert (code, out, err) == (1, None, "input error: atom labels must be nonempty strings\n")

    code, _, err = run_cli(["in-ext", worked, "--cap", "2"], capsys)
    assert code == 1 and "cap" in err

    for command, cap in (("in-ext", "0"), ("in-ext", "-1"), ("equiv", "0")):
        code, out, err = run_cli([command, worked, "--cap", cap], capsys)
        assert code == 1 and out is None
        assert f"argument --cap: must be at least 1, got {cap}" in err

    for command in ("in-desext", "zero-in-desext", "coherent-d"):
        code, out, err = run_cli([command, worked, "--cap", "5"], capsys)
        assert (code, out, err) == (1, None, "input error: unrecognized arguments: --cap 5\n")

    for trials in ("0", "-1"):
        code, out, err = run_cli(["selftest", "--trials", trials], capsys)
        assert code == 1 and out is None
        assert f"argument --trials: must be at least 1, got {trials}" in err

    # A rejected entry is quoted by its first 40 characters and its length,
    # so a megabyte entry gets a short diagnostic.
    grammar = 'is not a rational of the form "n", "-n" or "n/d"'
    for entry, shown in (
        ("x" * 1000000, f"{'x' * 40!r}... (1000000 characters) {grammar}"),
        ("1" * 50 + "/0", f"zero denominator in {'1' * 40!r}... (52 characters)"),
    ):
        gambles = dict(WORKED_INSTANCE["gambles"], sum=[entry, "1"])
        bad.write_text(json.dumps(dict(WORKED_INSTANCE, gambles=gambles)), encoding="utf-8")
        code, out, err = run_cli(["in-ext", bad], capsys)
        assert (code, out, err) == (1, None, f"input error: gamble 'sum': {shown}\n")
        assert len(err.encode()) < 1024
    # A gamble is read like a payload's vector: a list, one entry per atom.
    for values, shown in (
        ("1, -1", "gamble 'g1' must be a list"),
        (["1", "-1", "0"], "gamble 'g1': gamble has 3 entries for a 2-atom space"),
    ):
        gambles = dict(WORKED_INSTANCE["gambles"], g1=values)
        bad.write_text(json.dumps(dict(WORKED_INSTANCE, gambles=gambles)), encoding="utf-8")
        code, out, err = run_cli(["in-ext", bad], capsys)
        assert (code, out, err) == (1, None, f"input error: {shown}\n")

    # An integer past the interpreter's 4300-digit limit for reading decimal
    # text is named with that limit, in an instance and in a payload field.
    too_long = f"{'1' * 40!r}... (4301 characters) has an integer of over 4300 digits"
    gambles = dict(WORKED_INSTANCE["gambles"], sum=["1" * 4301, "1"])
    bad.write_text(json.dumps(dict(WORKED_INSTANCE, gambles=gambles)), encoding="utf-8")
    code, out, err = run_cli(["in-ext", bad], capsys)
    assert (code, out, err) == (1, None, f"input error: gamble 'sum': {too_long}\n")
    code, payload, _ = run_cli(["in-ext", worked], capsys)
    assert code == 0
    payload["sequences"][0]["certificate"]["lambdas"][0] = "1" * 4301
    bad.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run_cli(["selftest", "--verify", bad], capsys)
    message = f'input error: sequences[0]: certificate "lambdas": {too_long}\n'
    assert (code, out, err) == (1, None, message)

    code, _, err = run_cli(["bogus-command"], capsys)
    assert code == 1


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


def test_zero_denominators_are_input_errors(worked, capsys, tmp_path):
    instance = tmp_path / "instance.json"
    gambles = dict(WORKED_INSTANCE["gambles"], sum=["1/0", "1"])
    instance.write_text(json.dumps(dict(WORKED_INSTANCE, gambles=gambles)), encoding="utf-8")
    code, payload, _ = run_cli(["zero-in-desext", worked], capsys)
    assert code == 0 and payload["answer"] is True
    recorded = tmp_path / "answer.json"
    recorded.write_text(json.dumps(dict(payload, lambdas=["1/0", "1"])), encoding="utf-8")
    for args in (["in-ext", instance], ["selftest", "--verify", recorded]):
        result = _run_subprocess([str(a) for a in args])
        err = result.stderr.decode()
        assert result.returncode == 1 and result.stdout == b"", (args, err)
        assert err.startswith("input error:") and "'1/0'" in err, (args, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("text", ["1e10000000", "1e100000", "1.5"])
def test_decimal_and_exponent_strings_are_rejected_at_once(capsys, tmp_path, text):
    # Fraction would read these, the first by building a ten-million-digit
    # integer; the documented grammar ("n", "-n", "n/d") turns them away
    # before any arithmetic, naming the gamble or the payload field.
    shown = f"{text!r} is not a rational of the form \"n\", \"-n\" or \"n/d\""
    gambles = dict(WORKED_INSTANCE["gambles"], f=[text, "1"])
    query = {"set": ["f"], "generators": ["g1"], "gamble": "f"}
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(dict(WORKED_INSTANCE, gambles=gambles, query=query)))
    honest = tmp_path / "honest.json"
    honest.write_text(json.dumps(WORKED_INSTANCE), encoding="utf-8")
    code, answer, _ = run_cli(["in-ext", honest], capsys)
    assert code == 0
    recorded = tmp_path / "answer.json"
    cases = [(["in-ext", instance], f"gamble 'f': {shown}"),
             (["in-desext", instance], f"gamble 'f': {shown}")]
    query_set = json.loads(json.dumps(answer))
    query_set["query_set"][0][0] = text
    lambdas = json.loads(json.dumps(answer))
    lambdas["sequences"][0]["certificate"]["lambdas"][0] = text
    for payload, place in ((query_set, 'payload: "query_set"[0]'),
                           (lambdas, 'sequences[0]: certificate "lambdas"')):
        path = tmp_path / f"verify{len(cases)}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        cases.append((["selftest", "--verify", path], f"{place}: {shown}"))
    for args, message in cases:
        start = time.perf_counter()
        code, out, err = run_cli(args, capsys)
        assert time.perf_counter() - start < 0.5, args
        assert (code, out, err) == (1, None, f"input error: {message}\n"), args


def test_an_answer_too_long_to_write_is_an_input_error(capsys, tmp_path):
    # First: no entry is longer than 2,504 characters, but the certificate
    # would have lambda = 1/10^5000 and a remainder with a 7,501-digit
    # denominator, which ``rational`` could not read back. The loader
    # refuses g1 before any work: over its denominator 10^2500 its second
    # entry is -10^5000. Second: the gambles pass the loader, f being
    # (-a, 0) and g1 (-1/q, -1) with a = 7^4700 (3,972 digits) and q = 3^4600
    # (2,195 digits), so their common denominator is q, but the certificate
    # of f over g1 has lambda = a q (weak) or a q + 1 (strict), about 6,170
    # digits, so the write refuses it. Nothing is written either way.
    big, a, q = "1" + "0" * 2500, 7**4700, 3**4600
    refused = "gamble 'g1': over their common denominator, its entries need an integer"
    cases = (
        ({"g1": [f"1/{big}", f"-{big}"], "f": [f"1/{big}", f"-1/{big}"]}, refused,
         ("in-desext", "in-ext")),
        ({"g1": [f"-1/{q}", "-1"], "f": [f"-{a}", "0"]}, "an answer entry has an integer",
         ("in-desext",)),
    )
    query = {"set": ["f"], "generators": ["g1"], "gamble": "f"}
    instance = tmp_path / "instance.json"
    for gambles, message, commands in cases:
        instance.write_text(
            json.dumps(dict(WORKED_INSTANCE, gambles=gambles, assessment=[["g1"]], query=query)),
            encoding="utf-8",
        )
        for args in ([c, *strict, instance] for c in commands for strict in ((), ("--strict",))):
            assert run_cli(args, capsys) == (
                1, None, f"input error: {message} of over 4300 digits\n"), args


def _forty_atom_instance(tmp_path, digits):
    """An instance of 40 atoms and four gambles, each entry +-1/p for a
    distinct odd p of ``digits`` digits."""
    rng = random.Random(6)
    gambles = {}
    for k in range(4):
        ps = set()
        while len(ps) < 40:
            ps.add(rng.randrange(10**(digits - 1), 10**digits) | 1)
        gambles[f"g{k}"] = [f"{rng.choice(('', '-'))}1/{p}" for p in sorted(ps)]
    query = {"set": ["g3"], "generators": ["g0", "g1", "g2"], "gamble": "g3"}
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({
        "schema": "desir/1", "omega": [f"w{i}" for i in range(40)], "gambles": gambles,
        "assessment": [["g0", "g1"], ["g2"]], "query": query,
    }), encoding="utf-8")
    return instance


def test_a_gamble_too_long_over_its_denominator_is_refused_at_once(capsys, tmp_path):
    # With 200-digit p every entry is short, but each gamble's entries over
    # their common denominator, the product of its 40 p, have about 7,800
    # digits. Solving and then failing to write took seconds; the loader
    # refuses the first gamble before any test.
    instance = _forty_atom_instance(tmp_path, 200)
    message = (
        "input error: gamble 'g0': over their common denominator, its entries need an "
        "integer of over 4300 digits\n"
    )
    for args in (["in-desext", instance], ["in-ext", "--strict", instance]):
        start = time.perf_counter()
        assert run_cli(args, capsys) == (1, None, message), args
        assert time.perf_counter() - start < 0.5, args


def test_gambles_whose_common_denominator_is_too_long_are_refused_at_once(capsys, tmp_path):
    # With 100-digit p each gamble passes on its own (about 4,000 digits),
    # but the least common denominator of the four, which bounds the scale
    # of every cone LP over them, has about 16,000 digits.
    instance = _forty_atom_instance(tmp_path, 100)
    message = "input error: the gambles' least common denominator has over 4300 digits\n"
    for args in (["in-desext", instance], ["in-ext", "--strict", instance], ["consistency", instance]):
        start = time.perf_counter()
        assert run_cli(args, capsys) == (1, None, message), args
        assert time.perf_counter() - start < 0.5, args


def test_missing_query_fields(worked, capsys, tmp_path):
    noset = tmp_path / "noset.json"
    payload = dict(WORKED_INSTANCE)
    payload["query"] = {"kind": "in-extension"}
    noset.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run_cli(["in-ext", noset], capsys)
    assert code == 1 and "set" in err
    code, _, err = run_cli(["zero-in-desext", noset], capsys)
    assert code == 1 and "generators" in err
    code, _, err = run_cli(["in-desext", noset], capsys)
    assert code == 1


def test_gen_round_trip(capsys, tmp_path):
    code, payload, _ = run_cli(["gen", "--seed", 7, "--omega-size", 2], capsys)
    assert code == 0 and payload["schema"] == "desir/1"
    instance = tmp_path / "gen.json"
    instance.write_text(json.dumps(payload), encoding="utf-8")
    code, answer, _ = run_cli(["in-ext", instance], capsys)
    assert code == 0 and isinstance(answer["answer"], bool)


def test_selftest_and_verification(worked, capsys, tmp_path):
    code, payload, _ = run_cli(["selftest", "--seed", 3, "--trials", 15], capsys)
    assert code == 0 and payload["answer"] is True

    code, payload, _ = run_cli(["in-ext", worked], capsys)
    recorded = tmp_path / "answer.json"
    recorded.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    code, verdict, _ = run_cli(["selftest", "--verify", recorded], capsys)
    assert code == 0 and verdict["answer"] is True
    assert verdict["certificates_checked"] == 4

    # tampering with a coefficient must be caught
    honest = json.loads(json.dumps(payload))
    payload["sequences"][0]["certificate"]["lambdas"][0] = "5"
    recorded.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    code, _, err = run_cli(["selftest", "--verify", recorded], capsys)
    assert code == 1 and "substitution" in err

    # An honest negative (the query (-17/10, 4/5) fails at the second
    # picking) records no evidence, only its failed picking, and verifies.
    negative_instance = tmp_path / "negative.json"
    negative_instance.write_text(
        json.dumps(dict(WORKED_INSTANCE, query={"set": ["a1"]})), encoding="utf-8"
    )
    code, negative, _ = run_cli(["in-ext", negative_instance], capsys)
    assert code == 0 and negative["answer"] is False and negative["sequences"] == []
    recorded.write_text(json.dumps(negative, sort_keys=True), encoding="utf-8")
    code, verdict, _ = run_cli(["selftest", "--verify", recorded], capsys)
    assert code == 0 and verdict["answer"] is True
    assert verdict["certificates_checked"] == 0
    # The failed picking {(-1, 2), (1, -1)} is refuted for zero and for the
    # query's one member; a positive answer records no refutations.
    assert [r["form"] for r in negative["refutations"]] == ["sum", "empty"]
    assert verdict["refutations_checked"] == 2 and "refutations" not in honest

    # The other extension payloads, of either polarity, verify the same way.
    for command, instance in itertools.product(
        ("consistency", "equiv", "repr"), (worked, negative_instance)
    ):
        code, other, _ = run_cli([command, instance], capsys)
        recorded.write_text(json.dumps(other, sort_keys=True), encoding="utf-8")
        code, verdict, _ = run_cli(["selftest", "--verify", recorded], capsys)
        assert code == 0 and verdict["verified_command"] == command
        assert verdict["certificates_checked"] == len(other["sequences"])
        assert verdict["refutations_checked"] == len(other.get("refutations", []))

    def forged(payload, **changes):
        return dict(json.loads(json.dumps(payload)), **changes)

    # Faults of a file that no forgery of an answer makes (the others are
    # made by ``tests/differential.py``; see the file test below).
    rejected = [
        # a member turned into a non-member with no failed picking at all
        forged(honest, answer=False, sequences=[]),
        # the refutations of the zero gamble and of the member swapped
        forged(negative, refutations=negative["refutations"][::-1]),
        # every picking recorded, but not in canonical order
        forged(honest, sequences=honest["sequences"][::-1]),
        # a consistent assessment's "yes" relabelled as its inconsistency:
        # a consistency answer is about the empty set
        forged(honest, command="consistency", answer=False),
        # hits whose certificates hold, for a gamble outside the query set
        forged(honest, query_set=[["1", "1"]]),
        # honest evidence whose kinds are neither "skip" nor "hit"
        forged(honest, sequences=[dict(e, kind="banana") for e in honest["sequences"]]),
    ]
    for payload in rejected:
        recorded.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        code, out, err = run_cli(["selftest", "--verify", recorded], capsys)
        assert code == 1 and out is None and err.startswith("input error")

    # A missing field is reported with the entry it is missing from.
    hit = honest["sequences"][0]
    assert hit["kind"] == "hit"
    truncated = {
        'input error: sequences[0]: hit without "gamble"\n':
            forged(honest, sequences=[{k: v for k, v in hit.items() if k != "gamble"}]),
        'input error: sequences[0]: missing "certificate"\n':
            forged(honest, sequences=[{k: v for k, v in hit.items() if k != "certificate"}]),
        'input error: sequences[0]: missing "sequence"\n':
            forged(honest, sequences=[{k: v for k, v in hit.items() if k != "sequence"}]),
        'input error: sequences[0]: missing "kind"\n':
            forged(honest, sequences=[{k: v for k, v in hit.items() if k != "kind"}]),
    }
    for field in ("witness_list", "sequences", "failed_sequence"):
        truncated[f'input error: payload: missing "{field}"\n'] = {
            k: v for k, v in negative.items() if k != field
        }
    # ... and so is a missing or malformed certificate field.
    for field in ("lambdas", "remainder"):
        cert = {k: v for k, v in hit["certificate"].items() if k != field}
        truncated[f'input error: sequences[0]: certificate missing "{field}"\n'] = forged(
            honest, sequences=[dict(hit, certificate=cert)]
        )
    truncated["input error: sequences[0]: certificate is not an object\n"] = forged(
        honest, sequences=[dict(hit, certificate=list(hit["certificate"].values()))]
    )
    # A field of the wrong JSON type is reported with its place.
    for field, value, place in (
        ("sequences", 5, '"sequences"'),
        ("witness_list", 7, '"witness_list"'),
        ("omega", 5, '"omega"'),
        ("query_set", [5], '"query_set"[0]'),
        ("failed_sequence", 5, '"failed_sequence"'),
    ):
        message = f"input error: payload: {place} must be a list\n"
        truncated[message] = forged(honest, **{field: value})
    truncated['input error: payload: "refutations" must be a list\n'] = forged(
        negative, refutations=5
    )
    for field in ("form", "y"):
        refutation = {k: v for k, v in negative["refutations"][0].items() if k != field}
        truncated[f'input error: refutations[0]: missing "{field}"\n'] = forged(
            negative, refutations=[refutation]
        )
    truncated['input error: refutations[0]: "y" must be a list\n'] = forged(
        negative, refutations=[dict(negative["refutations"][0], y=5)]
    )
    truncated['input error: payload: "command" must be a string\n'] = forged(
        honest, command=["in-ext"]
    )
    cert = dict(hit["certificate"], lambdas=5)
    truncated['input error: sequences[0]: certificate "lambdas" must be a list\n'] = forged(
        honest, sequences=[dict(hit, certificate=cert)]
    )
    # A vector with the wrong number of entries is reported with its place.
    wrong = "gamble has 3 entries for a 2-atom space"
    truncated[f'input error: payload: "query_set"[0]: {wrong}\n'] = forged(
        honest, query_set=[["1", "2", "3"]]
    )
    truncated[f'input error: sequences[0]: "gamble": {wrong}\n'] = forged(
        honest, sequences=[dict(hit, gamble=["1", "2", "3"])]
    )
    code, single, _ = run_cli(["in-desext", worked], capsys)
    assert code == 0 and single["lambdas"] is not None
    truncated['input error: payload: "generators"[1] must be a list\n'] = forged(
        single, generators=single["generators"][:1] + [7]
    )
    for field in ("omega", "generators", "gamble", "lambdas", "remainder"):
        truncated[f'input error: payload: missing "{field}"\n'] = {
            k: v for k, v in single.items() if k != field
        }
    for message, payload in truncated.items():
        recorded.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        code, out, err = run_cli(["selftest", "--verify", recorded], capsys)
        assert (code, out, err) == (1, None, message)

    # A consistency answer is about the empty set, whatever it claims.
    placed = [('input error: payload: "query_set" of a consistency answer must be empty\n',
               forged(honest, command="consistency", answer=False))]
    # The flags a verdict depends on are JSON booleans. Read as true, the
    # string "no" would turn a forged weak "no" into a strict one, which
    # needs no refutations: here {(-1, -1)}, with its refutations removed,
    # naming the first picking.
    minus = tmp_path / "minus.json"
    gambles = dict(WORKED_INSTANCE["gambles"], m=["-1", "-1"])
    minus.write_text(
        json.dumps(dict(WORKED_INSTANCE, gambles=gambles, query={"set": ["m"]})), encoding="utf-8"
    )
    code, weak_no, _ = run_cli(["in-ext", minus], capsys)
    assert code == 0 and weak_no["answer"] is False and weak_no["refutations"]
    assert weak_no["sequences"] == []
    bare = {k: v for k, v in weak_no.items() if k != "refutations"}
    bare.update(failed_sequence=[s[0] for s in honest["witness_list"]])
    placed.append(('input error: payload: "strict" must be a boolean\n', dict(bare, strict="no")))
    for command, field in (("in-ext", "answer"), ("consistency", "answer"), ("repr", "ext_member")):
        code, other, _ = run_cli([command, worked], capsys)
        assert code == 0 and isinstance(other[field], bool)
        message = f'input error: payload: "{field}" must be a boolean\n'
        placed.append((message, forged(other, **{field: str(other[field]).lower()})))
        missing = {k: v for k, v in other.items() if k != field}
        placed.append((f'input error: payload: missing "{field}"\n', missing))
    placed.append(('input error: payload: "strict" must be a boolean\n', forged(single, strict=0)))
    # The verdicts that repr and equiv report next to the extension verdict
    # are read as JSON booleans too, and are required (see also
    # test_verify_refuses_verdicts_the_evidence_contradicts).
    code, rep, _ = run_cli(["repr", worked], capsys)
    code, eqv, _ = run_cli(["equiv", worked], capsys)
    placed.append(('input error: payload: missing "family_member"\n',
                   {k: v for k, v in rep.items() if k != "family_member"}))
    placed.append(('input error: payload: missing "agree"\n',
                   {k: v for k, v in eqv.items() if k != "agree"}))
    placed.append(('input error: payload: "formulations": "split" must be a boolean\n',
                   forged(eqv, formulations=dict(eqv["formulations"], split="yes"))))
    for message, payload in placed:
        recorded.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        code, out, err = run_cli(["selftest", "--verify", recorded], capsys)
        assert (code, out, err) == (1, None, message)


@pytest.mark.parametrize("query", ["sum", "a1"])
@pytest.mark.parametrize("command", ["repr", "equiv"])
def test_verify_refuses_verdicts_the_evidence_contradicts(command, query, capsys, tmp_path):
    # Every verdict that repr and equiv report must be the extension verdict
    # that the evidence proves, on a "yes" ({(0, 1)}, the worked query) and
    # on a "no" ({(-17/10, 4/5)}, refuted at its failed picking). Each
    # verdict flipped, alone or with the verdict that says whether they agree
    # flipped to match, is refused with the field named; so is a payload
    # that claims the strict mode neither command has.
    instance = tmp_path / "instance.json"
    instance.write_text(
        json.dumps(dict(WORKED_INSTANCE, query={"set": [query]})), encoding="utf-8"
    )
    code, honest, _ = run_cli([command, instance], capsys)
    member = query == "sum"
    assert code == 0 and honest["ext_member" if command == "repr" else "answer"] is member
    flipped = json.dumps(not member)
    if command == "repr":
        assert honest["family_member"] is member and honest["answer"] is True
        message = f'payload: "family_member": {flipped} contradicts "ext_member"'
        forgeries = {
            message: [{"family_member": not member}, {"family_member": not member, "answer": False}]
        }
        agreement = "answer"
    else:
        assert honest["formulations"] == dict.fromkeys(("direct", "indicator", "split"), member)
        assert honest["agree"] is True
        forgeries = {}
        for key in ("direct", "split", "indicator"):
            formulations = dict(honest["formulations"], **{key: not member})
            message = f'payload: "formulations": "{key}": {flipped} contradicts "answer"'
            forgeries[message] = [
                {"formulations": formulations}, {"formulations": formulations, "agree": False}
            ]
        agreement = "agree"
    forgeries[f'payload: "{agreement}": false contradicts the evidence'] = [{agreement: False}]
    forgeries[f'payload: "strict": true, but {command} has no --strict'] = [{"strict": True}]
    recorded = tmp_path / "answer.json"
    recorded.write_text(json.dumps(honest), encoding="utf-8")
    code, verdict, _ = run_cli(["selftest", "--verify", recorded], capsys)
    assert code == 0 and verdict["verified_command"] == command
    for message, changes in forgeries.items():
        for change in changes:
            recorded.write_text(json.dumps(dict(honest, **change)), encoding="utf-8")
            code, out, err = run_cli(["selftest", "--verify", recorded], capsys)
            assert (code, out, err) == (1, None, f"input error: {message}\n"), change


def test_verify_rejects_a_refutation_with_a_negative_entry(capsys, tmp_path):
    # (1, -1, 1) = (1, -1, 0) + (0, 0, 1) lies in the extension of
    # {{(1, -1, 0)}}. A forged "no" refutes it with y = (0, 0, -1), which has
    # y . g = 0 and y . f = -1 < 0, the sums of the "empty" form; only the
    # sign of y rules it out. Zero's refutation (1, 0, 0) holds.
    instance = tmp_path / "three.json"
    instance.write_text(json.dumps({
        "schema": "desir/1",
        "omega": ["a", "b", "c"],
        "gambles": {"g": ["1", "-1", "0"], "f": ["1", "-1", "1"]},
        "assessment": [["g"]],
        "query": {"set": ["f"]},
    }), encoding="utf-8")
    code, honest, _ = run_cli(["in-ext", instance], capsys)
    assert code == 0 and honest["answer"] is True
    refutations = [{"form": "sum", "y": ["1", "0", "0"]}, {"form": "empty", "y": ["0", "0", "-1"]}]
    forged = dict(honest, answer=False, sequences=[], failed_sequence=[["1", "-1", "0"]],
                  refutations=refutations)
    recorded = tmp_path / "answer.json"
    recorded.write_text(json.dumps(forged, sort_keys=True), encoding="utf-8")
    code, out, err = run_cli(["selftest", "--verify", recorded], capsys)
    assert (code, out, err) == (1, None, MISMATCH)


def test_every_forgery_a_file_holds_is_rejected_from_the_file(capsys, tmp_path):
    # The answers of the four formulations, the walk's in the leaf form that
    # in-ext writes and split's and indicator's with their prefix covers, and
    # every forgery of them that a desir/1 file can hold: one with drops
    # (``reduced``) cannot. Each reads back as written, and the file verifies
    # exactly when the answer is honest.
    rng = random.Random("file-forgeries")
    recorded = tmp_path / "answer.json"

    def verify(answer, candidate):
        recorded.write_text(json.dumps(as_payload(answer, candidate)), encoding="utf-8")
        read = _ext_answer_from_payload(json.loads(recorded.read_text(encoding="utf-8")))
        assert read == (answer, candidate)
        return run_cli(["selftest", "--verify", recorded], capsys)

    rejected = {kind: 0 for kind in ANSWER_KINDS + REFUTATION_KINDS if kind != "reduced"}
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
                if kind != "reduced":
                    assert verify(forgery, candidate) == (1, None, MISMATCH), (name, kind)
                    rejected[kind] += 1


def test_verify_single_certificate_outputs(worked, capsys, tmp_path):
    # (-17/10, 4/5) is outside desext({(1, -1)}), and that cone is coherent.
    negative = tmp_path / "negative.json"
    query = {"generators": ["g1"], "gamble": "a1"}
    negative.write_text(json.dumps(dict(WORKED_INSTANCE, query=query)), encoding="utf-8")
    recorded = tmp_path / "answer.json"
    answers = set()
    for instance, command, strict in itertools.product(
        (worked, negative), ("zero-in-desext", "in-desext", "coherent-d"), (False, True)
    ):
        args = [command, instance] + (["--strict"] if strict else [])
        code, payload, _ = run_cli(args, capsys)
        assert code == 0
        answers.add((command, payload["answer"]))
        recorded.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        code, verdict, _ = run_cli(["selftest", "--verify", recorded], capsys)
        assert code == 0 and verdict["answer"] is True
        # A weak answer without a certificate is refuted instead; a strict
        # one is not yet.
        certified = payload["lambdas"] is not None
        refuted = not (certified or strict)
        assert ("refutation" in payload) is refuted
        assert verdict["certificates_checked"] == int(certified)
        assert verdict["refutations_checked"] == int(refuted)
        # The answer must match whether a certificate is recorded.
        flipped = not payload["answer"]
        reason = "contradicts its certificate" if certified else "needs a certificate"
        recorded.write_text(json.dumps(dict(payload, answer=flipped)), encoding="utf-8")
        code, out, err = run_cli(["selftest", "--verify", recorded], capsys)
        assert (code, out, err) == (
            1, None, f'input error: payload: "answer": {json.dumps(flipped)} {reason}\n'
        )
    # both answers of each command were recorded and flipped
    assert len(answers) == 6


def _cone_instance(tmp_path, generators, f):
    names = {f"g{i}": v for i, v in enumerate(generators)}
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({
        "schema": "desir/1", "omega": ["a", "b"], "gambles": dict(names, f=f),
        "assessment": [], "query": {"generators": list(names), "gamble": "f"},
    }), encoding="utf-8")
    return path


@pytest.mark.parametrize("command, generators, f", [
    # (0, 1) is weakly positive, so it lies in every cone.
    ("in-desext", [["1", "-1"], ["-1", "2"]], ["0", "1"]),
    # 0 = 11 a1 + 8 c2 - (107/10, 0) lies in the cone of the worked pair.
    ("zero-in-desext", [["-17/10", "4/5"], ["1", "-11/10"]], ["0", "0"]),
    ("coherent-d", [["-17/10", "4/5"], ["1", "-11/10"]], ["0", "0"]),
])
def test_verify_rejects_a_forged_single_cone_refusal(command, generators, f, capsys, tmp_path):
    code, payload, _ = run_cli([command, _cone_instance(tmp_path, generators, f)], capsys)
    assert code == 0 and payload["lambdas"] is not None and "refutation" not in payload
    forged = dict(payload, answer=not payload["answer"], lambdas=None, remainder=None)
    recorded = tmp_path / "forged.json"
    # No vector, or one that does not refute: (1, 1) and e_a meet a1 below 0.
    # The weakly positive (0, 1) lies in every cone, so no vector refutes it.
    for extra in (
        {},
        {"refutation": {"form": "sum", "y": ["1", "1"]}},
        {"refutation": {"form": "empty", "y": ["1", "0"]}},
    ):
        recorded.write_text(json.dumps(dict(forged, **extra)), encoding="utf-8")
        code, out, err = run_cli(["selftest", "--verify", recorded], capsys)
        assert (code, out, err) == (1, None, MISMATCH)
    if command == "in-desext":
        # A strict "no" is not refuted yet, but (0, 1) is not strictly
        # positive, so only the strictly positive (1, 1) is caught.
        for gamble, code_wanted in ((["0", "1"], 0), (["1", "1"], 1)):
            strict = dict(forged, strict=True, gamble=gamble)
            recorded.write_text(json.dumps(strict), encoding="utf-8")
            code, _, err = run_cli(["selftest", "--verify", recorded], capsys)
            assert code == code_wanted, err


def test_verify_checks_a_refusal_over_no_generators(capsys, tmp_path):
    # Over no generators a "no" needs no vector, only a gamble that is not
    # weakly positive.
    code, payload, _ = run_cli(["in-desext", _cone_instance(tmp_path, [], ["1", "-1"])], capsys)
    assert code == 0 and payload["answer"] is False and "refutation" not in payload
    recorded = tmp_path / "answer.json"
    for changes, wanted in (({}, ""), ({"gamble": ["1", "0"]}, MISMATCH)):
        recorded.write_text(json.dumps(dict(payload, **changes)), encoding="utf-8")
        code, _, err = run_cli(["selftest", "--verify", recorded], capsys)
        assert (code, err) == (int(bool(wanted)), wanted)


def test_verify_refuses_a_refutation_no_cone_answer_records(capsys, tmp_path):
    # A refutation is recorded only by a weak "no" over generators. (-1, 1)
    # is outside desext({(1, -1)}) in both modes: the weak "no" refutes it,
    # and its refutation, which does refute, is refused beside the strict
    # "no", as is a malformed one. So is any refutation over no generators,
    # and beside a certificate.
    cone = _cone_instance(tmp_path, [["1", "-1"]], ["-1", "1"])
    code, weak, _ = run_cli(["in-desext", cone], capsys)
    code, strict, _ = run_cli(["in-desext", cone, "--strict"], capsys)
    assert weak["answer"] is strict["answer"] is False and "refutation" not in strict
    code, empty, _ = run_cli(["in-desext", _cone_instance(tmp_path, [], ["-1", "1"])], capsys)
    code, yes, _ = run_cli(["in-desext", _cone_instance(tmp_path, [["1", "-1"]], ["2", "-2"])],
                           capsys)
    assert empty["answer"] is False and yes["answer"] is True
    recorded = tmp_path / "answer.json"
    for payload in (strict, empty, yes):
        recorded.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli(["selftest", "--verify", recorded], capsys)[0] == 0
        for refutation in (weak["refutation"], {"form": "sum", "y": ["1", "1"]}):
            recorded.write_text(json.dumps(dict(payload, refutation=refutation)), encoding="utf-8")
            code, out, err = run_cli(["selftest", "--verify", recorded], capsys)
            assert (code, out, err) == (1, None, MISMATCH)
    recorded.write_text(json.dumps(dict(strict, refutation={"form": "bogus", "y": ["x"]})),
                        encoding="utf-8")
    code, out, err = run_cli(["selftest", "--verify", recorded], capsys)
    assert (code, out) == (1, None) and err.startswith('input error: refutation: "y"')


def test_verify_requires_the_schema(worked, capsys, tmp_path):
    # The schema is checked after the command, whose diagnostics stay.
    code, honest, _ = run_cli(["in-ext", worked], capsys)
    recorded = tmp_path / "answer.json"
    message = 'input error: payload must declare "schema": "desir/1"\n'
    for payload in (dict(honest, schema="desir/9"),
                    {k: v for k, v in honest.items() if k != "schema"}):
        recorded.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli(["selftest", "--verify", recorded], capsys) == (1, None, message)
        recorded.write_text(json.dumps(dict(payload, command="gen")), encoding="utf-8")
        code, _, err = run_cli(["selftest", "--verify", recorded], capsys)
        assert (code, err) == (1, "input error: cannot verify output of command 'gen'\n")


def test_verify_rejects_outputs_without_evidence(capsys, tmp_path):
    # A self-test output records nothing to substitute, so a failed self-test
    # must not come back verified; nor may a file from the removed render
    # command.
    code, selftest, _ = run_cli(["selftest", "--seed", 3, "--trials", 2], capsys)
    assert code == 0
    render = {"schema": "desir/1", "command": "render", "answer": True, "path": "fig.svg"}
    recorded = tmp_path / "answer.json"
    for payload in (dict(selftest, answer=False), render):
        recorded.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(["selftest", "--verify", recorded], capsys)
        message = f"input error: cannot verify output of command {payload['command']!r}\n"
        assert (code, out, err) == (1, None, message)


def test_render_is_no_longer_a_command(worked, capsys, tmp_path):
    code, out, err = run_cli(["render", worked, "--out", tmp_path / "fig.svg"], capsys)
    assert (code, out) == (1, None)
    assert err.startswith("input error: argument command: invalid choice: 'render'")
    assert not (tmp_path / "fig.svg").exists()


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
