"""Golden bytes for fractional input. Every benchmark corpus is all-integer,
so this pins the command line's stdout on instances whose gambles have
different denominators (thirds, sevenths and integers), where each cone LP
runs over a common scale L > 1. Each hash is the sha256 of the five cone
and extension commands' stdout, concatenated in the order of ``COMMANDS``;
the hashes were taken before gambles were held as integer directions, so a
change of representation that moved one byte fails here."""

import hashlib
import json

import pytest

from gamblesets.cli import main

COMMANDS = ("in-ext", "consistency", "in-desext", "zero-in-desext", "coherent-d")

INSTANCES = {
    # Weak "no" answers with refutations for every command.
    "mixed": {
        "schema": "desir/1",
        "omega": ["a", "b", "c"],
        "gambles": {
            "g1": ["1/3", "-5/7", "2"], "g2": ["-1", "2/3", "-5/7"], "g3": ["2", "-1/3", 0],
            "g4": ["-5/7", 1, "1/3"], "h1": ["1/3", "1/3", "-5/7"], "h2": [-2, "1", "3/7"],
        },
        "assessment": [["g1", "g2"], ["g3", "g4"]],
        "query": {"set": ["h1", "h2"], "generators": ["g1", "g2"], "gamble": "h1"},
    },
    "no": {
        "schema": "desir/1",
        "omega": ["a", "b", "c"],
        "gambles": {
            "g1": ["1/3", "-5/7", "2"], "g2": ["2", "-1/3", "-5/7"], "f": ["-1/3", "-5/7", "2"],
            "k": ["5/7", "-2", "1/3"],
        },
        "assessment": [["g1", "k"], ["g2"]],
        "query": {"set": ["f"], "generators": ["g1", "g2"], "gamble": "f"},
    },
    # Certificates: q = g1 + h, and 2 g1 + g2 = 0 puts zero in the cone.
    "yes": {
        "schema": "desir/1",
        "omega": ["a", "b", "c"],
        "gambles": {
            "g1": ["1/3", "-5/7", "2"], "g2": ["-2/3", "10/7", -4], "h": [1, "-1/7", "5/3"],
            "k": ["-5/7", 2, "1/3"], "q": ["4/3", "-6/7", "11/3"],
        },
        "assessment": [["g1", "k"], ["h"]],
        "query": {"set": ["q", "k"], "generators": ["g1", "g2", "h"], "gamble": "q"},
    },
}

GOLDEN = {
    ("mixed", False): "1ce22134686ae5901803f0314dfcd93dd2368b0765e09abe180033bb87b3ae87",
    ("mixed", True): "2256ff65eb4de51f94e25bae5afa31ce640983d8cf15b6b7beba1c4237855bce",
    ("no", False): "0b259719ac1cc36ef0c03a1390de5ee7d713cf659d5b702aa5ed9c1d39f89349",
    ("no", True): "cfc8556cb029b1c162c5a2f05974efb39aafe94ff7a5704d3f0244f9eebc49d1",
    ("yes", False): "710dd62554a39ab50054f1854185adc77b957aeda95a73ec75b72e40cd295410",
    ("yes", True): "e83beb5599aa24ae3a977edb6b971fc08c693747b7f482ad5a5e9228ef4c21e1",
}


@pytest.mark.parametrize("name, strict", sorted(GOLDEN))
def test_fractional_instances_keep_their_bytes(name, strict, capsys, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(INSTANCES[name]), encoding="utf-8")
    digest = hashlib.sha256()
    for command in COMMANDS:
        assert main([command, str(path), *(["--strict"] if strict else [])]) == 0, command
        out = capsys.readouterr()
        assert out.err == "" and json.loads(out.out)["command"] == command
        digest.update(out.out.encode())
    assert digest.hexdigest() == GOLDEN[name, strict]


def test_the_instances_cover_both_answers_and_refutations(capsys, tmp_path):
    seen = set()
    for name, instance in INSTANCES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
        for command in COMMANDS:
            main([command, str(path)])
            payload = json.loads(capsys.readouterr().out)
            refuted = "refutation" in payload or "refutations" in payload
            seen.add((command, payload["answer"], refuted))
    assert ("in-desext", False, True) in seen and ("in-desext", True, False) in seen
    assert ("in-ext", False, True) in seen and ("in-ext", True, False) in seen
    assert ("zero-in-desext", True, False) in seen and ("coherent-d", False, False) in seen
