"""Golden bytes for fractional input and for lifted certificates. Every
benchmark corpus is all-integer, so this pins the command line's stdout on
instances whose gambles have different denominators (thirds, sevenths and
integers), where each cone LP runs over a common scale L > 1. One more,
integer instance pins the certificates that a "yes" lifts from its cover
onto its full pickings: a keeper's coefficient moved to a dropped member,
a keeper also picked in another set, and one gamble picked twice; another
pins a moved coefficient mu lambda whose drop has lambda neither 0 nor 1.
Each hash is the sha256 of the five cone and extension commands' stdout,
concatenated in the order of ``COMMANDS``; the fractional hashes were taken
before gambles were held as integer directions, the lifted ones before the
pickings' evidence was read off the cover in one pass of the product, and
the scaled-drop ones before linear programs stored integer rows, so a
change of representation that moved one byte fails here. Last, every
command writes the same bytes in a fresh process as in this one."""

import hashlib
import itertools
import json
import subprocess
import sys

import pytest

from gamblesets import ext_contains
from gamblesets.cli import main, parse_instance, query_set
from test_cli import WORKED_INSTANCE

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
    # `gamblesets gen --seed 100 --omega-size 3 --num-sets 4 --set-size 3
    # --coeff-range 2`, with generators and a gamble added to its query: a
    # weak "yes" over 81 pickings whose reduction drops members.
    "lifted": {
        "schema": "desir/1",
        "omega": ["w1", "w2", "w3"],
        "gambles": {
            "g0": [-2, -1, -2], "g1": [0, 1, -1], "g2": [1, 1, 2], "g3": [-1, -1, 0],
            "g4": [0, -1, -1], "g5": [-1, 0, -1], "g6": [1, 0, -2], "g7": [2, -2, -2],
            "g8": [-1, 1, 0], "g9": [-1, 1, 1], "g10": [1, 2, -2], "g11": [-1, -2, -1],
            "g12": [2, -1, -1], "g13": [2, 1, -1],
        },
        "assessment": [["g0", "g1", "g2"], ["g3", "g4", "g1"], ["g5", "g6", "g7"],
                       ["g8", "g9", "g10"]],
        "query": {"set": ["g11", "g12", "g13"], "generators": ["g6", "g9", "g13"],
                  "gamble": "g10"},
    },
    # `gamblesets gen --seed 32 --omega-size 3 --num-sets 4 --set-size 3
    # --coeff-range 2`, with generators and a gamble added to its query: a
    # weak and a strict "yes" whose drops have lambda 1/2 and 2.
    "scaled-drop": {
        "schema": "desir/1",
        "omega": ["w1", "w2", "w3"],
        "gambles": {
            "g0": [-2, -2, -2], "g1": [-2, -1, -1], "g2": [0, -1, 1], "g3": [-2, 0, -2],
            "g4": [-2, 2, -2], "g5": [-1, 1, -2], "g6": [-2, 1, -1], "g7": [2, -1, 2],
            "g8": [-2, 2, 1], "g9": [0, 2, -2], "g10": [0, 2, 0], "g11": [-1, 1, 0],
            "g12": [1, -2, -2], "g13": [2, 0, -1],
        },
        "assessment": [["g0", "g1", "g2"], ["g3", "g4", "g5"], ["g6", "g2", "g7"],
                       ["g8", "g9", "g10"]],
        "query": {"set": ["g11", "g12", "g13"], "generators": ["g5", "g7", "g10"],
                  "gamble": "g12"},
    },
}

GOLDEN = {
    ("mixed", False): "1ce22134686ae5901803f0314dfcd93dd2368b0765e09abe180033bb87b3ae87",
    ("mixed", True): "2256ff65eb4de51f94e25bae5afa31ce640983d8cf15b6b7beba1c4237855bce",
    ("no", False): "0b259719ac1cc36ef0c03a1390de5ee7d713cf659d5b702aa5ed9c1d39f89349",
    ("no", True): "cfc8556cb029b1c162c5a2f05974efb39aafe94ff7a5704d3f0244f9eebc49d1",
    ("yes", False): "710dd62554a39ab50054f1854185adc77b957aeda95a73ec75b72e40cd295410",
    ("yes", True): "e83beb5599aa24ae3a977edb6b971fc08c693747b7f482ad5a5e9228ef4c21e1",
    ("lifted", False): "2b7907180d54637f5a88186f5737b278b0d2c4e80ac219f7e0d4f07b398a52e1",
    ("lifted", True): "4cbe52dca370f610b8141c8bef7d53e74831750765b313af89cc7b4a081f26ba",
    ("scaled-drop", False): "d7fa5e3326ef597873cef0e33082afa5b21b1c493bbde1d50f54ef931cd3773d",
    ("scaled-drop", True): "4b240261fa133b4a180679b6a2980f395e9c845f051a41bcb0835b6aea624ab3",
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


def _heads(name):
    """The in-ext answer of an instance, each head of its pickings with the
    cover node it takes its evidence from, and each dropped member's keeper
    and lambda. A head is the full prefix above a cover node: each dropped
    member read as its keeper gives the node, whose certificate the head
    takes over."""
    instance = parse_instance(INSTANCES[name])
    answer = ext_contains(instance.assessment, query_set(instance))
    keepers = {}
    for d, b, a, cert in answer.reduction:
        members = answer.witness_list[d].members
        keepers[d, members[b]] = members[a], cert.lambdas[0]
    nodes = dict(answer.cover)
    heads = {}
    for seq in itertools.product(*(s.members for s in answer.witness_list)):
        reduced = tuple(keepers.get((d, g), (g,))[0] for d, g in enumerate(seq))
        k = next(k for k in range(len(seq) + 1) if reduced[:k] in nodes)
        heads[seq[:k]] = reduced[:k]
    return answer, heads, keepers


def test_the_lifted_instance_covers_every_lifting_case():
    answer, heads, _ = _heads("lifted")
    assert answer.member and answer.reduction
    nodes = dict(answer.cover)
    moved = kept_elsewhere = False
    for head, node in heads.items():
        mu = dict(zip(dict.fromkeys(node), nodes[node].certificate.lambdas))
        for b, a in zip(head, node):
            if a != b and a in head:
                kept_elsewhere = True
            elif a != b and mu[a]:
                moved = True
    assert moved and kept_elsewhere
    assert any(len(set(head)) < len(head) for head in heads)


def test_the_scaled_drop_instance_moves_a_coefficient_times_lambda():
    # A keeper the head lacks moves its nonzero coefficient mu to the dropped
    # member as mu lambda; here lambda is neither 0 nor 1, so the bytes tell
    # mu lambda from mu.
    answer, heads, keepers = _heads("scaled-drop")
    assert answer.member and answer.reduction
    nodes = dict(answer.cover)
    scaled = set()
    for head, node in heads.items():
        mu = dict(zip(dict.fromkeys(node), nodes[node].certificate.lambdas))
        for d, (b, a) in enumerate(zip(head, node)):
            if a != b and a not in head and mu[a]:
                scaled.add(keepers[d, b][1])
    assert scaled - {0, 1}


def test_every_command_writes_the_same_bytes_in_a_fresh_process(capsys, tmp_path):
    # A fresh interpreter has its own string hashes and object ids, so output
    # that depends on either differs from the bytes this process writes.
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(WORKED_INSTANCE), encoding="utf-8")
    commands = [
        *([command, str(path)] for command in (*COMMANDS, "equiv", "repr")),
        ["in-ext", str(path), "--strict"],
        ["gen", "--seed", "21"],
        ["selftest", "--seed", "9", "--trials", "10"],
    ]
    for args in commands:
        assert main(args) == 0, args
        here = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "gamblesets", *args], capture_output=True, text=True,
            timeout=300,
        )
        assert fresh.returncode == 0, (args, fresh.stderr)
        assert fresh.stdout == here and here, args
