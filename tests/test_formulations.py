import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import AB, G1, G2, WORKED, g, gset
from differential import extension_check, tagged, tier1_run
from gamblesets import (
    Assessment,
    CapExceeded,
    ExtAnswer,
    ext_contains,
    ext_contains_indicator,
    ext_contains_split,
    fm_feasible,
    fm_zero_in_desext,
    formulations_agree,
    verify_ext_answer,
)
from gamblesets import formulations
from gamblesets.cli import main
from gamblesets.gambles import random_gamble
from gamblesets.oracle import default_space
from gamblesets.ratlp import LEQ, LT


def test_a_weakly_positive_member_answers_over_every_set():
    # (1, 0) is weakly positive, so it settles every picking at once; the
    # answer still stands for the assessment's sets and their pickings.
    assessment = Assessment.build(AB, [gset(G1, G2), gset(g(-2, 1))])
    candidate = gset(g(1, 0))
    pickings = list(itertools.product(*(s.members for s in assessment.sets)))
    for decide in (ext_contains, ext_contains_split, ext_contains_indicator):
        answer = decide(assessment, candidate)
        assert answer.member and answer.witness_list == assessment.sets, decide
        assert list(answer.per_sequence) == pickings, decide
        assert verify_ext_answer(answer, candidate), decide


def test_the_cap_is_checked_before_a_weakly_positive_member_answers():
    # (0, 1) is weakly positive, but the four pickings still exceed a cap of 3.
    candidate = gset(g(0, 1))
    for decide in (ext_contains, ext_contains_split, ext_contains_indicator):
        with pytest.raises(CapExceeded, match="4 pickings exceed the cap of 3"):
            decide(WORKED, candidate, cap=3)
        answer = decide(WORKED, candidate, cap=4)
        assert answer.member and verify_ext_answer(answer, candidate), decide


def test_a_hull_that_disagrees_leaves_an_unrefuted_no(monkeypatch, tmp_path, capsys):
    # A hull that answers "no" to everything fails where the weak cone test
    # holds, so no kept vector refutes every test at the failed picking: the
    # walk answers "no" without refutations, and the verifier rejects it.
    monkeypatch.setattr(formulations, "_dominated_hull", lambda E, f: None)
    candidate = gset(g(2, -1))
    answer = ext_contains_split(WORKED, candidate)
    assert not answer.member and answer.failed_sequence and not answer.refutations
    assert not verify_ext_answer(answer, candidate)
    assert ext_contains(WORKED, candidate).member
    instance = {
        "schema": "desir/1",
        "omega": ["a", "b"],
        "gambles": {"g1": ["1", "-1"], "g2": ["-1", "2"], "zero": [0, 0], "q": ["2", "-1"]},
        "assessment": [["g1", "zero"], ["g2", "zero"]],
        "query": {"kind": "in-extension", "set": ["q"]},
    }
    path = tmp_path / "disagree.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    assert main(["equiv", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agree"] is False
    assert payload["formulations"] == {"direct": True, "split": False, "indicator": True}


class TestSplitFormulation:
    def test_weakly_positive_clause(self):
        empty = Assessment.build(AB, [])
        answer = ext_contains_split(empty, gset(g(1, 0)))
        assert answer.member and verify_ext_answer(answer, gset(g(1, 0)))

    def test_worked_instance(self):
        answer = ext_contains_split(WORKED, gset(g(0, 1)))
        assert answer.member and verify_ext_answer(answer, gset(g(0, 1)))

    def test_nonmember(self):
        assessment = Assessment.build(AB, [gset(G1)])
        assert not ext_contains_split(assessment, gset(g(-1, 1))).member


class TestIndicatorFormulation:
    def test_weakly_positive_clause(self):
        empty = Assessment.build(AB, [])
        answer = ext_contains_indicator(empty, gset(g(0, 1)))
        assert answer.member and verify_ext_answer(answer, gset(g(0, 1)))

    def test_worked_instance(self):
        answer = ext_contains_indicator(WORKED, gset(g(0, 1)))
        assert answer.member and verify_ext_answer(answer, gset(g(0, 1)))

    def test_nonpositive_pickings_need_no_witness(self):
        assessment = Assessment.build(AB, [gset(g(-1, -1))])
        assert ext_contains_indicator(assessment, gset()).member

    def test_nonmember(self):
        assessment = Assessment.build(AB, [gset(G1)])
        assert not ext_contains_indicator(assessment, gset(g(-1, 1))).member


def test_empty_assessment_without_a_weakly_positive_member():
    # The single empty picking neither skips nor hits.
    empty = Assessment.build(AB, [])
    candidate = gset(g(-1, 1))
    for decide in (ext_contains_split, ext_contains_indicator):
        answer = decide(empty, candidate)
        assert verify_ext_answer(answer, candidate)
        assert answer == ExtAnswer(False, (), (), ())


def test_agreement_on_the_worked_instances():
    assert formulations_agree(WORKED, gset(g(0, 1)))
    assert formulations_agree(Assessment.build(AB, [gset(G1)]), gset(g(-1, 1)))
    assert formulations_agree(Assessment.build(AB, []), gset(g(1, 0)))


def test_agreement_on_seeded_instances():
    # The walk and the split and indicator formulations each agree with weak
    # exhaustive search on the extension run, so with each other
    # (differential.extension_check).
    faults, _ = tier1_run(extension_check)
    assert [why for name in ("weak", "split", "indicator") for why in tagged(faults, name)] == []


def _fm_some_nonpositive_member(gens) -> bool:
    """Elimination check: the picking's cone meets the nonpositive orthant.

    Variables are the coefficients plus the member's entries; the member must
    dominate the combination, stay nonpositive, and use a positive total.
    """
    k = len(gens)
    if k == 0:
        return False
    space = gens[0].space
    m = space.size
    width = k + m
    rows = []
    for j in range(k):
        rows.append(
            ([Fraction(-1) if i == j else Fraction(0) for i in range(width)], LEQ, Fraction(0))
        )
    for i in range(m):
        coeffs = [gens[j].values[i] for j in range(k)]
        coeffs += [Fraction(-1) if t == i else Fraction(0) for t in range(m)]
        rows.append((coeffs, LEQ, Fraction(0)))  # combination <= member entry
    for i in range(m):
        coeffs = [Fraction(0)] * k
        coeffs += [Fraction(1) if t == i else Fraction(0) for t in range(m)]
        rows.append((coeffs, LEQ, Fraction(0)))  # member entry <= 0
    rows.append(([Fraction(-1)] * k + [Fraction(0)] * m, LT, Fraction(0)))
    return fm_feasible(rows)


def test_nonpositive_witnesses_reduce_to_zero_membership():
    rng = random.Random(5150)
    for _ in range(100):
        space = default_space(rng.randint(1, 3))
        gens = tuple(random_gamble(rng, space, 2) for _ in range(rng.randint(1, 3)))
        assert _fm_some_nonpositive_member(gens) == fm_zero_in_desext(gens)
