import itertools
import json

import pytest

from conftest import AB, G1, G2, WORKED, g, gset
from differential import cone_check, extension_check, tagged, tier1_run
from gamblesets import (
    Assessment,
    CapExceeded,
    ExtAnswer,
    ext_contains,
    ext_contains_indicator,
    ext_contains_split,
    formulations_agree,
    verify_ext_answer,
)
from gamblesets import formulations
from gamblesets.cli import main


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


def test_nonpositive_witnesses_reduce_to_zero_membership():
    # A cone meets the nonpositive orthant exactly when 0 is in its
    # desirable extension, both by elimination, over 1-3 generators from
    # [-2, 2] on 1-3 atoms (differential.cone_check).
    faults, counts = tier1_run(cone_check)
    assert tagged(faults, "nonpositive") == [] and counts["laws"]["nonpositive"] >= 100
