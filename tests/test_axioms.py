import random

import pytest

from conftest import AB, g, gset, seeded_assessment
from gamblesets import (
    AXIOMS,
    Assessment,
    InconsistentAssessment,
    check_axiom,
    ext_contains,
    is_consistent,
)
from gamblesets.oracle import default_space


def test_zero_removal_on_a_singleton_assessment():
    assessment = Assessment.build(AB, [gset(g(1, -1))])
    report = check_axiom(assessment, "drop-zero", rng_seed=7, trials=10)
    assert report.passed, report.counterexamples


def test_weak_positive_singletons_always_belong():
    assessment = Assessment.build(AB, [gset(g(0, 1))])
    assert ext_contains(assessment, gset(g(1, 0))).member
    report = check_axiom(assessment, "weak-positive", rng_seed=7, trials=10)
    assert report.passed


def test_pairwise_addition_image_belongs():
    base = gset(g(1, -1), g(-1, 2))
    assessment = Assessment.build(AB, [base])
    conclusion = gset(g(2, -2), g(0, 1), g(-2, 4))
    assert ext_contains(assessment, conclusion).member
    report = check_axiom(assessment, "addition", rng_seed=7, trials=10)
    assert report.passed


def test_inconsistent_assessments_are_rejected():
    bad = Assessment.build(AB, [gset(g(-1, -1))])
    with pytest.raises(InconsistentAssessment):
        check_axiom(bad, "superset", rng_seed=0)


def test_unknown_axiom_name():
    with pytest.raises(ValueError):
        check_axiom(Assessment.build(AB, []), "mystery", rng_seed=0)


def test_all_axioms_hold_on_seeded_assessments():
    rng = random.Random(6021)
    found = 0
    while found < 6:
        space = default_space(rng.randint(1, 3))
        assessment = seeded_assessment(rng, space, 3, 3, 2)
        if not is_consistent(assessment):
            continue
        found += 1
        for axiom in AXIOMS:
            report = check_axiom(assessment, axiom, rng_seed=found, trials=6)
            assert report.passed, (axiom, report.counterexamples)
