import random

from conftest import AB, axiom_sets, g, gset, seeded_assessment
from gamblesets import Assessment, ext_contains, is_consistent
from gamblesets.oracle import default_space


def test_zero_removal_on_a_singleton_assessment():
    assessment = Assessment.build(AB, [gset(g(1, -1))])
    for s in axiom_sets(assessment, "drop-zero", seed=7, trials=10):
        assert ext_contains(assessment, s).member, s.serialized()


def test_weak_positive_singletons_always_belong():
    assessment = Assessment.build(AB, [gset(g(0, 1))])
    assert ext_contains(assessment, gset(g(1, 0))).member
    for s in axiom_sets(assessment, "weak-positive", seed=7, trials=10):
        assert ext_contains(assessment, s).member, s.serialized()


def test_pairwise_addition_image_belongs():
    base = gset(g(1, -1), g(-1, 2))
    assessment = Assessment.build(AB, [base])
    conclusion = gset(g(2, -2), g(0, 1), g(-2, 4))
    assert ext_contains(assessment, conclusion).member
    for s in axiom_sets(assessment, "addition", seed=7, trials=10):
        assert ext_contains(assessment, s).member, s.serialized()


def test_all_axioms_hold_on_seeded_assessments():
    rng = random.Random(6021)
    found = 0
    while found < 6:
        space = default_space(rng.randint(1, 3))
        assessment = seeded_assessment(rng, space, 3, 3, 2)
        if not is_consistent(assessment):
            continue
        found += 1
        for axiom in ("no-empty-set", "drop-zero", "weak-positive", "superset", "dominators",
                      "addition"):
            for s in axiom_sets(assessment, axiom, seed=found, trials=6):
                member = ext_contains(assessment, s).member
                assert member is (axiom != "no-empty-set"), (axiom, s.serialized())
