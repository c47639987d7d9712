from conftest import AB, g, gset
from differential import axiom_check, axiom_sets, tier1_run
from gamblesets import Assessment, ext_contains


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
    # 100 consistent assessments, each axiom drawn 20 times on each
    # (differential.axiom_check).
    faults, _ = tier1_run(axiom_check)
    assert faults == []
