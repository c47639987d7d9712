import pytest

from conftest import AB, G1, WORKED, g, gset
from differential import extension_check, tagged, tier1_run
from gamblesets import (
    Assessment,
    InstanceGenConfig,
    brute_ext_contains,
    ext_contains,
    gen_instance,
)
from gamblesets.oracle import BruteCapExceeded


def test_brute_force_on_the_worked_instance():
    assert brute_ext_contains(WORKED, gset(g(0, 1)))


def test_brute_force_nonmember():
    assessment = Assessment.build(AB, [gset(G1)])
    assert not brute_ext_contains(assessment, gset(g(-1, 1)))


def test_brute_force_empty_assessment_branch():
    empty = Assessment.build(AB, [])
    assert brute_ext_contains(empty, gset(g(1, 0)))
    assert not brute_ext_contains(empty, gset(g(-1, 1)))
    # The strict background needs a strictly positive member.
    assert not brute_ext_contains(empty, gset(g(1, 0)), strict=True)
    assert brute_ext_contains(empty, gset(g(1, 0), g(1, 1)), strict=True)


def test_brute_force_cap():
    with pytest.raises(BruteCapExceeded):
        brute_ext_contains(WORKED, gset(g(0, 1)), cap=1)


def test_brute_force_default_depth_on_five_sets_of_three():
    # A non-member: every list up to one past the number of sets is tried.
    assessment, candidate = gen_instance(
        InstanceGenConfig(seed=7, omega_size=2, num_sets=5, set_size=3)
    )
    assert [len(s.members) for s in assessment.sets] == [3] * 5
    assert not ext_contains(assessment, candidate).member
    assert not brute_ext_contains(assessment, candidate)


def test_full_list_decision_matches_exhaustive_search():
    # The engine's walk, weak and strict, against exhaustive search in its
    # mode on every query of the extension run (differential.extension_check).
    faults, counts = tier1_run(extension_check)
    assert tagged(faults, "weak") == [] and tagged(faults, "strict") == []
    assert counts["deep"] > 0


def test_generation_is_deterministic():
    cfg = InstanceGenConfig(seed=42, omega_size=3, num_sets=2, set_size=2, coeff_range=2)
    first = gen_instance(cfg)
    second = gen_instance(cfg)
    assert first == second
    other = gen_instance(InstanceGenConfig(seed=43, omega_size=3, num_sets=2, set_size=2, coeff_range=2))
    assert other != first


def test_generation_respects_bounds():
    cfg = InstanceGenConfig(seed=5, omega_size=2, num_sets=3, set_size=1, coeff_range=1)
    assessment, candidate = gen_instance(cfg)
    assert assessment.space.size == 2
    assert len(assessment.sets) <= 3
    for s in list(assessment.sets) + [candidate]:
        assert len(s.members) == 1
        for member in s.members:
            assert all(abs(v) <= 1 for v in member.values)


def test_config_validation():
    with pytest.raises(ValueError):
        InstanceGenConfig(seed=0, omega_size=0)
    with pytest.raises(ValueError):
        InstanceGenConfig(seed=0, set_size=-1)
