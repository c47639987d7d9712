import pytest

from conftest import AB, G1, G2, Z, g, gset
from differential import TIER1, family_contains, representation_check, tagged, tier1_run
from gamblesets import (
    Assessment,
    ConeGenerators,
    DFamilySpec,
    ExtAnswer,
    FinGenD,
    ext_contains,
    extension,
    k_family_contains,
    kd_contains,
)
from gamblesets.gambles import combination


def cone_d(*gambles) -> FinGenD:
    return FinGenD(ConeGenerators.build(AB, gambles))


class TestConeAcceptance:
    def test_examples(self):
        D = cone_d(G1)
        assert kd_contains(D, gset(g(1, 0)))
        assert not kd_contains(D, gset(g(-1, 0)))
        assert kd_contains(D, gset(g(1, 1)))

    def test_incoherent_generators_rejected(self):
        with pytest.raises(ValueError):
            cone_d(g(-1, -1))


class TestFamilyMembership:
    def test_cone_generated_by_the_picking_itself(self):
        assert family_contains(DFamilySpec((gset(G1),)), cone_d(G1))

    def test_only_inconsistent_pickings(self):
        fam = DFamilySpec((gset(g(-1, -1)),))
        assert not family_contains(fam, cone_d(G1))

    def test_membership_via_one_consistent_picking(self):
        fam = DFamilySpec((gset(G1, G2),))
        assert family_contains(fam, cone_d(G2))

    def test_needs_a_set(self):
        with pytest.raises(ValueError):
            DFamilySpec(())


class TestFamilyAcceptance:
    def test_worked_instance(self):
        fam = DFamilySpec((gset(G1, Z), gset(G2, Z)))
        assert k_family_contains(fam, gset(g(0, 1)))

    def test_scaling(self):
        assert k_family_contains(DFamilySpec((gset(g(0, 1)),)), gset(g(0, 2)))

    def test_nonmember(self):
        assert not k_family_contains(DFamilySpec((gset(G1),)), gset(g(-1, 1)))


def test_agreement_examples():
    for sets, candidate, member in (
        ([gset(G1, Z), gset(G2, Z)], gset(g(0, 1)), True),
        ([gset(g(0, 1))], gset(g(0, 2)), True),
        ([gset(G1)], gset(g(-1, 1)), False),
    ):
        assessment = Assessment.build(AB, sets)
        assert k_family_contains(DFamilySpec(assessment.sets), candidate) is member
        assert ext_contains(assessment, candidate).member is member


def test_agreement_on_seeded_assessments():
    # The cone-family verdict against extension membership on 200 consistent
    # assessments (differential.representation_check).
    faults, counts = tier1_run(representation_check)
    assert tagged(faults, "repr") == [] and counts["compared"] == 200


def test_agreement_is_not_a_self_comparison(monkeypatch):
    # Flip the extension driver's verdict on nonempty candidates (consistency
    # queries stay honest): the family evaluation must not follow it.
    original = extension.settle_pickings

    def flipped(space, sets, candidate, *args, **kwargs):
        answer = original(space, sets, candidate, *args, **kwargs)
        if not candidate.members:
            return answer
        return ExtAnswer(not answer.member, *(getattr(answer, f) for f in answer._fields[1:]))

    monkeypatch.setattr(extension, "settle_pickings", flipped)
    for sets, candidate in (
        ([gset(G1, Z), gset(G2, Z)], gset(g(0, 1))),
        ([gset(G1)], gset(g(-1, 1))),
    ):
        assessment = Assessment.build(AB, sets)
        family = k_family_contains(DFamilySpec(assessment.sets), candidate)
        assert family != ext_contains(assessment, candidate).member


def test_family_membership_is_monotone_in_the_cone():
    # A cone of the family with one more generator, still coherent, is in
    # the family too (differential.representation_check).
    faults, _ = tier1_run(representation_check)
    assert tagged(faults, "upward") == [] and TIER1[representation_check][1] // 2 >= 30


def test_family_acceptance_matches_quantification_over_cones():
    # Sound direction, on sampled cones of the family: each accepts what the
    # family accepts. Converse: where the family rejects, some picking's own
    # hull is a cone of the family that rejects too.
    faults, _ = tier1_run(representation_check)
    assert tagged(faults, "sound") == [] and tagged(faults, "converse") == []
    assert TIER1[representation_check][1] // 2 >= 40


def test_concatenation_shrinks_families():
    # A cone in the family of a concatenation is in the family of each half.
    fam1 = DFamilySpec((gset(G1),))
    fam2 = DFamilySpec((gset(G2),))
    D = cone_d(G1, G2)
    assert family_contains(DFamilySpec(fam1.sets + fam2.sets), D)
    assert family_contains(fam1, D) and family_contains(fam2, D)

    assert family_contains(DFamilySpec(fam1.sets + fam1.sets), cone_d(G1))
    assert family_contains(fam1, cone_d(G1))

    # Only inconsistent pickings: the concatenation's family is empty.
    dead = DFamilySpec((gset(g(-1, -1)),))
    assert not family_contains(DFamilySpec(fam1.sets + dead.sets), cone_d(G1))


def test_concatenation_shrinks_families_on_seeded_triples():
    # The downward closure of cone families on the representation run's 100
    # triples of two families and a coherent cone.
    faults, counts = tier1_run(representation_check)
    assert tagged(faults, "downward") == [] and counts["triples"] == 100
    # The closure was asked of cones in the concatenation's family.
    assert counts["closed"] >= 5


def test_cone_acceptance_is_closed_under_addition():
    # Every combination of G1 with itself is a positive multiple of G1.
    D = cone_d(G1)
    assert kd_contains(D, gset(G1))
    for weights in ((1, 0), (0, 2), (1, 1), (2, 1)):
        assert kd_contains(D, gset(combination(weights, (G1, G1), AB)))
    # When the cones of (1, -1) and of (-1, 2) accept every one of 1-3
    # sampled sets, both accept their combination
    # (differential.representation_check).
    faults, _ = tier1_run(representation_check)
    assert tagged(faults, "addition") == [] and TIER1[representation_check][1] // 2 >= 30
