import itertools
import random
from fractions import Fraction

import pytest

from conftest import AB, G1, G2, Z, g, gset
from differential import coherent_cone, family_contains, representation_check, tagged, tier1_run
from gamblesets import (
    Assessment,
    ConeGenerators,
    DFamilySpec,
    ExtAnswer,
    FinGenD,
    GambleSet,
    KAddInstance,
    d_coherent,
    ext_contains,
    extension,
    k_family_contains,
    kd_contains,
    zero_in_desext,
)
from gamblesets.gambles import combination, random_gamble
from gamblesets.oracle import default_space, random_gamble_set


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
    rng = random.Random(846)
    checked = 0
    while checked < 30:
        space = default_space(rng.randint(1, 3))
        fam = DFamilySpec(
            tuple(
                random_gamble_set(rng, space, rng.randint(1, 2), 2)
                for _ in range(rng.randint(1, 2))
            )
        )
        if any(s.is_empty for s in fam.sets):
            continue
        D = coherent_cone(rng, space)
        wider_gens = ConeGenerators.build(
            space, tuple(D.generators.generators) + (random_gamble(rng, space, 2),)
        )
        if not d_coherent(wider_gens):
            continue
        checked += 1
        if family_contains(fam, D):
            assert family_contains(fam, FinGenD(wider_gens))


def test_family_acceptance_matches_quantification_over_cones():
    rng = random.Random(272727)
    for _ in range(40):
        space = default_space(rng.randint(1, 2))
        fam = DFamilySpec(
            tuple(
                random_gamble_set(rng, space, rng.randint(1, 2), 2)
                for _ in range(rng.randint(1, 2))
            )
        )
        if any(s.is_empty for s in fam.sets):
            continue
        candidate = random_gamble_set(rng, space, rng.randint(0, 2), 2)
        accepted = k_family_contains(fam, candidate)
        if accepted:
            # sound direction, on sampled family members
            for _ in range(4):
                D = coherent_cone(rng, space)
                if family_contains(fam, D):
                    assert kd_contains(D, candidate)
        else:
            # converse direction: some picking's own hull is the refuter
            refuted = False
            for seq in itertools.product(*(s.members for s in fam.sets)):
                E = ConeGenerators.build(space, seq)
                if zero_in_desext(E) is None:
                    D = FinGenD(E)
                    if not kd_contains(D, candidate):
                        assert family_contains(fam, D)
                        refuted = True
                        break
            assert refuted


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
    assert tagged(faults, "closure") == [] and counts["triples"] == 100
    # The closure was asked of cones in the concatenation's family.
    assert counts["closed"] >= 5


def _addition_instance(rng, space, sets) -> KAddInstance:
    comb = {}
    for seq in itertools.product(*(s.members for s in sets)):
        while True:
            coeffs = tuple(Fraction(rng.randint(0, 2)) for _ in seq)
            if any(coeffs):
                break
        comb[seq] = combination(coeffs, seq, space)
    conclusion = GambleSet.build(space, comb.values())
    return KAddInstance(tuple(sets), comb, conclusion)


def _closed_under_addition(cones, instance: KAddInstance) -> bool:
    """When every cone accepts every premise set, every cone accepts the
    combined set."""
    premises = all(kd_contains(D, A) for D in cones for A in instance.sets)
    return not premises or all(kd_contains(D, instance.conclusion) for D in cones)


def test_cone_acceptance_is_closed_under_addition():
    # Every combination of G1 with itself is a positive multiple of G1.
    rng = random.Random(112)
    base = _addition_instance(
        rng, AB, [gset(G1), gset(G1)]
    )
    assert all(kd_contains(cone_d(G1), A) for A in (*base.sets, base.conclusion))

    combined = KAddInstance(
        (gset(G1), gset(G1)),
        {(G1, G1): g(2, -2)},
        gset(g(2, -2)),
    )
    assert kd_contains(cone_d(G1), gset(G1)) and _closed_under_addition([cone_d(G1)], combined)

    rng = random.Random(113)
    d_list = [cone_d(G1), cone_d(G2)]
    for _ in range(30):
        sets = [random_gamble_set(rng, AB, rng.randint(1, 2), 2) for _ in range(rng.randint(1, 3))]
        if any(s.is_empty for s in sets):
            continue
        instance = _addition_instance(rng, AB, sets)
        assert _closed_under_addition(d_list, instance), instance.conclusion.serialized()
