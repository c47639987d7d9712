from fractions import Fraction

import pytest

from conftest import AB, g, gset, space_of
from differential import gamble_check, tagged, tier1_run
from gamblesets import (
    Assessment,
    ConeGenerators,
    DFamilySpec,
    DimensionMismatch,
    FinGenD,
    Gamble,
    KAddInstance,
    PossibilitySpace,
    addpair_derive,
    closure_holds,
    ext_contains_indicator,
    ext_contains_split,
    fm_feasible,
    gamble,
    geq,
    gt,
    in_cone_geq0,
    in_cone_gt0,
    in_cone_wd0,
    indicator,
    k_family_contains,
    kd_contains,
    rational,
    scale,
    wgeq,
    zero,
)
from gamblesets.extension import GambleSet
from gamblesets.gambles import combination, substitute


def test_componentwise_order_examples():
    assert geq(g(1, 0), g(1, 0))
    assert geq(g(2, 1), g(1, 1))
    assert not geq(g(1, -1), g(0, 0))


def test_strict_dominance_examples():
    assert gt(g(2, 1), g(1, 0))
    assert not gt(g(1, 0), g(0, 0))
    assert not gt(g(0, 0), g(0, 0))


def test_weak_dominance_examples():
    assert wgeq(g(1, 0), g(0, 0))
    assert not wgeq(g(0, 0), g(0, 0))
    assert not wgeq(g(1, -1), g(0, 0))


def test_zero_cone_classification():
    assert in_cone_wd0(g(0, 1)) and not in_cone_gt0(g(0, 1))
    assert in_cone_gt0(g(1, 1))
    z = zero(AB)
    assert in_cone_geq0(z) and not in_cone_wd0(z) and not in_cone_gt0(z)


def test_vector_operations():
    assert g(1, -1) + g(-1, 2) == g(0, 1)
    assert scale(2, g(1, 0)) == g(2, 0)
    assert indicator(AB, "b") == g(0, 1)
    with pytest.raises(ValueError):
        scale(0, g(1, 0))
    with pytest.raises(ValueError):
        scale(-1, g(1, 0))
    with pytest.raises(ValueError):
        indicator(AB, "nope")


def test_dimension_mismatch_raises():
    other = PossibilitySpace(("x",))
    with pytest.raises(DimensionMismatch):
        geq(g(1, 0), gamble(other, [1]))
    with pytest.raises(DimensionMismatch):
        Gamble(AB, (Fraction(1),))


def test_space_validation():
    with pytest.raises(ValueError):
        PossibilitySpace(())
    with pytest.raises(ValueError):
        PossibilitySpace(("a", "a"))
    # A label that is not a string is reported as such, even unhashable.
    for labels in ((["a"], "b"), ("a", 5), ("a", "")):
        with pytest.raises(ValueError, match="nonempty strings"):
            PossibilitySpace(labels)


def test_serialization_round_trip():
    f = gamble(AB, ["-17/10", "4/5"])
    assert f.serialized() == ["-17/10", "4/5"]
    assert gamble(AB, f.serialized()) == f


def test_a_combination_refuses_a_gamble_from_another_space():
    # substitute's own guard, not a caller's, rejects the foreign gamble.
    other = gamble(PossibilitySpace(("x", "y")), [1, 2])
    with pytest.raises(DimensionMismatch):
        substitute((1,), (other,), AB)
    with pytest.raises(DimensionMismatch):
        combination((1, 1), (g(1, 0), other), AB)
    assert substitute((1,), (gamble(space_of(2), [1, 2]),), AB) == (1, [1, 2])


def test_floats_rejected():
    with pytest.raises(TypeError):
        gamble(AB, [0.5, 1])


def test_orders_are_consistent():
    # Strict dominance implies weak dominance, which implies dominance and is
    # dominance one way only, on the gamble run's draws over 1-3 atoms
    # (differential.gamble_check).
    faults, counts = tier1_run(gamble_check)
    assert tagged(faults, "orders") == [] and counts["draws"] >= 60 and counts["dominating"] > 0


def test_weak_positivity_matches_weak_dominance_of_zero():
    faults, counts = tier1_run(gamble_check)
    assert tagged(faults, "positivity") == [] and counts["positive"] > 0


def test_addition_and_scaling_preserve_dimension():
    faults, counts = tier1_run(gamble_check)
    assert tagged(faults, "arithmetic") == [] and counts["draws"] >= 60


def test_integer_directions_keep_the_sign_of_dot_products():
    # Each direction is a tuple of ints, computed once, and the dot product
    # of two directions has the sign of that of the values.
    faults, counts = tier1_run(gamble_check)
    assert tagged(faults, "directions") == [] and counts["draws"] >= 60
    assert gamble(AB, ["-17/10", "4/5"]).direction == (-17, 8)


def test_every_construction_gives_the_one_integer_form():
    # A gamble is its integer direction over the least common denominator,
    # however it was made: from ints, from "n/d" strings in any terms, from
    # Fractions, as a combination, or as a copy or a pickle; entries from
    # [-20, 20] over 1-30.
    faults, counts = tier1_run(gamble_check)
    assert tagged(faults, "forms") == [] and counts["draws"] >= 60


def test_an_integer_entry_stays_an_integer():
    f = Gamble(AB, (3, -4))
    assert (f.denominator, f.direction) == (1, (3, -4))
    assert type(f.direction[0]) is int and f == gamble(AB, ["3", "-4"])


def test_a_gamble_set_is_in_the_order_of_its_entries():
    # The canonical order of a gamble set is the lexicographic order of the
    # entries as rationals, whatever form the gambles were built from.
    faults, counts = tier1_run(gamble_check)
    assert tagged(faults, "order") == [] and counts["draws"] >= 60


# A gamble set over three atoms, which no function over AB accepts.
ELSEWHERE = GambleSet.build(space_of(3), [gamble(space_of(3), (1, 0, 0))])
# Input that the library refuses before it decides anything: the call, the
# exception type, and its message.
LIBRARY_ERRORS = [
    pytest.param(lambda: ConeGenerators.build(AB, ELSEWHERE.members), DimensionMismatch,
                 "generator from a different space", id="cone-generator"),
    pytest.param(lambda: GambleSet.build(AB, ELSEWHERE.members), DimensionMismatch,
                 "gamble set member from a different space", id="set-member"),
    pytest.param(lambda: Assessment.build(AB, [ELSEWHERE]), DimensionMismatch,
                 "assessment set from a different space", id="assessment-set"),
    pytest.param(lambda: closure_holds([gset(g(1, 0)), ELSEWHERE], gset(g(1, 0))),
                 DimensionMismatch, "gamble sets live on different spaces", id="closure-sets"),
    pytest.param(lambda: ext_contains_split(Assessment.build(AB, [gset(g(1, 0))]), ELSEWHERE),
                 DimensionMismatch, "queried set lives on a different space", id="split"),
    pytest.param(lambda: ext_contains_indicator(Assessment.build(AB, []), ELSEWHERE),
                 DimensionMismatch, "queried set lives on a different space", id="indicator"),
    pytest.param(lambda: DFamilySpec((gset(g(1, 0)), ELSEWHERE)), DimensionMismatch,
                 "family sets live on different spaces", id="family-sets"),
    pytest.param(lambda: kd_contains(FinGenD(ConeGenerators.build(AB, [g(1, 0)])), ELSEWHERE),
                 DimensionMismatch, "queried set lives on a different space", id="cone-query"),
    pytest.param(lambda: k_family_contains(DFamilySpec((gset(g(1, 0)),)), ELSEWHERE),
                 DimensionMismatch, "queried set lives on a different space", id="family-query"),
    pytest.param(lambda: combination((1,), (), AB), ValueError,
                 "coefficient and gamble counts differ", id="combination"),
    pytest.param(lambda: rational([1]), TypeError, "cannot interpret list as a rational",
                 id="rational"),
    pytest.param(lambda: fm_feasible([([1], ">=", 0)]), ValueError,
                 "unsupported relation '>='", id="relation"),
    pytest.param(lambda: addpair_derive([], {}), ValueError, "need at least one gamble set",
                 id="addition-sets"),
    pytest.param(lambda: addpair_derive([gset(g(1, 0)), ELSEWHERE], {}), DimensionMismatch,
                 "gamble sets live on different spaces", id="addition-spaces"),
    pytest.param(lambda: addpair_derive([gset()], {}), ValueError,
                 "addition over an empty gamble set is vacuous", id="addition-empty"),
    pytest.param(
        lambda: KAddInstance((gset(g(1, 0)),), {(g(1, 0),): g(2, 0)}, gset(g(3, 0))).validate(),
        ValueError, "conclusion is not the image of the combination map", id="conclusion",
    ),
]


@pytest.mark.parametrize("call, error, message", LIBRARY_ERRORS)
def test_malformed_input_raises_its_error(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
