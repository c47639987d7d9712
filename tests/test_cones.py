import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import AB, g, gambles_on, space_of, space_with_gambles, spaces
from differential import (
    ONE_GENERATOR_SHAPES,
    TIER1,
    cone_check,
    cone_disagreements,
    lp_programs,
    tagged,
    tier1_run,
)
from gamblesets import (
    Certificate,
    ConeGenerators,
    DimensionMismatch,
    PossibilitySpace,
    certificate_valid,
    certificate_valid_strict,
    d_coherent,
    desext_contains,
    desext_contains_strict,
    fm_desext_contains_strict,
    fm_posi_contains,
    fm_zero_in_desext,
    gamble,
    indicator,
    lp_solve,
    posi_contains,
    scale,
    zero,
    zero_in_desext,
    zero_in_desext_strict,
)
from gamblesets import cones
from gamblesets.cones import Refutation, desext_refutation
from gamblesets.gambles import combination, direction
from gamblesets.oracle import default_space
from gamblesets.ratlp import LEQ


def cone(*gambles):
    return ConeGenerators.build(AB, gambles)


FIGURE_PAIR = (gamble(AB, ["-17/10", "4/5"]), gamble(AB, ["1", "-11/10"]))


class TestPosiContains:
    def test_coordinate_cone(self):
        cert = posi_contains(cone(g(1, 0), g(0, 1)), g(2, 3))
        assert cert is not None
        assert cert.lambdas == (Fraction(2), Fraction(3))
        assert cert.remainder == zero(AB)

    def test_empty_hull_is_empty(self):
        assert posi_contains(cone(), g(1, 1)) is None
        assert posi_contains(cone(), zero(AB)) is None

    def test_two_generator_combination(self):
        E = cone(g(1, -1), g(-1, 2))
        f = g(0, 1)
        # cross-checked against the elimination oracle
        assert fm_posi_contains(E.generators, f)
        cert = posi_contains(E, f)
        assert cert.lambdas == (Fraction(1), Fraction(1))
        assert certificate_valid(cert, E, f)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            posi_contains(cone(g(1, 0)), gamble(space_of(1), [1]))


class TestDesextContains:
    def test_background_alone(self):
        cert = desext_contains(cone(), g(1, 0))
        assert cert is not None and certificate_valid(cert, cone(), g(1, 0))
        assert desext_contains(cone(), g(-1, 1)) is None

    def test_dominating_a_generator(self):
        E = cone(g(1, -1))
        f = g(1, 0)
        cert = desext_contains(E, f)
        assert cert is not None and certificate_valid(cert, E, f)

    def test_zero_against_the_figure_pair(self):
        E = ConeGenerators.build(AB, FIGURE_PAIR)
        cert = desext_contains(E, zero(AB))
        assert cert is not None and certificate_valid(cert, E, zero(AB))
        # substitution of equal weights lands at (-7/10, -3/10) <= 0
        s = FIGURE_PAIR[0] + FIGURE_PAIR[1]
        assert s.values == (Fraction(-7, 10), Fraction(-3, 10))


class TestZeroInDesext:
    def test_pointed_cone_excludes_zero(self):
        assert zero_in_desext(cone(g(1, -1), g(-1, 2))) is None
        assert not fm_zero_in_desext((g(1, -1), g(-1, 2)))

    def test_nonpositive_generator(self):
        cert = zero_in_desext(cone(g(-1, -1)))
        assert cert.lambdas == (Fraction(1),)
        assert certificate_valid(cert, cone(g(-1, -1)), zero(AB))

    def test_figure_pair_collapses(self):
        E = ConeGenerators.build(AB, FIGURE_PAIR)
        assert fm_zero_in_desext(FIGURE_PAIR)
        cert = zero_in_desext(E)
        # an extreme ray of {E lambda <= 0}: 11 a1 + 8 c2 = (-107/10, 0)
        assert cert.lambdas == (Fraction(11), Fraction(8))
        assert cert.remainder == gamble(AB, ["107/10", "0"])
        assert certificate_valid(cert, E, zero(AB))

    def test_empty_generators(self):
        assert zero_in_desext(cone()) is None


class TestCoherence:
    def test_examples(self):
        assert d_coherent(cone(g(1, -1)))
        assert not d_coherent(cone(g(-1, -1)))
        assert d_coherent(cone())

    def test_zero_generator_breaks_coherence(self):
        assert not d_coherent(cone(zero(AB)))


class TestStrictMembership:
    def test_strictly_positive_gamble(self):
        cert = desext_contains_strict(cone(), g(1, 1))
        assert cert is not None and certificate_valid_strict(cert, cone(), g(1, 1))
        assert desext_contains_strict(cone(), g(1, 0)) is None

    def test_exact_combination_branch(self):
        E = cone(g(1, -1))
        cert = desext_contains_strict(E, g(1, -1))
        assert cert is not None
        assert cert.remainder == zero(AB)
        assert certificate_valid_strict(cert, E, g(1, -1))

    def test_uniform_slack_branch(self):
        E = cone(g(1, -1))
        f = g(1, 0)
        assert fm_desext_contains_strict(E.generators, f)
        cert = desext_contains_strict(E, f)
        assert cert is not None and certificate_valid_strict(cert, E, f)
        assert sum(cert.lambdas) > 0

    def test_infeasible_mixed_program_settles_with_one_lp(self):
        # No lambda >= 0 has lambda_1 (1, 0) + lambda_2 (0, 1) <= (-1, -1),
        # so none reaches it exactly either: the mixed program's
        # infeasibility alone says "no".
        E = cone(g(1, 0), g(0, 1))
        with lp_programs() as programs:
            assert desext_contains_strict(E, g(-1, -1)) is None
        assert len(programs) == 1
        assert not fm_desext_contains_strict(E.generators, g(-1, -1))

    def test_a_positive_slack_settles_with_the_mixed_lp(self):
        # (1, 0) = (1, -1) + (0, 1), but (1/2, 1/2) below it already leaves
        # the uniform slack 1/2: the mixed LP's certificate is the answer.
        E, f = cone(g(1, -1), g(0, 1)), g(1, 0)
        with lp_programs() as programs:
            cert = desext_contains_strict(E, f)
        (mixed,) = programs
        assert lp_solve(mixed).value == Fraction(1, 2)
        assert all(v > 0 for v in cert.remainder.values)
        assert certificate_valid_strict(cert, E, f)

    def test_a_zero_slack_asks_the_exact_lp(self):
        # Every combination below 0 of (1, -1) and (-1, 1) is 0 itself, so
        # the mixed optimum is t = 0 and the exact LP certifies 0.
        E = cone(g(1, -1), g(-1, 1))
        with lp_programs() as programs:
            cert = zero_in_desext_strict(E)
        mixed, exact = programs
        assert lp_solve(mixed).value == 0
        # E lambda = 0, stored as E lambda <= 0 and -sum(E lambda) <= 0.
        assert exact.constraints == (((1, -1), LEQ, 0), ((-1, 1), LEQ, 0), ((0, 0), LEQ, 0))
        assert cert.remainder == zero(AB) and cert.lambdas == (Fraction(1, 2),) * 2
        assert certificate_valid_strict(cert, E, zero(AB))

    def test_small_total_witness(self):
        # A membership whose strict witnesses all have coefficient sum
        # below one; the decision must not normalize the sum away.
        E = cone(g(2, -2))
        f = gamble(AB, ["1", "-1/2"])
        assert fm_desext_contains_strict(E.generators, f)
        cert = desext_contains_strict(E, f)
        assert cert is not None and certificate_valid_strict(cert, E, f)


@given(space_with_gambles(4))
def test_every_yes_answer_carries_a_valid_certificate(data):
    # The judge checks each certificate, and each answer against elimination.
    space, gs = data
    assert not cone_disagreements(ConeGenerators.build(space, gs[:3]), gs[3])


@given(space_with_gambles(5))
def test_membership_is_monotone_in_generators(data):
    space, gs = data
    small = ConeGenerators.build(space, gs[:2])
    large = ConeGenerators.build(space, gs[:4])
    f = gs[4]
    if desext_contains(small, f) is not None:
        assert desext_contains(large, f) is not None
    if zero_in_desext(small) is not None:
        assert zero_in_desext(large) is not None


@given(space_with_gambles(3))
def test_membership_is_scale_invariant(data):
    space, gs = data
    E = ConeGenerators.build(space, gs[:2])
    f = gs[2]
    for factor in (Fraction(1, 3), Fraction(5, 2)):
        assert (desext_contains(E, f) is not None) == (
            desext_contains(E, scale(factor, f)) is not None
        )


@given(space_with_gambles(4))
def test_members_add(data):
    space, gs = data
    E = ConeGenerators.build(space, gs[:2])
    f, h = gs[2], gs[3]
    if desext_contains(E, f) is not None and desext_contains(E, h) is not None:
        assert desext_contains(E, f + h) is not None


@given(space_with_gambles(3))
def test_background_equals_indicator_augmentation(data):
    space, gs = data
    E = ConeGenerators.build(space, gs[:2])
    f = gs[2]
    augmented = ConeGenerators.build(
        space, tuple(E.generators) + tuple(indicator(space, a) for a in space.labels)
    )
    assert (desext_contains(E, f) is not None) == (
        posi_contains(augmented, f) is not None
    )


@given(space_with_gambles(3))
def test_strict_membership_implies_weak(data):
    space, gs = data
    E = ConeGenerators.build(space, gs[:2])
    f = gs[2]
    if desext_contains_strict(E, f) is not None:
        assert desext_contains(E, f) is not None


def test_engine_matches_elimination_oracle_on_seeded_instances():
    # Every cone test against elimination, and each strict member a weak
    # member (differential.cone_check).
    faults, counts = tier1_run(cone_check)
    assert faults == []
    # The judge read the refutation of every weak "no" over generators.
    assert counts["refuted"] > 0


def test_certificate_reconstruction_is_checked():
    E = cone(g(1, 0))
    bogus = Certificate((Fraction(1),), g(5, 5))
    assert not certificate_valid(bogus, E, g(1, 0))


def test_a_remainder_or_gamble_on_another_space_is_invalid_not_an_error():
    E = cone(g(1, 0))
    honest = Certificate((Fraction(1),), g(0, 1))
    assert certificate_valid(honest, E, g(1, 1))
    # Same size with other labels, and another size.
    for other in (PossibilitySpace(("x", "y")), space_of(3)):
        moved = gamble(other, (0, 1) + (0,) * (other.size - 2))
        for valid in (certificate_valid, certificate_valid_strict):
            assert not valid(Certificate((Fraction(1),), moved), E, g(1, 1))
            assert not valid(honest, E, gamble(other, (1,) * other.size))


# Denominators up to 13, so the coefficients and entries have coprime
# denominators larger than those of ``conftest.small_rationals``.
WIDE = st.fractions(min_value=-5, max_value=5, max_denominator=13)
WIDE_NONNEGATIVE = st.fractions(min_value=0, max_value=5, max_denominator=13)
WIDE_POSITIVE = st.fractions(min_value=Fraction(1, 13), max_value=5, max_denominator=13)


@st.composite
def weighted(draw, coefficients=WIDE, last=WIDE):
    """A space, up to four gambles, a coefficient for each, and one more
    gamble drawn from ``last``."""
    space = draw(spaces(4))
    gs = [draw(gambles_on(space, WIDE)) for _ in range(draw(st.integers(0, 4)))]
    lambdas = tuple(draw(coefficients) for _ in gs)
    return space, gs, lambdas, draw(gambles_on(space, last))


def fraction_sum(lambdas, gs, space):
    """The reference: sum(lambda_k * g_k) atom by atom in Fraction arithmetic."""
    return tuple(
        sum((lam * g.values[i] for lam, g in zip(lambdas, gs)), Fraction(0))
        for i in range(space.size)
    )


@given(weighted())
def test_integer_substitution_equals_the_fraction_sum(data):
    space, gs, lambdas, f = data
    total = fraction_sum(lambdas, gs, space)
    comb = combination(lambdas, gs, space)
    assert comb.values == total
    # The cached integers are what the gamble would compute itself.
    lcd = math.lcm(*(v.denominator for v in total))
    assert (comb.denominator, comb.direction) == (lcd, direction(total))
    E = ConeGenerators(space, gs)
    cert = Certificate.over(E, lambdas, f)
    rem = cert.remainder
    assert rem.values == tuple(a - b for a, b in zip(f.values, total))
    assert rem.direction == direction(rem.values)
    assert cert.reconstructs(E, f)


@given(weighted(WIDE_NONNEGATIVE, WIDE_POSITIVE), st.sampled_from((17, 19, 23)), st.data())
def test_a_remainder_shifted_by_one_over_p_fails_both_checks(data, p, draw):
    # Every denominator involved divides a product of numbers up to 13, so
    # the prime p divides none of them.
    space, gs, lambdas, rem = data
    E = ConeGenerators(space, gs)
    f = gamble(space, [a + b for a, b in zip(fraction_sum(lambdas, gs, space), rem.values)])
    honest = Certificate(lambdas, rem)
    assert certificate_valid(honest, E, f) and certificate_valid_strict(honest, E, f)
    atom = draw.draw(st.integers(0, space.size - 1))
    shifted = list(rem.values)
    shifted[atom] += Fraction(draw.draw(st.sampled_from((1, -1))), p)
    forged = Certificate(lambdas, gamble(space, shifted))
    assert not certificate_valid(forged, E, f)
    assert not certificate_valid_strict(forged, E, f)


@given(space_with_gambles(3))
def test_zero_membership_equals_querying_the_zero_gamble(data):
    space, gs = data
    E = ConeGenerators.build(space, gs)
    assert (zero_in_desext(E) is not None) == (
        desext_contains(E, zero(space)) is not None
    )


def test_zero_query_matches_the_zero_test_and_the_oracle():
    # f = 0 is the one target that a feasibility LP cannot decide, because
    # lambda = 0 is feasible; desext_contains must route it to the zero test.
    # Every fifth query of the cone run asks for it, and its desext answer
    # must agree with the zero test and with elimination.
    faults, counts = tier1_run(cone_check)
    assert tagged(faults, "zero") == [] and counts["zero"] >= 75


def test_strict_queries_solve_at_most_two_lps():
    # The cone run counts the LPs of each strict test with lp_programs
    # (differential.cone_check): the mixed LP, and the exact one only at a
    # zero slack.
    faults, counts = tier1_run(cone_check)
    assert tagged(faults, "cone") == []
    assert sum(counts["strict_lps"].values()) >= 200 and counts["strict_lps"][2] > 0


def test_zero_lp_has_one_normalising_row_and_an_integer_witness():
    space = default_space(3)
    E = ConeGenerators.build(
        space,
        (gamble(space, ["2/3", "-1", "1/5"]), gamble(space, ["-3/7", "1/2", "-1"]),
         gamble(space, ["-1", "1/3", "1/4"])),
    )
    with lp_programs() as programs:
        cert = zero_in_desext(E)
    (lp,) = programs
    assert len(lp.constraints) == space.size + 1
    # The rows are integers over one scale, the lcm of the denominators.
    assert lp.scale == 420
    assert lp.constraints[-1] == ((420,) * 3, LEQ, 420)
    assert all(rhs == 0 for _, _, rhs in lp.constraints[:-1])
    assert cert is not None and certificate_valid(cert, E, zero(space))
    assert all(v.denominator == 1 for v in cert.lambdas)
    assert math.gcd(*(int(v) for v in cert.lambdas)) == 1


def test_every_weak_no_is_refuted_without_a_second_lp():
    # The refutation of a weak "no" over generators is read from the same
    # cached decision, with no LP of its own; for the zero gamble it is the
    # zero test's, and it refutes no weakly positive gamble. A "yes", or a
    # "no" over no generators, has none (differential.cone_check).
    faults, counts = tier1_run(cone_check)
    assert tagged(faults, "cone") == [] and min(counts["forms"].values()) >= 10, counts["forms"]


def test_one_generator_tests_solve_no_lp():
    # Over one generator the coordinate ratios decide every test, weak or
    # strict: none reaches the solver, each agrees with elimination, and each
    # certificate and refutation passes substitution. (The posi test, which
    # the judge asks too, does solve an LP.) Of the 2,000 queries of the cone
    # run over one generator (differential.cone_check), at least 20 answer in
    # each of the ONE_GENERATOR_SHAPES.
    faults, counts = tier1_run(cone_check)
    assert tagged(faults, "one-generator") == [] and 4 * TIER1[cone_check][1] >= 2000
    assert all(counts["shapes"][shape] >= 20 for shape in ONE_GENERATOR_SHAPES), counts["shapes"]


def test_one_generator_refutations_and_coefficients():
    a = g(-2, 3)
    # b_i = 0 > a_i, an upper bound below zero, and crossing bounds.
    assert desext_refutation(cone(g(0, 1)), a).y == (1, 0)
    assert desext_refutation(cone(g(1, 1)), a).y == (1, 0)
    # lambda >= 2 from the first atom, lambda <= 3/4 from the second.
    assert desext_refutation(cone(g(-1, 4)), a).y == (4, 1)
    assert desext_refutation(cone(g(1, 2)), zero(AB)) == Refutation("sum", (1, 0))
    # The least coefficient, 2: (-2, 3) - 2 (-1, 1) = (0, 1).
    cert = desext_contains(cone(g(-1, 1)), a)
    assert cert.lambdas == (2,) and cert.remainder == g(0, 1)
    # The open interval (2, 3) gives its midpoint; a = 2 (-1, 3/2) has none.
    cert = desext_contains_strict(cone(g(-1, 1)), a)
    assert cert.lambdas == (Fraction(5, 2),) and cert.remainder == g(Fraction(1, 2), Fraction(1, 2))
    cert = desext_contains_strict(cone(gamble(AB, ["-1", "3/2"])), a)
    assert cert.lambdas == (2,) and cert.remainder == zero(AB)


def test_refutation_forms_are_checked():
    E = cone(g(-1, 2), g(1, -1))
    a1 = gamble(AB, ["-17/10", "4/5"])
    assert Refutation("sum", (Fraction(3), Fraction(2))).refutes(E, zero(AB))
    assert Refutation("empty", (Fraction(2), Fraction(1))).refutes(E, a1)
    # (1, 1) gives the generators 1 and 0, and a1 -9/10: it proves "empty"
    # for a1, but not "sum" for zero.
    assert Refutation("empty", (Fraction(1), Fraction(1))).refutes(E, a1)
    assert not Refutation("sum", (Fraction(1), Fraction(1))).refutes(E, zero(AB))
    for bad in (
        Refutation("sum", (Fraction(1, 2), Fraction(1, 2))),  # y . g = 1/2 < 1
        Refutation("empty", (Fraction(3), Fraction(2))),  # y . 0 = 0 is not < 0
        Refutation("sum", (Fraction(-1), Fraction(0))),  # y < 0
        Refutation("sum", (Fraction(3),)),  # wrong length
        Refutation("banana", (Fraction(3), Fraction(2))),
    ):
        assert not bad.refutes(E, zero(AB))
    # A weakly positive gamble lies in every cone.
    assert not Refutation("sum", (Fraction(0), Fraction(1))).refutes(cone(g(1, 1)), g(1, 0))
    # (-1, 1) lies outside desext({(1, 0)}), and (1, 0) proves it; a y one
    # entry long, or a form that is neither, proves nothing, even where every
    # other check would pass.
    assert Refutation("empty", (Fraction(1), Fraction(0))).refutes(cone(g(1, 0)), g(-1, 1))
    short = Refutation("empty", (Fraction(1),))
    neither = Refutation("both", (Fraction(1), Fraction(0)))
    for bad in (short, neither):
        assert not bad.refutes(cone(g(1, 0)), g(-1, 1))
    with pytest.raises(ArithmeticError):
        Refutation("empty", (Fraction(3), Fraction(2))).checked(E, zero(AB))
    assert Refutation.from_direction((6, 4), E, zero(AB)) == Refutation(
        "sum", (Fraction(3), Fraction(2))
    )


def test_forged_refutations_of_a_member_are_rejected():
    # (1, -1, 1) = (1, -1, 0) + (0, 0, 1) lies in desext({(1, -1, 0)}). A y
    # with a negative entry gives y . g = 0 and y . f = -1 < 0, the "empty"
    # form's sums; only its sign rules it out.
    space = space_of(3)
    E = ConeGenerators.build(space, [gamble(space, (1, -1, 0))])
    f = gamble(space, (1, -1, 1))
    assert desext_contains(E, f) is not None
    assert not Refutation("empty", (Fraction(0), Fraction(0), Fraction(-1))).refutes(E, f)
    # (1, -1) lies in desext({(1, -1)}). y = (1, 0) gives y . g = 1 >= 1, the
    # "sum" form's bound, and y . f = 1, which is not <= 0.
    assert desext_contains(cone(g(1, -1)), g(1, -1)) is not None
    assert not Refutation("sum", (Fraction(1), Fraction(0))).refutes(cone(g(1, -1)), g(1, -1))


def test_decision_caches_are_bounded():
    # A long-lived process keeps at most this many decisions per cache; a
    # whole lib-session benchmark corpus fills at most 2,147 of them.
    for cache in (cones._posi_cert, cones._desext_cert, cones._zero_cert, cones._strict_cert):
        assert cache.cache_info().maxsize == 1 << 14
