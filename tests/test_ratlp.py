from fractions import Fraction

import pytest

from differential import dense_bland, program_check, tagged, tier1_run, witness_of
from gamblesets import (
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    fm_feasible,
    lp_solve,
    rational,
    rational_str,
    verify_outcome,
)
from gamblesets import ratlp
from gamblesets.ratlp import EQ, LEQ, LT


def test_rational_parsing_and_canonical_strings():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-3") == Fraction(-3)
    assert rational(7) == Fraction(7)
    assert rational(Fraction(2, 6)) == Fraction(1, 3)
    assert rational_str(Fraction(2, 6)) == "1/3"
    assert rational_str(Fraction(-4, 2)) == "-2"


def test_an_integer_over_the_digit_limit_has_no_string():
    with pytest.raises(ValueError, match="^an answer entry has an integer of over 4300 digits$"):
        rational_str(Fraction(1, 10**5000))


def test_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        rational(True)


def test_rational_strings_follow_the_documented_grammar():
    assert rational("-3/4") == Fraction(-3, 4)
    assert rational("007") == Fraction(7)
    assert rational("6/8") == Fraction(3, 4)
    # Decimal and exponent forms, signs other than a leading minus, blanks,
    # underscores and non-ASCII digits are rejected before Fraction runs.
    for text in ("1.5", "1e5", "1e10000000", "+3", " 3", "3 ", "1_000", "\u0663", "1/-2", "", "/2"):
        with pytest.raises(ValueError, match="is not a rational of the form"):
            rational(text)
    with pytest.raises(ValueError, match="zero denominator"):
        rational("1/0")


def test_single_variable_bound():
    lp = LinearProgram.build([1], [([1], LEQ, 3)])
    out = lp_solve(lp)
    assert out == Optimal(Fraction(3), (Fraction(3),))
    assert verify_outcome(lp, out)


def test_unconstrained_ray():
    lp = LinearProgram.build([1], [])
    out = lp_solve(lp)
    assert isinstance(out, Unbounded)
    assert verify_outcome(lp, out)


def test_forced_to_origin():
    lp = LinearProgram.build([1, 1], [([1, 1], LEQ, 0)])
    out = lp_solve(lp)
    assert out == Optimal(Fraction(0), (Fraction(0), Fraction(0)))
    assert verify_outcome(lp, out)


def test_infeasible_equalities():
    lp = LinearProgram.build([1], [([1], EQ, 2), ([1], EQ, 3)])
    out = lp_solve(lp)
    assert out == Infeasible() and verify_outcome(lp, out)


def test_equality_rows_are_stored_as_leq_rows_and_their_negated_sum():
    lp = LinearProgram.build([1, 1], [([1, 2], EQ, 3), ([1, 0], LEQ, 1), ([0, 1], EQ, "1/2")])
    # Integer rows over scale 2, the least common denominator of the entries;
    # the aggregate row is the negated sum of the integer equality rows.
    assert lp.scale == 2
    assert lp.constraints == (
        ((2, 4), LEQ, 6), ((2, 0), LEQ, 2), ((0, 2), LEQ, 1), ((-2, -6), LEQ, -7),
    )
    assert all(type(v) is int for coeffs, _, b in lp.constraints for v in (*coeffs, b))
    # A stored program is all <= and integer, so storing it again changes nothing.
    assert LinearProgram(2, lp.objective, lp.constraints, lp.scale) == lp
    assert LinearProgram.build([1], [([1], LEQ, 2)]).constraints == (((1,), LEQ, 2),)
    # Integer rows are stored as given, over the scale they come with.
    rows = (((3, -1), LEQ, 4), ((1, 1), LEQ, 0))
    assert LinearProgram(2, (1, 0), rows, 6).constraints is rows


def test_linear_programs_reject_malformed_input():
    for args, error in (
        ((2, (1, 1), (((1,), LEQ, 0),)), ValueError),  # a row of the wrong length
        ((1, (1, 1), ()), ValueError),  # an objective of the wrong length
        ((1, (1,), (((1,), LT, 0),)), ValueError),  # a relation a program has no use for
        ((1, (1,), (((1,), LEQ, 0),), 0), ValueError),  # scale below 1
        ((-1, (), ()), ValueError),
        ((1, (1,), (((0.5,), LEQ, 0),)), TypeError),  # entries that are not rationals
        ((1, (1,), (((1,), LEQ, "1/2"),)), TypeError),
        ((1, (1,), (((True,), LEQ, 0),)), TypeError),
        ((1, (0.5,), (((1,), LEQ, 0),)), TypeError),
        ((1, (Fraction(1, 2),), (((1,), LEQ, 1.0),)), TypeError),
    ):
        with pytest.raises(error):
            LinearProgram(*args)


def test_zero_variable_programs():
    assert lp_solve(LinearProgram.build([], [])) == Optimal(Fraction(0), ())
    assert lp_solve(LinearProgram.build([], [((), LEQ, -1)])) == Infeasible()
    assert lp_solve(LinearProgram.build([], [((), EQ, 0)])) == Optimal(Fraction(0), ())


def test_row_length_mismatch_rejected():
    with pytest.raises(ValueError):
        LinearProgram.build([1, 1], [([1], LEQ, 0)])


def test_degenerate_cycling_program_terminates():
    # A Beale-type cycling example for textbook pivoting rules; the simplex
    # must finish.
    lp = LinearProgram.build(
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        [
            ([Fraction(1, 4), -60, Fraction(-1, 25), 9], LEQ, 0),
            ([Fraction(1, 2), -90, Fraction(-1, 50), 3], LEQ, 0),
            ([0, 0, 1, 0], LEQ, 1),
        ],
    )
    out = lp_solve(lp)
    assert isinstance(out, Optimal)
    assert out.value == Fraction(1, 20)
    assert verify_outcome(lp, out)


def _fracs(*values):
    return tuple(rational(v) for v in values)


# Outcomes recorded from the Fraction-pivot simplex that the integer tableau
# replaced, or, for the programs with a negative right-hand side, from
# ``differential.dense_bland``, whose phase 1 is that of ``lp_solve``. Each
# program exercises a step where a slip in the integer bookkeeping changes
# the witness but not its validity, which neither verify_outcome nor
# elimination can see.
PINNED = [
    pytest.param(
        [1, "-1/2", "-3/4"],
        [([-2, "-2/3", 2], LEQ, -2), ([2, -2, 3], LEQ, 1)],
        Unbounded(
            (Fraction(7, 8), Fraction(3, 8), Fraction(0)),
            (Fraction(3, 8), Fraction(3, 8), Fraction(0)),
        ),
        id="ray-along-a-slack-of-a-fractional-row",
    ),
    pytest.param(
        [3, -2, 1],
        [([0, -1, "4/3"], EQ, 1), ([1, -1, "-2/3"], EQ, "-1/2")],
        Unbounded(
            (Fraction(0), Fraction(0), Fraction(3, 4)),
            (Fraction(1), Fraction(2, 3), Fraction(1, 2)),
        ),
        id="fractional-equalities-with-an-auxiliary-column",
    ),
    pytest.param(
        [-1, "3/4", "3/4"],
        [
            (["-4/3", -1, -3], EQ, -3),
            ([3, "-2/3", -1], LEQ, "2/3"),
            (["-4/9", "-1/3", -1], EQ, -1),
        ],
        Optimal(Fraction(9, 4), (Fraction(0), Fraction(3), Fraction(0)),
                _fracs(0, 0, 0, "9/16")),
        id="dependent-equality-rows",
    ),
    pytest.param(
        ["2/3", -1],
        [([-1, -1], LEQ, -2), ([-3, "-1/2"], EQ, -1)],
        Optimal(Fraction(-2), (Fraction(0), Fraction(2)), _fracs("4/3", 0, "2/3")),
        id="drive-out-pivot-on-a-negative-entry",
    ),
]


# max x1 + x2 with x1 <= 2 and x2 <= 3 (optimum 5 at (2, 3), dual (1, 1)),
# max x1 along x1 - x2 = 0 or x1 - x2 <= 0 (unbounded along (1, 1)), and max
# x1 with no rows (unbounded along (1, 0)). Each forgery differs from a valid
# outcome in one field, or claims an outcome of the wrong kind, or none.
BOX = LinearProgram.build([1, 1], [([1, 0], LEQ, 2), ([0, 1], LEQ, 3)])
DIAGONAL = LinearProgram.build([1, 0], [([1, -1], EQ, 0)])
BELOW = LinearProgram.build([1, 0], [([1, -1], LEQ, 0)])
FREE = LinearProgram.build([1, 0], [])
FORGED_OUTCOMES = [
    pytest.param(BOX, Optimal(Fraction(4), _fracs(2, 3), _fracs(1, 1)), id="value-off-b.y"),
    pytest.param(BOX, Optimal(Fraction(5), _fracs(3, 3), _fracs(1, 1)), id="point-breaks-a-row"),
    pytest.param(BOX, Optimal(Fraction(5), _fracs(-1, 5), _fracs(1, 1)), id="negative-point"),
    pytest.param(BOX, Optimal(Fraction(5), _fracs(2, 3), _fracs(1, 0)), id="dual-below-objective"),
    pytest.param(DIAGONAL, Unbounded(_fracs(1, 1), _fracs(1, 0)), id="ray-leaves-an-equality"),
    pytest.param(DIAGONAL, Unbounded(_fracs(1, 1), _fracs(0, 0)), id="ray-does-not-improve"),
    pytest.param(DIAGONAL, Unbounded(_fracs(1, 1), _fracs(-1, -1)), id="negative-ray"),
    pytest.param(DIAGONAL, Unbounded(_fracs(1, 0), _fracs(1, 1)), id="point-off-an-equality"),
    pytest.param(DIAGONAL, Infeasible(), id="infeasible-without-a-ray"),
    pytest.param(DIAGONAL, Optimal(Fraction(1), _fracs(1, 1), None), id="optimal-without-a-dual"),
    pytest.param(BELOW, Unbounded(_fracs(1, 1), _fracs(1, 0)), id="ray-leaves-an-inequality"),
    pytest.param(BELOW, Unbounded(_fracs(1, 1), _fracs(1)), id="short-ray"),
    pytest.param(BELOW, Unbounded(_fracs(1, 1, 1), _fracs(1, 1)), id="long-point"),
    pytest.param(BELOW, Unbounded(_fracs(-1, 1), _fracs(1, 1)), id="point-with-a-negative-entry"),
    pytest.param(FREE, Unbounded(_fracs(0, 0), _fracs(1, -1)), id="ray-with-a-negative-entry"),
    pytest.param(BOX, Infeasible(_fracs(0, 0)), id="ray-with-b.y-zero"),
    pytest.param(BOX, None, id="not-an-outcome"),
]


@pytest.mark.parametrize("lp, forged", FORGED_OUTCOMES)
def test_verify_outcome_rejects_forged_witnesses(lp, forged):
    genuine = {
        BOX: Optimal(Fraction(5), _fracs(2, 3), _fracs(1, 1)),
        DIAGONAL: Unbounded(_fracs(1, 1), _fracs(1, 1)),
        BELOW: Unbounded(_fracs(1, 1), _fracs(1, 1)),
        FREE: Unbounded(_fracs(0, 0), _fracs(1, 0)),
    }[lp]
    assert verify_outcome(lp, genuine)
    assert not verify_outcome(lp, forged)


def _cone_program(kind, generators, f):
    """(objective, rows) of the cone LP that ``cones`` solves for a query of
    this kind: one row per atom, holding the generators' values there."""
    k = len(generators)
    cols = list(zip(*generators))
    if kind == "desext":  # any lambda >= 0 with E lambda <= f
        return [0] * k, [(col, LEQ, b) for col, b in zip(cols, f)]
    if kind == "zero":  # max sum(lambda), E lambda <= 0, sum(lambda) <= 1
        return [1] * k, [(col, LEQ, 0) for col in cols] + [([1] * k, LEQ, 1)]
    # strict, mixed branch: max t, E lambda + t 1 <= f, t <= 1
    rows = [((*col, 1), LEQ, b) for col, b in zip(cols, f)]
    return [0] * k + [1], rows + [([0] * k + [1], LEQ, 1)]


# Outcomes of cone-lp queries with ten atoms and ten generators, recorded from
# the full-tableau simplex that the condensed one replaced, or, for the
# Farkas ray, from ``dense_bland``. Their multipliers are the refutation
# bytes a weak "no" writes.
PINNED += [
    pytest.param(
        *_cone_program(
            "desext",
            [[1, 3, -2, 3, -3, -2, 1, -1, 0, -2],
             [-2, -2, 2, 2, 3, -2, 0, 0, -3, -1],
             [-1, 1, 2, 0, 0, -1, 2, 0, 0, 0],
             [-2, 2, 0, -3, -3, -1, 1, -1, 2, 0],
             [-2, 2, -3, -2, 3, -3, 0, 1, 3, 0],
             [-1, 2, -2, 1, 2, 2, -3, -3, -2, -2],
             [2, 1, 1, -2, 2, 3, 2, -2, 0, -3],
             [-1, 3, 2, 2, 0, -1, -2, -1, 1, -3],
             [-2, 1, 3, -1, 1, 2, 1, -3, 0, -1],
             [0, 1, -3, -3, 0, -3, 3, 1, 2, 0]],
            [1, -3, 0, 3, -3, 2, -1, -2, 0, 1],
        ),
        Infeasible(_fracs(0, "3/5", 0, 0, "2/5", 0, 0, 0, 0, 0)),
        id="desext-farkas-ray",
    ),
    pytest.param(
        *_cone_program(
            "zero",
            [[2, 0, 1, -2, -3, 2, 2, 0, -3, 3],
             [3, 1, 3, -2, 3, -2, 1, 3, 1, 1],
             [-3, 1, 2, 0, 3, -2, 1, -3, 3, -1],
             [-3, -1, -2, 2, -1, 3, 2, -3, 0, -1],
             [-1, 3, -1, 2, -2, 0, 3, 2, -2, 1],
             [-2, 1, -1, 1, -3, -3, -3, -1, -3, 2],
             [3, 1, -3, 2, 1, -2, 3, -2, 1, 2],
             [-3, 1, 0, -2, 0, 1, 0, -1, -2, -2],
             [-2, 1, 2, 0, 2, 1, 1, -3, 2, -3],
             [-1, 1, -2, -3, -1, -1, -1, 2, 2, 3]],
            None,
        ),
        Optimal(Fraction(0), (Fraction(0),) * 10, _fracs(0, "19/3", 0, "2/3", 0, 2, 0, 0, 0, 0, 0)),
        id="zero-test-sum-dual-at-optimum-0",
    ),
    pytest.param(
        *_cone_program(
            "strict",
            [[-3, -2, 3, 0, -2, -3, 3, -1, 3, -3],
             [1, -1, 1, 3, 1, -2, 0, -1, -1, -2],
             [3, 1, 3, 2, -3, 0, -3, 2, 1, 0],
             [2, -1, 1, -1, 1, -2, -1, 0, -2, -2],
             [-2, 0, 3, 0, 3, 3, 3, 3, 3, -2],
             [0, -2, 0, 2, -2, -1, -1, 1, -3, 3],
             [2, -2, 3, 1, 1, -1, 3, 1, -2, 2],
             [0, -3, -1, -3, -2, 2, 2, 1, 3, 0],
             [-3, 3, 2, 0, -3, 3, 0, 0, -3, -2],
             [3, 0, 1, 0, 3, 1, 1, 0, -2, 0]],
            [2, -3, 3, 1, -1, 0, -1, 0, 2, -2],
        ),
        Optimal(
            Fraction(34, 2311),
            _fracs("192/2311", "1790/2311", 0, "3229/2311", 0, "1196/2311", 0, "752/2311",
                   "1028/2311", 0, "34/2311"),
            _fracs("98/2311", "166/2311", "282/2311", "157/2311", "256/2311", 0, "411/2311",
                   "941/2311", 0, 0, 0),
        ),
        id="strict-mixed-branch-optimum",
    ),
]


@pytest.mark.parametrize("objective, rows, expected", PINNED)
def test_pinned_witnesses(objective, rows, expected, monkeypatch):
    lp = LinearProgram.build(objective, rows)
    assert verify_outcome(lp, expected)
    assert witness_of(dense_bland(lp)) == witness_of(expected)
    # The default rule may take another path to another witness of the same
    # outcome.
    out = lp_solve(lp)
    assert type(out) is type(expected) and verify_outcome(lp, out)
    assert getattr(out, "value", None) == getattr(expected, "value", None)
    # Bland's rule alone, from the first pivot, takes the recorded path.
    monkeypatch.setattr(ratlp, "_DEGENERATE_RUN", 0)
    assert witness_of(lp_solve(lp)) == witness_of(expected)


# A textbook cycling example (Chvatal, Linear Programming, 1983): maximise
# 10 x2 - 57 x3 - 9 x4 - 24 x5 subject to x0 = (11 x3 + 5 x4 - 18 x5 - x2) / 2,
# x1 = (3 x3 + x4 - 2 x5 - x2) / 2 and x2 <= 1, all x >= 0. The slacks x0 and
# x1 of the textbook's two rows have the smallest indices, as there; x6 is
# the slack of x2 <= 1. Below is its condensed phase-2 tableau (rows, basis,
# nonbasic variables, denominator; the objective row last) at a basis of a
# six-pivot degenerate cycle of the largest-coefficient rule, where phase 1
# ends when the two equality rows are kept as such. Stored all <=, the
# program no longer reaches that basis.
CYCLING = (
    [[6, -22, -8, -4, 0], [4, -36, -16, 8, 0], [0, 0, 32, 0, 32], [372, -2580, -784, 72, 0]],
    [5, 3, 6],
    [0, 1, 2, 4],
    32,
)


def _cycling_tableau():
    rows, basis, nb, d = CYCLING
    return [row[:] for row in rows], basis[:], nb[:], d


class _PivotLimit(Exception):
    pass


def _counted_pivots(monkeypatch, limit):
    """The length of the degenerate run at each pivot from here on; past
    ``limit`` pivots, a pivot raises ``_PivotLimit``."""
    runs = [0]
    pivot = ratlp._pivot

    def counted(rows, basis, nb, d, r, c):
        if len(runs) > limit:
            raise _PivotLimit
        runs.append(runs[-1] + 1 if rows[r][-1] == 0 else 0)
        return pivot(rows, basis, nb, d, r, c)

    monkeypatch.setattr(ratlp, "_pivot", counted)
    return runs


def test_the_largest_coefficient_rule_alone_cycles(monkeypatch):
    monkeypatch.setattr(ratlp, "_DEGENERATE_RUN", 10**9)
    runs = _counted_pivots(monkeypatch, limit=200)
    with pytest.raises(_PivotLimit):
        ratlp._run_simplex(*_cycling_tableau())
    # 200 degenerate pivots in a row, with 7 variables over 3 rows: at most
    # 35 bases, so a basis recurs.
    assert runs[-1] == 200


def test_a_long_degenerate_run_falls_back_to_blands_rule(monkeypatch):
    rows, basis, nb, d = _cycling_tableau()
    runs = _counted_pivots(monkeypatch, limit=200)
    d, enter = ratlp._run_simplex(rows, basis, nb, d)
    assert max(runs) > ratlp._DEGENERATE_RUN == 50 and enter is None
    # The optimum is 1 at x = (2, 0, 1, 0, 1, 0).
    point = [Fraction(0)] * 7
    for r, row in enumerate(rows[:-1]):
        point[basis[r]] = Fraction(row[-1], d)
    assert point[:6] == list(_fracs(2, 0, 1, 0, 1, 0)) and Fraction(-rows[-1][-1], d) == 1


def test_fm_contradictory_bounds():
    assert not fm_feasible([([1], LEQ, 1), ([-1], LEQ, -2)])


def test_fm_simplex_on_a_segment():
    rows = [([1, 1], EQ, 1), ([-1, 0], LEQ, 0), ([0, -1], LEQ, 0)]
    assert fm_feasible(rows)


def test_fm_zero_outside_a_pointed_cone():
    # No convex weights put the cone spanned by (1,-1) and (-1,2) below zero.
    rows = [
        ([1, -1], LEQ, 0),
        ([-1, 2], LEQ, 0),
        ([1, 1], EQ, 1),
        ([-1, 0], LEQ, 0),
        ([0, -1], LEQ, 0),
    ]
    assert not fm_feasible(rows)


def test_fm_strict_rows():
    assert fm_feasible([([1], LT, 1), ([-1], LT, 0)])
    assert not fm_feasible([([1], LT, 0), ([-1], LT, 0)])
    assert not fm_feasible([([1], LT, 0), ([-1], LEQ, 0)])
    assert fm_feasible([([1, 1], EQ, 1), ([1, -1], LT, 0)])


def test_fm_rejects_unequal_rows():
    with pytest.raises(ValueError):
        fm_feasible([([1, 2], LEQ, 0), ([1], LEQ, 0)])


def test_simplex_and_elimination_agree_on_feasibility():
    # Every program of differential.random_program's kinds, in turn, against
    # elimination and substitution (differential.program_check).
    faults, counts = tier1_run(program_check)
    assert faults == []
    # Rational programs, stored as integer rows over a scale above 1; and
    # infeasible programs with equality rows, or with two or more negative
    # right-hand sides, which share phase 1's auxiliary column, whose Farkas
    # rays were checked.
    assert min(counts["scaled"], counts["rays"], counts["shared"]) > 0


def test_wide_programs_verify():
    # The program run's wide programs, too wide for elimination, checked by
    # substitution of their multipliers; their outcomes come as all three
    # types both with and without equality rows.
    faults, counts = tier1_run(program_check)
    assert tagged(faults, "wide") == []
    assert counts["wide"] == 200 and counts["wide_outcomes"] == 6


def test_solver_is_deterministic():
    # The program run's property draws, rational and integer in turn, each
    # solved twice to the same witness (differential.program_check).
    faults, counts = tier1_run(program_check)
    assert tagged(faults, "deterministic") == [] and counts["laws"]["solved"] >= 60


def test_blands_rule_takes_the_dense_tableaus_path():
    # Wide programs tie ratios between rows whose basic variables are out of
    # row order, where only the smallest basic variable leaves as the dense
    # tableau's does.
    faults, counts = tier1_run(program_check)
    assert tagged(faults, "bland") == [] and counts["laws"]["solved"] >= 60
    assert counts["laws"]["crossed_ties"] >= 10


def test_a_rational_program_and_its_integer_twin_are_one_program():
    # The twin is stored as given: every row times L, the least common
    # denominator of the rows' entries, as ints over scale L.
    faults, counts = tier1_run(program_check)
    assert tagged(faults, "twin") == [] and counts["laws"]["scaled_twins"] > 0


def test_lp_solve_reads_the_stored_rows_as_they_are():
    # ``denominator`` may read the objective, never a stored row.
    faults, counts = tier1_run(program_check)
    assert tagged(faults, "stored") == []
    assert counts["laws"]["stored"] == 60 and counts["laws"]["stored_rows"] >= 40


def test_phase_one_adds_one_column_and_enters_it_without_a_pivot_call():
    # However many right-hand sides are negative, phase 1 adds one column:
    # its rows hold the n variables, the auxiliary one and the right-hand
    # side. x0 enters on the most negative row without a call to ``_pivot``,
    # so under Bland's rule ``lp_solve`` pivots as ``dense_bland`` does after
    # its first pivot. Of 120 programs, at least 40 have three or more
    # negative right-hand sides.
    faults, counts = tier1_run(program_check)
    assert tagged(faults, "phase-one") == [] and counts["laws"]["phase_one_many"] >= 40


def test_all_leq_programs_carry_checked_multipliers():
    faults, counts = tier1_run(program_check)
    assert tagged(faults, "multipliers") == [] and counts["laws"]["solved"] >= 60


def test_multipliers_of_small_programs():
    # max x + y with x + y <= 2 and x <= 1: the dual puts 1 on the first row.
    lp = LinearProgram.build([1, 1], [([1, 1], LEQ, 2), ([1, 0], LEQ, 1)])
    out = lp_solve(lp)
    assert out.value == 2 and out.multipliers == (Fraction(1), Fraction(0))
    # x <= -1 has no x >= 0; y = 1 on that row proves it (b . y = -1 < 0).
    lp = LinearProgram.build([0], [([1], LEQ, -1), ([1], LEQ, 5)])
    out = lp_solve(lp)
    assert isinstance(out, Infeasible) and verify_outcome(lp, out)
    assert out.multipliers[1] == 0 < out.multipliers[0]
    # Multipliers do not take part in equality of outcomes.
    assert out == Infeasible()
    assert lp_solve(LinearProgram.build([], [((), LEQ, -1)])).multipliers == (Fraction(1),)
    # A program with an equality row carries multipliers that verify, and a
    # bare Infeasible is rejected for max x with x = 2, whose optimum is 2.
    lp = LinearProgram.build([1], [([1], EQ, 2)])
    out = lp_solve(lp)
    assert out == Optimal(Fraction(2), (Fraction(2),)) and verify_outcome(lp, out)
    assert len(out.multipliers) == 2 and not verify_outcome(lp, Infeasible())
