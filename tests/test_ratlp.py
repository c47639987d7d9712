import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from differential import lp_disagreement, program_check, random_program, tagged, tier1_run
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
# ``_dense_bland``, whose phase 1 is that of ``lp_solve``. Each program exercises a step where a slip in the integer bookkeeping
# changes the witness but not its validity, which neither verify_outcome nor
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
# Farkas ray, from ``_dense_bland``. Their multipliers are the refutation
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


def _witness(outcome):
    """Every field of an outcome. ``==`` on outcomes leaves the multipliers
    out, and with them the refutation bytes that a weak "no" writes."""
    return type(outcome), tuple(getattr(outcome, name) for name in outcome._fields)


def _dense_bland(lp, pivots=None):
    """What ``lp_solve`` returns under Bland's rule alone, computed on a
    dense ``Fraction`` tableau that shares no code with it. Each pivot's
    leaving and entering variables are appended to ``pivots``, if given.

    Variables are numbered as ``lp_solve`` numbers them: x_j is j, the slack
    of row i is n + i, and the auxiliary variable x0, with coefficient -1 in
    every row, is n + m. Where some right-hand side is negative, x0 enters
    on the most negative one, ties going to the smaller row, and phase 1
    maximises -L x0, L = ``lp.scale``, as on ``lp_solve``'s tableau of the
    stored integer rows; if x0 is still basic at 0, it leaves on the
    smallest variable with a nonzero entry in its row. Each phase then
    enters the smallest improving variable and leaves by the least ratio,
    ties going to the smallest basic variable. The tableau holds the
    rational rows, the stored ones over L, and multipliers are minus the
    reduced costs of their slacks."""
    n, m, scale = lp.num_vars, len(lp.constraints), lp.scale
    aux = n + m
    rows, basis = [], list(range(n, aux))
    for i, (coeffs, _, b) in enumerate(lp.constraints):
        row = [Fraction(v, scale) for v in (*coeffs, b)]
        row[n:n] = [Fraction(0)] * m + [Fraction(-1)]
        row[n + i] = Fraction(1)
        rows.append(row)

    def pivot(r, j):
        if pivots is not None:
            pivots.append((basis[r], j))
        rows[r] = [v / rows[r][j] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[j]:
                rows[i] = [a - row[j] * b for a, b in zip(row, rows[r])]
        basis[r] = j

    def run(cost, entering):
        """Pivots until no variable below ``entering`` improves; returns
        the reduced costs and the column of an unbounded ray, if any."""
        while True:
            cbar = [cost[j] - sum(cost[basis[r]] * row[j] for r, row in enumerate(rows))
                    for j in range(aux + 1)]
            enter = next((j for j in range(entering) if j not in basis and cbar[j] > 0), None)
            if enter is None:
                return cbar, None
            ratios = [(row[-1] / row[enter], basis[r], r)
                      for r, row in enumerate(rows) if row[enter] > 0]
            if not ratios:
                return cbar, enter
            pivot(min(ratios)[2], enter)

    low_b, low = min(((b, i) for i, (_, _, b) in enumerate(lp.constraints)), default=(0, 0))
    if low_b < 0:
        pivot(low, aux)
        cbar, _ = run([0] * aux + [-scale], aux + 1)
        if aux in basis:
            r = basis.index(aux)
            if rows[r][-1]:
                return Infeasible(tuple(-v for v in cbar[n:aux]))
            pivot(r, next(j for j in range(aux) if rows[r][j]))
    cbar, enter = run(list(lp.objective) + [0] * (m + 1), aux)
    point = [Fraction(0)] * (aux + 1)
    for r, row in enumerate(rows):
        point[basis[r]] = row[-1]
    if enter is None:
        value = sum(c * v for c, v in zip(lp.objective, point))
        return Optimal(value, tuple(point[:n]), tuple(-v for v in cbar[n:aux]))
    ray = [Fraction(0)] * (aux + 1)
    ray[enter] = Fraction(1)
    for r, row in enumerate(rows):
        ray[basis[r]] = -row[enter]
    return Unbounded(tuple(point[:n]), tuple(ray[:n]))


@pytest.mark.parametrize("objective, rows, expected", PINNED)
def test_pinned_witnesses(objective, rows, expected, monkeypatch):
    lp = LinearProgram.build(objective, rows)
    assert verify_outcome(lp, expected)
    assert _witness(_dense_bland(lp)) == _witness(expected)
    # The default rule may take another path to another witness of the same
    # outcome.
    out = lp_solve(lp)
    assert type(out) is type(expected) and verify_outcome(lp, out)
    assert getattr(out, "value", None) == getattr(expected, "value", None)
    # Bland's rule alone, from the first pivot, takes the recorded path.
    monkeypatch.setattr(ratlp, "_DEGENERATE_RUN", 0)
    assert _witness(lp_solve(lp)) == _witness(expected)


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


@given(st.integers(0, 2**31 - 1))
def test_solver_is_deterministic(seed):
    lp = LinearProgram.build(*random_program(random.Random(seed), "integer"))
    assert _witness(lp_solve(lp)) == _witness(lp_solve(lp))


@given(st.integers(0, 2**31 - 1))
def test_blands_rule_takes_the_dense_tableaus_path(seed):
    rng = random.Random(seed)
    kind = "rational" if rng.random() < 0.5 else "integer"
    lp = LinearProgram.build(*random_program(rng, kind))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ratlp, "_DEGENERATE_RUN", 0)
        assert _witness(lp_solve(lp)) == _witness(_dense_bland(lp))


@given(st.integers(0, 2**31 - 1))
def test_a_rational_program_and_its_integer_twin_are_one_program(seed):
    # The twin is stored as given: every row times L, the least common
    # denominator of the rows' entries, as ints over scale L.
    rng = random.Random(seed)
    objective, drawn = random_program(rng, "rational")
    lp = LinearProgram.build(objective, drawn)
    L = math.lcm(*(v.denominator for coeffs, _, b in drawn for v in (*coeffs, b)))
    rows = tuple(
        (tuple((v * L).numerator for v in coeffs), rel, (b * L).numerator)
        for coeffs, rel, b in drawn
    )
    twin = LinearProgram(len(objective), tuple(objective), rows, L)
    assert twin == lp and hash(twin) == hash(lp) and twin.scale == lp.scale == L
    out = lp_solve(twin)
    assert _witness(out) == _witness(lp_solve(lp))
    assert verify_outcome(lp, out) and verify_outcome(twin, out)


def test_lp_solve_reads_the_stored_rows_as_they_are(monkeypatch):
    # ``denominator`` may read the objective, never a stored row.
    rng = random.Random(20261019)
    programs = [
        LinearProgram.build(*random_program(rng, "wide" if k % 2 else "rational"))
        for k in range(60)
    ]
    real, read = ratlp.denominator, []

    def recorded(values):
        values = list(values)
        read.append(values)
        return real(values)

    monkeypatch.setattr(ratlp, "denominator", recorded)
    for lp in programs:
        read.clear()
        out = lp_solve(lp)
        assert all(values == list(lp.objective) for values in read)
        assert verify_outcome(lp, out)
    assert sum(len(lp.constraints) > 0 for lp in programs) >= 40


def test_phase_one_adds_one_column_and_enters_it_without_a_pivot_call(monkeypatch):
    """However many right-hand sides are negative, phase 1 adds one column:
    its rows hold the n variables, the auxiliary one and the right-hand
    side. x0 enters on the most negative row without a call to ``_pivot``,
    so under Bland's rule ``lp_solve`` pivots as ``_dense_bland`` does after
    its first pivot."""
    monkeypatch.setattr(ratlp, "_DEGENERATE_RUN", 0)
    widths, calls = [], []
    run, pivot = ratlp._run_simplex, ratlp._pivot

    def first_run(rows, basis, nb, d):
        widths.append(len(rows[0]))
        return run(rows, basis, nb, d)

    def counted(rows, basis, nb, d, r, c):
        calls.append((basis[r], nb[c]))
        return pivot(rows, basis, nb, d, r, c)

    monkeypatch.setattr(ratlp, "_run_simplex", first_run)
    monkeypatch.setattr(ratlp, "_pivot", counted)
    rng = random.Random(20261019)
    many = 0
    for k in range(120):
        lp = LinearProgram.build(*random_program(rng, "wide" if k % 3 else "rational"))
        bounds = [b for _, _, b in lp.constraints]
        if min(bounds, default=0) >= 0:
            continue
        widths.clear(), calls.clear()
        dense = []
        assert _witness(lp_solve(lp)) == _witness(_dense_bland(lp, dense))
        n, m = lp.num_vars, len(bounds)
        assert dense[0] == (n + bounds.index(min(bounds)), n + m)
        assert calls == dense[1:]
        if sum(b < 0 for b in bounds) >= 3:
            many += 1
            assert widths[0] == n + 2
    assert many >= 40


@settings(derandomize=True)  # the same draws every run: a few seeds take 0.5 s each
@given(st.integers(0, 2**31 - 1))
def test_all_leq_programs_carry_checked_multipliers(seed):
    rng = random.Random(seed)
    objective, drawn = random_program(rng, "rational" if rng.random() < 0.5 else "integer")
    rows = [(coeffs, LEQ, b) for coeffs, _, b in drawn]
    lp = LinearProgram.build(objective, rows)
    out = lp_solve(lp)
    assert lp_disagreement(lp, out, rows) is None
    if not isinstance(out, Unbounded):
        assert len(out.multipliers) == len(rows)


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
