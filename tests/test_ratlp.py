import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

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
    assert lp_solve(lp) == Infeasible()


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


# Outcomes recorded from the Fraction-pivot simplex that the integer tableau
# replaced. Each program exercises a step where a slip in the integer
# bookkeeping changes the witness but not its validity, which neither
# verify_outcome nor elimination can see.
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
        id="fractional-equalities-with-artificials",
    ),
    pytest.param(
        [-1, "3/4", "3/4"],
        [
            (["-4/3", -1, -3], EQ, -3),
            ([3, "-2/3", -1], LEQ, "2/3"),
            (["-4/9", "-1/3", -1], EQ, -1),
        ],
        Optimal(Fraction(9, 4), (Fraction(0), Fraction(3), Fraction(0))),
        id="redundant-row-dropped-after-phase-1",
    ),
    pytest.param(
        ["2/3", -1],
        [([-1, -1], LEQ, -2), ([-3, "-1/2"], EQ, -1)],
        Optimal(Fraction(-2), (Fraction(0), Fraction(2))),
        id="drive-out-pivot-on-a-negative-entry",
    ),
]


def _fracs(*values):
    return tuple(rational(v) for v in values)


# max x1 + x2 with x1 <= 2 and x2 <= 3 (optimum 5 at (2, 3), dual (1, 1)), and
# max x1 along x1 - x2 = 0 or x1 - x2 <= 0 (unbounded along (1, 1)). Each
# forgery differs from a valid outcome in one field.
BOX = LinearProgram.build([1, 1], [([1, 0], LEQ, 2), ([0, 1], LEQ, 3)])
DIAGONAL = LinearProgram.build([1, 0], [([1, -1], EQ, 0)])
BELOW = LinearProgram.build([1, 0], [([1, -1], LEQ, 0)])
FORGED_OUTCOMES = [
    pytest.param(BOX, Optimal(Fraction(4), _fracs(2, 3), _fracs(1, 1)), id="value-off-b.y"),
    pytest.param(BOX, Optimal(Fraction(5), _fracs(3, 3), _fracs(1, 1)), id="point-breaks-a-row"),
    pytest.param(BOX, Optimal(Fraction(5), _fracs(-1, 5), _fracs(1, 1)), id="negative-point"),
    pytest.param(BOX, Optimal(Fraction(5), _fracs(2, 3), _fracs(1, 0)), id="dual-below-objective"),
    pytest.param(DIAGONAL, Unbounded(_fracs(1, 1), _fracs(1, 0)), id="ray-leaves-an-equality"),
    pytest.param(DIAGONAL, Unbounded(_fracs(1, 1), _fracs(0, 0)), id="ray-does-not-improve"),
    pytest.param(DIAGONAL, Unbounded(_fracs(1, 1), _fracs(-1, -1)), id="negative-ray"),
    pytest.param(DIAGONAL, Unbounded(_fracs(1, 0), _fracs(1, 1)), id="point-off-an-equality"),
    pytest.param(BELOW, Unbounded(_fracs(1, 1), _fracs(1, 0)), id="ray-leaves-an-inequality"),
    pytest.param(BELOW, Unbounded(_fracs(1, 1), _fracs(1)), id="short-ray"),
]


@pytest.mark.parametrize("lp, forged", FORGED_OUTCOMES)
def test_verify_outcome_rejects_forged_witnesses(lp, forged):
    genuine = {
        BOX: Optimal(Fraction(5), _fracs(2, 3), _fracs(1, 1)),
        DIAGONAL: Unbounded(_fracs(1, 1), _fracs(1, 1)),
        BELOW: Unbounded(_fracs(1, 1), _fracs(1, 1)),
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
# the full-tableau simplex that the condensed one replaced. Their multipliers
# are the refutation bytes a weak "no" writes.
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
        Infeasible(_fracs(0, 1, 0, 0, 1, 0, 1, "1/4", "1/8", 0)),
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


@pytest.mark.parametrize("objective, rows, expected", PINNED)
def test_pinned_witnesses(objective, rows, expected, monkeypatch):
    lp = LinearProgram.build(objective, rows)
    assert verify_outcome(lp, expected)
    # The default rule may take another path to another witness of the same
    # outcome.
    out = lp_solve(lp)
    assert type(out) is type(expected) and verify_outcome(lp, out)
    assert getattr(out, "value", None) == getattr(expected, "value", None)
    # Bland's rule alone, from the first pivot, takes the recorded path.
    monkeypatch.setattr(ratlp, "_DEGENERATE_RUN", 0)
    assert _witness(lp_solve(lp)) == _witness(expected)


# A textbook cycling example (Chvatal, Linear Programming, 1983), in
# equality form with integer rows: its slacks are the first two variables,
# so they have the smallest indices, as in the textbook. Phase 1 ends at a
# basis of a six-pivot degenerate cycle of the largest-coefficient rule.
CYCLING = (
    [0, 0, 10, -57, -9, -24],
    [([0, 2, 1, -3, -1, 2], EQ, 0), ([2, 0, 1, -11, -5, 18], EQ, 0), ([0, 0, 1, 0, 0, 0], LEQ, 1)],
)


class _PivotLimit(Exception):
    pass


def _counted_pivots(monkeypatch, limit=None):
    """The length of the degenerate run at each pivot from here on; past
    ``limit`` pivots, a pivot raises ``_PivotLimit``."""
    runs = [0]
    pivot = ratlp._pivot

    def counted(rows, basis, nb, d, r, c):
        if limit is not None and len(runs) > limit:
            raise _PivotLimit
        runs.append(runs[-1] + 1 if rows[r][-1] == 0 else 0)
        return pivot(rows, basis, nb, d, r, c)

    monkeypatch.setattr(ratlp, "_pivot", counted)
    return runs


def test_the_largest_coefficient_rule_alone_cycles(monkeypatch):
    lp = LinearProgram.build(*CYCLING)
    monkeypatch.setattr(ratlp, "_DEGENERATE_RUN", 10**9)
    runs = _counted_pivots(monkeypatch, limit=200)
    with pytest.raises(_PivotLimit):
        lp_solve(lp)
    # 200 degenerate pivots in a row, with 9 variables over 3 rows: at most
    # 84 bases, so a basis recurs.
    assert runs[-1] == 200


def test_a_long_degenerate_run_falls_back_to_blands_rule(monkeypatch):
    lp = LinearProgram.build(*CYCLING)
    runs = _counted_pivots(monkeypatch)
    out = lp_solve(lp)
    assert max(runs) > ratlp._DEGENERATE_RUN == 50
    assert out == Optimal(Fraction(1), _fracs(2, 0, 1, 0, 1, 0)) and verify_outcome(lp, out)


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


def _nonneg_rows(n):
    return [
        ([Fraction(-1) if i == j else Fraction(0) for i in range(n)], LEQ, Fraction(0))
        for j in range(n)
    ]


def _integer_entry(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3))


def _rational_entry(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def _random_program(rng: random.Random, entry=_integer_entry) -> LinearProgram:
    n = rng.randint(0, 4)
    rows = []
    for _ in range(rng.randint(0, 6)):
        coeffs = [entry(rng) for _ in range(n)]
        rel = LEQ if rng.random() < 0.75 else EQ
        rows.append((coeffs, rel, entry(rng)))
    return LinearProgram.build([entry(rng) for _ in range(n)], rows)


def test_simplex_and_elimination_agree_on_feasibility():
    for entry, seed in ((_integer_entry, 20240917), (_rational_entry, 20241018)):
        rng = random.Random(seed)
        for _ in range(500):
            lp = _random_program(rng, entry)
            out = lp_solve(lp)
            assert verify_outcome(lp, out)
            feasible = not isinstance(out, Infeasible)
            rows = [(list(c), rel, b) for c, rel, b in lp.constraints]
            rows += _nonneg_rows(lp.num_vars)
            assert fm_feasible(rows) == feasible
            if isinstance(out, Optimal):
                # No feasible point does strictly better: checked by elimination.
                better = rows + [([-c for c in lp.objective], LT, -out.value)]
                assert not fm_feasible(better)


@given(st.integers(0, 2**31 - 1))
def test_solver_is_deterministic(seed):
    lp = _random_program(random.Random(seed))
    assert _witness(lp_solve(lp)) == _witness(lp_solve(lp))


def _wide_program(rng: random.Random) -> LinearProgram:
    """8-12 variables and as many rows, entries in [-3, 3], some right-hand
    sides 0. Negated copies of earlier rows pin a row to equality, which
    leaves artificials at 0 for the drive-out (often on a negative entry)
    and makes redundant rows."""
    n = rng.randint(8, 12)
    p_eq = rng.choice((0, 0, 0.5))
    rows = []
    for _ in range(n):
        if rows and rng.random() < 0.2:
            coeffs, rel, bound = rng.choice(rows)
            rows.append(([-v for v in coeffs], rel, -bound))
            continue
        rel = EQ if rng.random() < p_eq else LEQ
        bound = 0 if rng.random() < 0.3 else rng.randint(-3, 3)
        rows.append(([rng.randint(-3, 3) for _ in range(n)], rel, bound))
    return LinearProgram.build([rng.randint(-3, 3) for _ in range(n)], rows)


def test_wide_programs_verify():
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(200):
        lp = _wide_program(rng)
        out = lp_solve(lp)
        # verify_outcome checks the multipliers of every all-<= program.
        assert verify_outcome(lp, out)
        kinds.add((type(out), all(rel == LEQ for _, rel, _ in lp.constraints)))
    assert len(kinds) == 6


def _tampered_multipliers(y):
    """Multipliers that must fail: none, one short, and the first negative."""
    return [None, y[:-1], (Fraction(-1),) + y[1:]]


@given(st.integers(0, 2**31 - 1))
def test_all_leq_programs_carry_checked_multipliers(seed):
    rng = random.Random(seed)
    entry = _rational_entry if rng.random() < 0.5 else _integer_entry
    n = rng.randint(0, 4)
    rows = [([entry(rng) for _ in range(n)], LEQ, entry(rng)) for _ in range(rng.randint(1, 6))]
    lp = LinearProgram.build([entry(rng) for _ in range(n)], rows)
    out = lp_solve(lp)
    assert verify_outcome(lp, out)
    fm_rows = [(list(c), rel, b) for c, rel, b in lp.constraints] + _nonneg_rows(n)
    assert fm_feasible(fm_rows) == (not isinstance(out, Infeasible))
    if isinstance(out, Unbounded):
        return
    assert len(out.multipliers) == len(rows)
    for y in _tampered_multipliers(out.multipliers):
        forged = Optimal(out.value, out.assignment, y) if isinstance(out, Optimal) else Infeasible(y)
        assert not verify_outcome(lp, forged)


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
    # A program with an equality row carries none.
    assert lp_solve(LinearProgram.build([1], [([1], EQ, 2)])).multipliers is None
