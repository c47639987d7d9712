"""Exact rational linear programming.

Arithmetic is exact, so open/closed cone distinctions never fall to
rounding. A program stores its rows as integers over one positive integer
``scale`` (the cone tests pass their gambles' directions so, and rational
rows are converted once); the witnesses returned are ``Fraction``s, and the
simplex computes in integers. Two independent decision paths are provided:

* :func:`lp_solve` -- two-phase primal simplex, its phase 1 in one
  auxiliary column (Chvatal 1983). It enters the column with the largest
  reduced cost (Dantzig's rule, read on the tableau of the stored integer
  rows) and falls back to Bland's smallest-index rule during a long run
  of degenerate pivots, so it ends on degenerate programs too. It returns
  witnesses that re-verify by substitution for every outcome: an
  ``Infeasible`` outcome carries a Farkas ray and an ``Optimal`` one its
  dual, both read off the final tableau. That needs every row to be
  ``<=``, so :class:`LinearProgram` stores an equality system as its
  ``<=`` rows and one aggregate row that turns them back into equalities.
  Internally it keeps an integer, fraction-free tableau (Edmonds 1967;
  Bareiss 1968) of the nonbasic columns only (Avis's lrs) and converts to
  ``Fraction`` only for the values it returns.
* :func:`fm_feasible` -- Fourier-Motzkin elimination, the designated
  brute-force feasibility oracle for differential testing. Beyond the scalar
  type it shares no code with the simplex.

All variables handled by :func:`lp_solve` are implicitly constrained to be
nonnegative; :func:`fm_feasible` has no implicit constraints.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from fractions import Fraction
from operator import attrgetter, mul
from typing import Iterable, Optional, Sequence, Union

RationalLike = Union[int, str, Fraction]
# An exact number as the arithmetic takes it: an int or a Fraction.
Exact = Union[int, Fraction]

LEQ = "<="
EQ = "=="
LT = "<"

_RELATIONS = (LEQ, EQ, LT)

# A row as given to LinearProgram, and a row as it stores it: integers over
# the program's scale, and always "<=".
Row = tuple[tuple[Exact, ...], str, Exact]
Constraint = tuple[tuple[int, ...], str, int]


# The string forms of a rational: "n", "-n" and "n/d" in ASCII digits, the
# numerator and the denominator as groups.
_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, Fraction, or string ("3", "-3", "3/4").

    Floats are rejected outright: they carry rounding error and would poison
    every downstream cone test. A string must have one of the forms "n",
    "-n" or "n/d", whose digits ``int()`` reads from the match's groups (the
    string is parsed once), so a short decimal or exponent string ("1.5",
    "1e100000") cannot build a huge integer. A malformed string, a zero
    denominator or an over-long integer is a ``ValueError`` that quotes at
    most the string's first 40 characters.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass an int, string, or Fraction")
    if isinstance(value, str):
        match = _RATIONAL_TEXT.fullmatch(value)
        if match is None:
            raise ValueError(f'{quoted(value)} is not a rational of the form "n", "-n" or "n/d"')
        num, den = match.groups()
        try:
            return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {quoted(value)}") from None
        except ValueError:  # the grammar leaves only the digit limit of int()
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"{quoted(value)} has an integer of over {limit} digits") from None
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def quoted(text: str) -> str:
    """``text`` quoted for a diagnostic; one longer than 40 characters is cut
    there and its length named, so one entry or argument cannot flood
    stderr."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def rational_str(value: Fraction) -> str:
    """Canonical wire form: "n" or "n/d" with d > 0 and gcd(|n|, d) = 1.

    An integer over the digit limit of ``int()`` is a ``ValueError`` that
    says so: :func:`rational` could not read it back."""
    try:
        return str(value)
    except ValueError:  # str() of an int raises nothing else
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"an answer entry has an integer of over {limit} digits") from None


_set = object.__setattr__


class Value:
    """Base of the engine's immutable value classes.

    A subclass names its fields in ``_fields``, declares them in
    ``__slots__`` and sets them in its own ``__init__`` with
    ``object.__setattr__``; afterwards assignment and deletion raise
    ``AttributeError``. Two values are equal, and hash alike, when they are
    of the same class and their compared fields are equal: all of
    ``_fields``, or those a subclass passes as ``compared``. Plain classes
    instead of dataclasses keep ``dataclasses``, and the ``inspect`` it
    imports, out of every command-line process.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, compared: Optional[tuple[str, ...]] = None) -> None:
        names = cls._fields if compared is None else compared
        cls._key = staticmethod(attrgetter(*names) if names else lambda value: ())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def _cached_hash(self) -> int:
        """``__hash__`` computed once and kept in a ``_hash`` slot that
        ``__init__`` sets to None, for the values that key dicts and caches."""
        h = self._hash
        if h is None:
            h = hash(self._key(self))
            _set(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Every ``__init__`` takes the fields in ``_fields`` order, so copies
        # and pickles are rebuilt through it instead of assigning slots.
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LinearProgram(Value):
    """maximize objective . x  subject to the constraint rows and x >= 0.

    Rows may be given as ``<=`` or ``==``, with int or ``Fraction`` entries,
    and are stored all ``<=``, as integers over the positive integer
    ``scale``: each stored row stands for itself divided by ``scale``.
    Integer rows are stored as given; rational ones are multiplied once by
    the least common denominator of their entries, which joins ``scale``.
    The equality rows A x = b then become A x <= b and one aggregate row
    -sum(A x) <= -sum(b), appended last: together they force A x = b, so
    every outcome of :func:`lp_solve` has multipliers to check. The
    objective, ints or ``Fraction``s, is kept as given."""

    __slots__ = _fields = ("num_vars", "objective", "constraints", "scale")

    def __init__(self, num_vars: int, objective: tuple[Exact, ...],
                 constraints: tuple[Row, ...], scale: int = 1) -> None:
        if num_vars < 0 or scale < 1:
            raise ValueError("num_vars must be nonnegative and scale positive")
        if len(objective) != num_vars:
            raise ValueError("objective length does not match num_vars")
        kinds = set(map(type, objective))
        for coeffs, rel, bound in constraints:
            if len(coeffs) != num_vars:
                raise ValueError("constraint row length does not match num_vars")
            if rel not in (LEQ, EQ):
                raise ValueError(f"unsupported relation {rel!r} in linear program")
            kinds.update(map(type, coeffs))
            kinds.add(type(bound))
        if not kinds <= {int}:
            if not kinds <= {int, Fraction}:
                raise TypeError("linear program entries must be ints or Fractions")
            own = denominator(v for coeffs, _, bound in constraints for v in (*coeffs, bound))
            constraints = tuple(
                (tuple(v.numerator * (own // v.denominator) for v in coeffs), rel,
                 bound.numerator * (own // bound.denominator))
                for coeffs, rel, bound in constraints
            )
            scale *= own
        equalities = [(coeffs, bound) for coeffs, rel, bound in constraints if rel == EQ]
        if equalities:
            total = tuple(-sum(col) for col in zip(*(c for c, _ in equalities)))
            constraints = tuple((coeffs, LEQ, bound) for coeffs, _, bound in constraints) + (
                (total, LEQ, -sum(b for _, b in equalities)),
            )
        _set(self, "num_vars", num_vars)
        _set(self, "objective", objective)
        _set(self, "constraints", constraints)
        _set(self, "scale", scale)

    @classmethod
    def build(
        cls,
        objective: Sequence[RationalLike],
        constraints: Iterable[tuple[Sequence[RationalLike], str, RationalLike]],
    ) -> "LinearProgram":
        obj = tuple(rational(v) for v in objective)
        rows = tuple(
            (tuple(rational(v) for v in coeffs), rel, rational(bound))
            for coeffs, rel, bound in constraints
        )
        return cls(len(obj), obj, rows)


class Optimal(Value, compared=("value", "assignment")):
    """An optimal vertex. ``multipliers`` is an optimal dual, one entry per
    stored row: y >= 0 with A^T y >= objective and b . y = value. The
    multipliers take no part in equality."""

    __slots__ = _fields = ("value", "assignment", "multipliers")

    def __init__(self, value: Fraction, assignment: tuple[Fraction, ...],
                 multipliers: Optional[tuple[Fraction, ...]] = None) -> None:
        _set(self, "value", value)
        _set(self, "assignment", assignment)
        _set(self, "multipliers", multipliers)


class Unbounded(Value):
    __slots__ = _fields = ("feasible_point", "improving_ray")

    def __init__(self, feasible_point: tuple[Fraction, ...],
                 improving_ray: tuple[Fraction, ...]) -> None:
        _set(self, "feasible_point", feasible_point)
        _set(self, "improving_ray", improving_ray)


class Infeasible(Value, compared=()):
    """No feasible point. ``multipliers`` is a Farkas ray, one entry per
    stored row: y >= 0 with A^T y >= 0 and b . y < 0, so every x >= 0 has
    y . (A x) >= 0 > y . b, and A x <= b fails. The multipliers take no part
    in equality, so all ``Infeasible`` outcomes are equal."""

    __slots__ = _fields = ("multipliers",)

    def __init__(self, multipliers: Optional[tuple[Fraction, ...]] = None) -> None:
        _set(self, "multipliers", multipliers)


LPOutcome = Union[Optimal, Unbounded, Infeasible]

_ZERO = Fraction(0)


def _pivot(rows: list[list[int]], basis: list[int], nb: list[int], d: int, r: int, c: int) -> int:
    """Fraction-free pivot on (r, c) of the condensed tableau; returns the
    new common denominator. The leaving variable takes column c.

    The rational tableau is ``rows / d`` before and after, and each basic
    column is ``d`` in its own row. Every other row takes
    ``(p * row - row[c] * rows[r]) / d``, and ``-row[c]`` in column c; row r
    takes ``d`` there. Every division is exact: each entry is a basis minor
    of the scaled integer program (Bareiss), and ``d`` is that basis's
    determinant up to sign. Past the rows of ``basis``, ``rows`` may hold
    the objective row.
    """
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        f = row[c]
        if i == r or not f and p == d:
            continue
        if f:
            row = [(p * a - f * b) // d for a, b in zip(row, prow)]
            row[c] = -f
        else:
            row = [p * a // d for a in row]
        rows[i] = row
    prow[c] = d
    basis[r], nb[c] = nb[c], basis[r]
    if p < 0:
        # Only x0's drive-out pivot (no objective row) can be negative; its
        # entering pivot is built in. Keep d positive so that the signs read
        # off the integer rows are the rational signs.
        rows[:] = [[-v for v in row] for row in rows]
        p = -p
    return p


# Consecutive degenerate pivots after which :func:`_run_simplex` enters by
# Bland's smallest-index rule, until its next nondegenerate pivot.
_DEGENERATE_RUN = 50


def _run_simplex(rows: list[list[int]], basis: list[int], nb: list[int],
                 d: int) -> tuple[int, int | None]:
    """The primal simplex loop over ``rows``, whose last row is the
    objective row. Returns the final denominator and None at optimality,
    else the entering column witnessing unboundedness.

    The entering column is the one with the largest positive entry of the
    integer objective row (Dantzig), ties going to the smallest variable
    index. After ``_DEGENERATE_RUN`` consecutive degenerate pivots (the
    leaving row's right-hand side is 0) it is the smallest improving
    variable instead (Bland), until the next nondegenerate pivot. The
    leaving row has the least ratio, ties going to the smallest basic
    variable.

    The loop ends: a nondegenerate pivot strictly raises the objective, so
    no basis seen before it recurs after it, and a degenerate run ends
    within ``_DEGENERATE_RUN`` pivots or turns into a run of Bland pivots,
    which cannot cycle (Bland, Math. Oper. Res. 1977). The bases are
    finitely many, so finitely many pivots are taken.
    """
    degenerate = 0
    while True:
        objrow = rows[-1]
        bland = degenerate >= _DEGENERATE_RUN
        enter, best, best_j = None, 0, 0
        for c, j in enumerate(nb):
            v = objrow[c]
            if v > 0:
                if bland:
                    v = 1  # every improving column ranks alike
                if v > best or v == best and j < best_j:
                    enter, best, best_j = c, v, j
        if enter is None:
            return d, None
        leave = None
        for r, row in enumerate(rows[:-1]):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, best_b, best_a = r, row[-1], a
                    continue
                # rhs_r / a_r against the best ratio; d cancels.
                lhs, rhs = row[-1] * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, best_b, best_a = r, row[-1], a
        if leave is None:
            return d, enter
        degenerate = 0 if best_b else degenerate + 1
        d = _pivot(rows, basis, nb, d, leave, enter)


def denominator(values: Iterable[Fraction]) -> int:
    """The least common denominator of ``values``."""
    return math.lcm(*{v.denominator for v in values})


def _multipliers(objrow: list[int], nb: list[int], n: int, m: int, scale: int,
                 den: int) -> tuple[Fraction, ...]:
    """The row multipliers at the end of a phase: minus the objective row's
    entries in the slack columns, row i's slack being variable n + i (0
    while basic). The rational objective row is ``objrow / den``, and each
    scaled slack is ``scale`` times its row's own slack, which multiplies
    its reduced cost by 1/scale. Termination leaves every reduced cost at
    most 0, so the multipliers are nonnegative."""
    y = [_ZERO] * m
    for c, j in enumerate(nb):
        if n <= j < n + m and objrow[c]:
            y[j - n] = Fraction(-objrow[c] * scale, den)
    return tuple(y)


def lp_solve(lp: LinearProgram) -> LPOutcome:
    """Exact two-phase simplex. Every outcome carries a witness that
    verifies by substitution (see :func:`verify_outcome`).

    Pivoting (:func:`_run_simplex`) enters the column with the largest
    positive reduced cost and switches to Bland's smallest-index rule after
    ``_DEGENERATE_RUN`` consecutive degenerate pivots, until the next
    nondegenerate one. A nondegenerate pivot strictly raises the objective
    and Bland's rule cannot cycle, so the simplex ends.

    The tableau is kept in integers over one positive common denominator.
    The stored rows are integers over ``L`` = ``scale``, and they are its
    rows as they are: the rational program with every row multiplied by the
    same ``L``. That only rescales each slack and the auxiliary variable by
    ``L``, which divides its reduced cost by ``L``: "largest" is read on the
    stored rows, which are the rational tableau when ``L`` = 1. Bland's
    rule and the ratio test read only signs, ratios and indices, so they
    take the rational tableau's pivots; a separate factor per row would give
    the auxiliary variable a different weight in each row and change the
    path. The objective is scaled by its own common denominator, which
    scales every reduced cost alike.

    The tableau is condensed (as in Avis's lrs): a row holds only the
    nonbasic columns, variable ``nb[c]`` in column c, and the right-hand
    side. Both rules read variable indices, not columns, so they take the
    full tableau's path. Phase 1 is Chvatal's auxiliary problem: where a
    right-hand side is negative, x0 (variable n + m) enters every row with
    coefficient -1, and phase 1 maximises -x0. x0 enters on the most
    negative right-hand side (ties to the smaller row) by a pivot built into
    the integer rows. An optimum below 0 reads its Farkas ray off the slack
    columns; at 0, x0 leaves the basis, by one drive-out pivot if need be
    (every row has a slack, so the rows have full rank), and its column is
    dropped.
    """
    n, m, scale = lp.num_vars, len(lp.constraints), lp.scale
    ncols = n + m
    rows = [[*coeffs, bound] for coeffs, _, bound in lp.constraints]
    basis = list(range(n, ncols))
    nb = list(range(n))
    d = 1
    low_b, low = min(((row[-1], i) for i, row in enumerate(rows)), default=(0, 0))
    if low_b < 0:
        # x0 enters on row low with pivot entry -1, so d stays 1: row i
        # becomes row i minus row low, row low is negated, and each holds -1
        # in the entering column, which now holds row low's slack.
        prow = rows[low]
        rows = [[a - b for a, b in zip(row, prow)] for row in rows]
        rows[low] = [-v for v in prow]
        for row in rows:
            row.insert(n, -1)
        basis[low] = ncols
        nb.append(n + low)
        rows.append(rows[low][:])  # -x0 in the nonbasic columns: row low
        d, _ = _run_simplex(rows, basis, nb, d)
        objrow = rows.pop()
        if objrow[-1] != 0:
            return Infeasible(_multipliers(objrow, nb, n, m, scale, d))
        if ncols in basis:  # x0 is basic at 0: drive it out
            r = basis.index(ncols)
            _, c = min((j, c) for c, j in enumerate(nb) if rows[r][c])
            d = _pivot(rows, basis, nb, d, r, c)
        # x0 never enters again; drop its column.
        c = nb.index(ncols)
        del nb[c]
        for row in rows:
            del row[c]

    cscale = denominator(lp.objective)
    cost = [v.numerator * (cscale // v.denominator) for v in lp.objective]
    objrow = [d * cost[j] if j < n else 0 for j in nb] + [0]
    for r, row in enumerate(rows):
        f = cost[basis[r]] if basis[r] < n else 0
        if f:
            objrow = [a - f * b for a, b in zip(objrow, row)]
    rows.append(objrow)
    d, enter = _run_simplex(rows, basis, nb, d)
    objrow = rows.pop()
    point = [0] * ncols
    for r, row in enumerate(rows):
        point[basis[r]] = row[-1]
    x = tuple(Fraction(v, d) for v in point[:n])
    if enter is None:
        y = _multipliers(objrow, nb, n, m, scale, d * cscale)
        return Optimal(Fraction(-objrow[-1], d * cscale), x, y)
    # Each scaled slack is L times the original one, so a ray entering along
    # a slack column comes out 1/L of the original ray; restore it.
    ray_scale = 1 if nb[enter] < n else scale
    ray = [0] * ncols
    ray[nb[enter]] = d
    for r, row in enumerate(rows):
        ray[basis[r]] = -row[enter] * ray_scale
    return Unbounded(x, tuple(Fraction(v, d) for v in ray[:n]))


def dot(a: Sequence, b: Sequence):
    """The exact dot product of two vectors of ints or Fractions."""
    return sum(map(mul, a, b))


def satisfies(constraints: Iterable[Constraint], x: Sequence[Fraction]) -> bool:
    """Exact substitution check of every (``<=``) row of a program."""
    return all(dot(coeffs, x) <= bound for coeffs, _, bound in constraints)


def verify_outcome(lp: LinearProgram, outcome: LPOutcome) -> bool:
    """Re-verify a solver witness by exact substitution.

    ``Optimal``: the assignment is feasible and attains the value, and the
    multipliers y >= 0, one per row, are an optimal dual (A^T y >=
    objective, b . y = value). ``Infeasible``: the multipliers are a Farkas
    ray (y >= 0, A^T y >= 0, b . y < 0). ``Unbounded``: the point is
    feasible, the ray keeps every row and the nonnegativity bounds satisfied
    forever, and the objective strictly increases along it. The rows are
    read over ``lp.scale``, which the dual checks multiply out.
    """
    if isinstance(outcome, (Infeasible, Optimal)):
        y = outcome.multipliers
        if y is None or len(y) != len(lp.constraints) or any(v < 0 for v in y):
            return False
        lower = (_ZERO,) * lp.num_vars if isinstance(outcome, Infeasible) else lp.objective
        for j, c in enumerate(lower):
            if dot([coeffs[j] for coeffs, _, _ in lp.constraints], y) < c * lp.scale:
                return False
        by = dot(tuple(bound for _, _, bound in lp.constraints), y)
        if isinstance(outcome, Infeasible):
            return by < 0
        x = outcome.assignment
        return (
            by == outcome.value * lp.scale
            and len(x) == lp.num_vars
            and all(v >= 0 for v in x)
            and satisfies(lp.constraints, x)
            and dot(lp.objective, x) == outcome.value
        )
    if isinstance(outcome, Unbounded):
        p, d = outcome.feasible_point, outcome.improving_ray
        if len(p) != lp.num_vars or len(d) != lp.num_vars:
            return False
        if not (all(v >= 0 for v in p) and satisfies(lp.constraints, p)):
            return False
        if not all(v >= 0 for v in d):
            return False
        if any(dot(coeffs, d) > 0 for coeffs, _, _ in lp.constraints):
            return False
        return dot(lp.objective, d) > 0
    return False


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------


def _constant_holds(rel: str, bound: Fraction) -> bool:
    # Only "<=" and "<" rows get here: fm_feasible substitutes "==" rows away.
    if rel == LEQ:
        return bound >= 0
    return bound > 0


def fm_feasible(
    constraints: Iterable[tuple[Sequence[RationalLike], str, RationalLike]],
) -> bool:
    """Decide feasibility by Fourier-Motzkin variable elimination.

    Relations may be "<=", "==", or "<" (the strict form is what lets the
    oracle decide open conditions such as "some coefficient positive" in one
    shot). No implicit sign constraints: include them as rows if wanted. The
    first row fixes the number of variables; a row of another length is a
    ValueError.
    """
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    width = None
    for coeffs, rel, bound in constraints:
        c = [rational(v) for v in coeffs]
        if width is None:
            width = len(c)
        elif len(c) != width:
            raise ValueError("constraint rows of unequal length")
        if rel not in _RELATIONS:
            raise ValueError(f"unsupported relation {rel!r}")
        rows.append((c, rel, rational(bound)))

    # Consume equalities by substitution, one variable per equality row.
    while True:
        pivot = None
        rest: list[tuple[list[Fraction], str, Fraction]] = []
        for c, rel, b in rows:
            if pivot is None and rel == EQ:
                j = next((j for j, v in enumerate(c) if v), None)
                if j is None:
                    if b != 0:
                        return False
                    continue
                pivot = (c, b, j)
                continue
            rest.append((c, rel, b))
        if pivot is None:
            rows = rest
            break
        pc, pb, pj = pivot
        rows = []
        for c, rel, b in rest:
            if c[pj] != 0:
                f = c[pj] / pc[pj]
                c = [a - f * p for a, p in zip(c, pc)]
                b = b - f * pb
            rows.append((c, rel, b))

    while True:
        # A row without variables holds or fails as it stands.
        if not all(_constant_holds(rel, b) for c, rel, b in rows if not any(c)):
            return False
        rows = [row for row in rows if any(row[0])]
        if not rows:
            return True
        counts = {}
        for c, _, _ in rows:
            for j, v in enumerate(c):
                if v != 0:
                    pos, neg = counts.get(j, (0, 0))
                    counts[j] = (pos + (v > 0), neg + (v < 0))
        target = min(counts, key=lambda j: (counts[j][0] * counts[j][1], j))
        upper = [row for row in rows if row[0][target] > 0]
        lower = [row for row in rows if row[0][target] < 0]
        new = [row for row in rows if row[0][target] == 0]
        for (cu, ru, bu), (cl, rl, bl) in itertools.product(upper, lower):
            fu, fl = cu[target], -cl[target]
            c = [a / fu + d / fl for a, d in zip(cu, cl)]
            b = bu / fu + bl / fl
            rel = LT if (ru == LT or rl == LT) else LEQ
            new.append((c, rel, b))
        rows = new
