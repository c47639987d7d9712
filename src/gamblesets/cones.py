"""Cone membership with verifiable certificates.

``posi(E)`` is the positive linear hull of a finite generator list: all
combinations with nonnegative coefficients, at least one positive (so the
hull of the empty list is empty). ``desext(E)`` augments the generators with
every gamble weakly dominating zero; membership decomposes as

    f in desext(E)  iff  f weakly dominates 0, or some positive combination
    h of E satisfies f >= h componentwise.

Every "yes" answer returns a :class:`Certificate` whose coefficients and
remainder reconstruct the queried gamble exactly, so any third party can
re-check the answer by substitution, done here in integers over one common
denominator (:func:`gambles.substitute`), where remainders are formed
(:meth:`Certificate.over`) and checked. A weak-mode "no" from a cone LP is
backed by a :class:`Refutation`, the LP's dual vector (Farkas' lemma), which
is checked by substitution too and read with :func:`desext_refutation`.
:func:`answer_holds` decides whether recorded evidence proves an answer. The
strict variant replaces "weakly dominates" with "strictly dominates"
throughout; over a finite space its extra branch is an epsilon of uniform
slack above a positive combination.

Each test solves one exact LP over lambda >= 0 (t >= 0 in strict mode),
the strict test one or two:

* posi:   maximise sum(lambda) subject to E lambda = f.
* zero:   maximise sum(lambda) subject to E lambda <= 0, sum(lambda) <= 1.
* desext: find any lambda with E lambda <= f (f = 0 is the zero test).
* strict: maximise t subject to E lambda + t 1 <= f, t <= 1; then posi,
  only when that program's optimum is t = 0.

Over one generator b, the zero, desext and strict tests solve no LP: the
ratios f_i / b_i bound lambda in an interval, read in O(n) (:func:`_bounds`).
Every test reads the gambles' integer directions (:func:`_program`) and
forms ``Fraction``s only for the coefficients and entries it returns.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

from .gambles import (
    DimensionMismatch,
    Gamble,
    PossibilitySpace,
    combination,
    direction,
    dot,
    in_cone_gt0,
    in_cone_wd0,
    substitute,
    zero,
)
from .ratlp import (
    EQ,
    LEQ,
    Exact,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    Value,
    denominator,
    lp_solve,
    rational_str,
)

# Entries kept by each decision cache, so a long-lived process stays bounded.
# A whole 256-query ``lib-session`` benchmark corpus fills at most 2,147
# ``_desext_cert`` entries, so no benchmark run evicts.
_CACHE_SIZE = 1 << 14

_set = object.__setattr__


class ConeGenerators(Value):
    """A deduplicated, order-preserving list of generator gambles."""

    __slots__ = ("space", "generators", "_hash")
    _fields = ("space", "generators")

    def __init__(self, space: PossibilitySpace, generators: Iterable[Gamble]) -> None:
        generators = tuple(generators)
        if any(g.space is not space and g.space != space for g in generators):
            raise DimensionMismatch("generator from a different space")
        _set(self, "space", space)
        _set(self, "generators", generators)
        _set(self, "_hash", None)

    __hash__ = Value._cached_hash

    @classmethod
    def build(cls, space: PossibilitySpace, gambles: Iterable[Gamble]) -> "ConeGenerators":
        return cls(space, tuple(dict.fromkeys(gambles)))

    def __len__(self) -> int:
        return len(self.generators)


class Certificate(Value):
    """Coefficients plus remainder witnessing a cone membership: the
    certified gamble f is sum(lambdas[i] * E[i]) + remainder, with E the
    generator list the query was posed over. The coefficients are ints or
    ``Fraction``s."""

    __slots__ = _fields = ("lambdas", "remainder")

    def __init__(self, lambdas: tuple[Exact, ...], remainder: Gamble) -> None:
        _set(self, "lambdas", lambdas)
        _set(self, "remainder", remainder)

    @classmethod
    def over(cls, E: ConeGenerators, lambdas: tuple[Exact, ...], f: Gamble) -> "Certificate":
        """The certificate of f with these coefficients over E: the
        remainder is what their combination of E leaves of f."""
        minus = (1, *map(operator.neg, lambdas))
        return cls(lambdas, combination(minus, (f, *E.generators), E.space))

    def reconstructs(self, generators: ConeGenerators, f: Gamble) -> bool:
        """Whether E lambda + remainder - f is zero, substituted in integers.
        Nothing on another space or of another length is."""
        space, rem = generators.space, self.remainder
        if len(self.lambdas) != len(generators) or rem.space != space or f.space != space:
            return False
        terms = (*generators.generators, rem, f)
        return not any(substitute((*self.lambdas, 1, -1), terms, space)[1])

    def serialized(self) -> dict:
        lambdas = [rational_str(v) for v in self.lambdas]
        return {"lambdas": lambdas, "remainder": self.remainder.serialized()}


class Refutation(Value):
    """A vector y >= 0 over the atoms proving that a gamble f, not weakly
    positive, lies outside desext(E), in one of two forms:

    * ``"empty"``: y . g >= 0 for every generator g and y . f < 0;
    * ``"sum"``: y . g >= 1 for every generator g and y . f <= 0.

    Any lambda >= 0 with E lambda <= f has y . (E lambda) <= y . f, which
    rules out every lambda in the first form and every lambda with a positive
    sum in the second; f itself is not weakly positive, so nothing is left
    (Farkas' lemma). A gamble g' added to E with y . g' >= 0 (>= 1) keeps the
    proof.
    """

    __slots__ = ("form", "y", "direction", "_checked")
    _fields = ("form", "y")

    def __init__(self, form: str, y: tuple[Fraction, ...]) -> None:
        _set(self, "form", form)
        _set(self, "y", y)
        _set(self, "direction", direction(y))  # y over its least common denominator
        _set(self, "_checked", False)

    def refutes(self, generators: ConeGenerators, f: Gamble) -> bool:
        """The substitution check of the proof for f against ``generators``,
        in integers: with Y and G the least common denominators of y and g,
        y . g >= c exactly when direction(y) . direction(g) >= c Y G."""
        if self.form not in ("empty", "sum") or len(self.y) != generators.space.size:
            return False
        if f.space != generators.space or in_cone_wd0(f):
            return False
        y = self.direction
        least = denominator(self.y) if self.form == "sum" else 0
        gens = generators.generators
        if any(v < 0 for v in y) or any(dot(y, g.direction) < least * g.denominator for g in gens):
            return False
        yf = dot(y, f.direction)
        return yf <= 0 if self.form == "sum" else yf < 0

    def checked(self, generators: ConeGenerators, f: Gamble) -> "Refutation":
        """The refutation, once it passes :meth:`refutes` (checked on the
        first call only). A dual vector of a cone LP always does, so a
        failure is a fault of the solver."""
        if not self._checked:
            if not self.refutes(generators, f):
                raise ArithmeticError(f"{self} refutes nothing")
            _set(self, "_checked", True)
        return self

    @classmethod
    def from_direction(
        cls, y: Sequence[int], generators: ConeGenerators, f: Gamble
    ) -> "Refutation":
        """The refutation that an integer vector y >= 0 proves when
        y . g >= 0 for every generator g and y . f < 0 (``"empty"``), or
        when y . g > 0 for every g and y . f = 0 (``"sum"``, scaled so that
        its least product with a generator is 1)."""
        if dot(y, f.direction) < 0:
            return cls("empty", tuple(y)).checked(generators, f)
        least = min(Fraction(dot(y, g.direction), g.denominator) for g in generators.generators)
        return cls("sum", tuple(v / least for v in y)).checked(generators, f)

    def serialized(self) -> dict:
        return {"form": self.form, "y": [rational_str(v) for v in self.y]}


Decision = Union[Certificate, Refutation, None]


def _only(kind: type, decision: Decision):
    return decision if isinstance(decision, kind) else None


def _valid(cert: Certificate, generators: ConeGenerators, f: Gamble, positive) -> bool:
    """The coefficients are nonnegative, they and the remainder reconstruct
    f, and the remainder is ``positive`` or, once some coefficient is
    positive, zero."""
    if any(l.numerator < 0 for l in cert.lambdas) or not cert.reconstructs(generators, f):
        return False
    rem = cert.remainder
    return positive(rem) or (any(cert.lambdas) and not any(rem.direction))


def certificate_valid(cert: Certificate, generators: ConeGenerators, f: Gamble) -> bool:
    """Validity for weak-mode certificates: a weakly positive remainder, or
    a positive-coefficient combination with a zero one (together: a
    nonnegative remainder)."""
    return _valid(cert, generators, f, in_cone_wd0)


def certificate_valid_strict(cert: Certificate, generators: ConeGenerators, f: Gamble) -> bool:
    """Validity in strict mode: a strictly positive remainder, or a
    positive-coefficient combination with a zero one."""
    return _valid(cert, generators, f, in_cone_gt0)


def answer_holds(
    E: ConeGenerators,
    f: Gamble,
    strict: bool,
    certificate: Optional[Certificate] = None,
    refutation: Optional[Refutation] = None,
) -> bool:
    """Whether recorded evidence proves one cone answer: f in desext(E) (the
    strict cone when ``strict``) by a certificate valid in the mode, with no
    refutation beside it, or else f outside it. Then f must not be positive
    in the mode, and a weak answer over generators needs a refutation of f;
    any other records none. The one rule of both certificate verifiers."""
    if certificate is not None:
        valid = certificate_valid_strict if strict else certificate_valid
        return refutation is None and valid(certificate, E, f)
    if (in_cone_gt0 if strict else in_cone_wd0)(f):
        return False
    if strict or not E.generators:
        return refutation is None
    return refutation is not None and refutation.refutes(E, f)


def _check_query(generators: ConeGenerators, f: Gamble) -> None:
    if f.space is not generators.space and f.space != generators.space:
        raise DimensionMismatch("queried gamble lives on a different space")


def _positive_sum_witness(outcome, k: int) -> Optional[tuple[Fraction, ...]]:
    """Extract lambda >= 0 with positive coordinate sum over the first k
    variables from an Optimal(>0) or Unbounded outcome."""
    if isinstance(outcome, Optimal):
        lam = outcome.assignment[:k]
        return lam if sum(lam) > 0 else None
    if isinstance(outcome, Unbounded):
        p, d = outcome.feasible_point[:k], outcome.improving_ray[:k]
        sp, sd = sum(p), sum(d)
        # objective is the coordinate sum, so sd > 0; push to sum >= 1
        t = 0 if sp >= 1 else (1 - sp) / sd
        return tuple(a + t * b for a, b in zip(p, d))
    return None


def _program(E: ConeGenerators, objective: tuple, rel: str, f: Gamble, extra: tuple = (),
             last: Optional[tuple] = None) -> LinearProgram:
    """The LP maximising ``objective`` subject to, per atom, the generators'
    entries and then ``extra`` ``rel`` f's entry, and ``last`` <= 1 if given:
    integer rows over L, the lcm of every entry's denominator, on which
    :func:`lp_solve` takes the pivots of the rational rows."""
    L = math.lcm(f.denominator, *(g.denominator for g in E.generators))
    cols = zip(*(
        g.direction if g.denominator == L else [v * (L // g.denominator) for v in g.direction]
        for g in E.generators
    ))
    m, extra = L // f.denominator, tuple(v * L for v in extra)
    rows = tuple((col + extra, rel, b * m) for col, b in zip(cols, f.direction))
    if last is not None:
        rows += ((tuple(v * L for v in last), LEQ, L),)
    return LinearProgram(len(objective), objective, rows, L)


def positive_witness(
    E: ConeGenerators, rel: str, f: Gamble, counted: Optional[int] = None
) -> Optional[tuple[Fraction, ...]]:
    """Some lambda >= 0 with E lambda ``rel`` f and a positive sum over its
    first ``counted`` coefficients (all by default), the only ones returned;
    or None. It solves the LP that maximises that sum. The one home of the
    "positive combination" program, which the formulations and the
    derivation engine ask too."""
    k = len(E)
    if k == 0:
        return None
    n = k if counted is None else counted
    lp = _program(E, (1,) * n + (0,) * (k - n), rel, f)
    return _positive_sum_witness(lp_solve(lp), n)


@lru_cache(maxsize=_CACHE_SIZE)
def _posi_cert(E: ConeGenerators, f: Gamble) -> Optional[Certificate]:
    lam = positive_witness(E, EQ, f)
    return None if lam is None else Certificate(lam, zero(E.space))


def _bounds(b: Gamble, f: Gamble) -> tuple:
    """What lambda b <= f asks of lambda, atom by atom: the atoms where b is
    zero, then the greatest ratio f_i / b_i over b_i < 0 (a lower bound) and
    the least over b_i > 0 (an upper bound), each as (ratio, atom), or None
    where there is none. Ratios are compared by cross-multiplying."""
    zeros, lo, hi = [], None, None
    for i, (x, y) in enumerate(zip(f.direction, b.direction)):
        if not y:
            zeros.append(i)
        elif y < 0:
            if lo is None or x * lo[1] > lo[0] * y:
                lo = (x, y, i)
        elif hi is None or x * hi[1] < hi[0] * y:
            hi = (x, y, i)
    B, F = b.denominator, f.denominator
    return zeros, *(r and (Fraction(r[0] * B, r[1] * F), r[2]) for r in (lo, hi))


def _sparse(n: int, entries: dict) -> tuple[Fraction, ...]:
    return tuple(entries.get(i, 0) for i in range(n))


@lru_cache(maxsize=_CACHE_SIZE)
def _desext_cert(E: ConeGenerators, f: Gamble) -> Decision:
    """Once f has failed to be weakly positive, either f has a negative
    coordinate or f = 0. In the first case lambda = 0 violates
    E lambda <= f, so every feasible point has a positive coefficient and
    certifies f; a zero objective lets phase 1 alone decide, over one
    auxiliary column that the rows of f's negative coordinates share, and
    its Farkas ray refutes f when there is none. In the second case that
    program would return lambda = 0, which certifies nothing, so the
    homogeneous question goes to :func:`_zero_cert`.

    Over one generator b, f's negative coordinate needs b < 0 there, so the
    lower bound is positive and is the least coefficient. The refutation
    when there is none is e_i at an atom with b_i = 0 > f_i, e_j at an
    upper bound below zero, or b_j e_i - b_i e_j where a lower bound i
    exceeds an upper bound j."""
    if in_cone_wd0(f):
        return Certificate((0,) * len(E), f)
    if not any(f.direction):
        return _zero_cert(E)
    k = len(E)
    if k == 0:
        return None
    if k == 1:
        b = E.generators[0]
        zeros, lo, hi = _bounds(b, f)
        i = next((i for i in zeros if f.direction[i] < 0), None)
        if i is not None:
            y = {i: 1}
        elif hi is not None and hi[0] < 0:
            y = {hi[1]: 1}
        elif hi is not None and lo[0] > hi[0]:
            i, j, B = lo[1], hi[1], b.denominator
            y = {i: Fraction(b.direction[j], B), j: Fraction(-b.direction[i], B)}
        else:
            return Certificate.over(E, (lo[0],), f)
        return Refutation("empty", _sparse(f.space.size, y))
    outcome = lp_solve(_program(E, (0,) * k, LEQ, f))
    if isinstance(outcome, Infeasible):
        return Refutation("empty", outcome.multipliers)
    return Certificate.over(E, outcome.assignment, f)


@lru_cache(maxsize=_CACHE_SIZE)
def _zero_cert(E: ConeGenerators) -> Decision:
    """Over one generator b, 0 is in the cone when b <= 0 (lambda = 1), and
    otherwise e_i / b_i at an atom with b_i > 0 is a "sum" refutation."""
    k = len(E)
    if k == 0:
        return None
    if k == 1:
        b = E.generators[0]
        i = next((i for i, v in enumerate(b.direction) if v > 0), None)
        if i is None:
            return Certificate.over(E, (1,), zero(E.space))
        y = Fraction(b.denominator, b.direction[i])
        return Refutation("sum", _sparse(E.space.size, {i: y}))
    outcome = lp_solve(_program(E, (1,) * k, LEQ, zero(E.space), last=(1,) * k))
    if outcome.value <= 0:
        # The dual at optimum 0 puts 0 on the normalising row (b . y = 0)
        # and y >= 0 with E^T y >= 1 on the atoms' rows: a "sum" refutation.
        return Refutation("sum", outcome.multipliers[:-1])
    ints = direction(outcome.assignment)  # rescaled to coprime integers
    c = math.gcd(*ints)
    return Certificate.over(E, tuple(v // c for v in ints), zero(E.space))


@lru_cache(maxsize=_CACHE_SIZE)
def _strict_cert(E: ConeGenerators, f: Gamble) -> Optional[Certificate]:
    if in_cone_gt0(f):
        return Certificate((0,) * len(E), f)
    k = len(E)
    if k == 0:
        return None
    if k == 1:
        # f is not strictly positive, so f_i <= 0 at some atom: lambda = 0
        # is not in the open interval, and a lower bound below 0 comes with
        # an upper bound at most 0. Otherwise f = lambda b, lambda > 0.
        b = E.generators[0]
        zeros, lo, hi = _bounds(b, f)
        low = max(lo[0], 0) if lo else 0
        if all(f.direction[i] > 0 for i in zeros) and (hi is None or low < hi[0]):
            lam = low + 1 if hi is None else (low + hi[0]) / 2
            return Certificate.over(E, (lam,), f)
        lam = (lo or hi or (1,))[0]  # f = lambda b puts lambda at every ratio
        p, q = lam.numerator * f.denominator, lam.denominator * b.denominator
        if lam > 0 and all(x * q == p * y for x, y in zip(f.direction, b.direction)):
            return Certificate((lam,), zero(E.space))
        return None
    # Mixed branch. f is not strictly positive, so t > 0 forces lambda != 0,
    # and a positive optimum certifies f with a remainder of at least t 1.
    # With no lambda >= 0 below f (even at t = 0), none has E lambda = f
    # either, so posi needs no LP of its own; only at t = 0 does it decide.
    unit = (0,) * k + (1,)
    outcome = lp_solve(_program(E, unit, LEQ, f, (1,), unit))
    if isinstance(outcome, Infeasible):
        return None
    if outcome.value > 0:
        return Certificate.over(E, outcome.assignment[:k], f)
    return _posi_cert(E, f)


def posi_contains(E: ConeGenerators, f: Gamble) -> Optional[Certificate]:
    """Certificate for f in posi(E), or None. The remainder is always zero."""
    _check_query(E, f)
    return _posi_cert(E, f)


def desext_contains(E: ConeGenerators, f: Gamble) -> Optional[Certificate]:
    """Certificate for f in desext(E) = posi(E plus all weakly positive
    gambles), or None."""
    _check_query(E, f)
    return _only(Certificate, _desext_cert(E, f))


def desext_refutation(E: ConeGenerators, f: Gamble) -> Optional[Refutation]:
    """The refutation behind a "no" from :func:`desext_contains` (from
    :func:`zero_in_desext` when f = 0), or None after a "yes" or when E is
    empty. It is read from the same cached decision, so it solves no LP
    that the decision did not, and checked by substitution when it is
    first read."""
    _check_query(E, f)
    ref = _only(Refutation, _desext_cert(E, f))
    return None if ref is None else ref.checked(E, f)


def zero_in_desext(E: ConeGenerators) -> Optional[Certificate]:
    """Certificate that the zero gamble lies in desext(E), or None: some
    lambda >= 0, lambda != 0, with E lambda <= 0. The witness is an optimal
    vertex of the normalised program (sum of coefficients at most 1) rescaled
    to coprime integers, which zero membership, being homogeneous, allows."""
    return _only(Certificate, _zero_cert(E))


def d_coherent(E: ConeGenerators) -> bool:
    """Whether desext(E) is a coherent set of desirable gambles, i.e. the
    generators do not force the zero gamble into the cone."""
    return _only(Certificate, _zero_cert(E)) is None


def desext_contains_strict(E: ConeGenerators, f: Gamble) -> Optional[Certificate]:
    """Strict-order variant: membership in posi(E plus all strictly positive
    gambles). Valid certificates have a zero or strictly positive remainder."""
    _check_query(E, f)
    return _strict_cert(E, f)


def zero_in_desext_strict(E: ConeGenerators) -> Optional[Certificate]:
    return _strict_cert(E, zero(E.space))
