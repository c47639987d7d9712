"""Cone membership with verifiable certificates.

``posi(E)`` is the positive linear hull of a finite generator list: all
combinations with nonnegative coefficients, at least one positive (so the
hull of the empty list is empty). ``desext(E)`` augments the generators with
every gamble weakly dominating zero; membership decomposes as

    f in desext(E)  iff  f weakly dominates 0, or some positive combination
    h of E satisfies f >= h componentwise.

Every "yes" answer returns a :class:`Certificate` whose coefficients and
remainder reconstruct the queried gamble exactly, so any third party can
re-check the answer by substitution, done in integers over one common
denominator (:func:`gambles.substitute`), where remainders are formed
(:meth:`Certificate.over`) and checked. A weak-mode "no" from a cone LP is
backed by a :class:`Refutation`, the LP's dual vector (Farkas' lemma), which
is checked by substitution too and read with :func:`desext_refutation`.
Those values, and ``answer_holds``, which decides whether recorded evidence
proves an answer, live in :mod:`gamblesets.proofs`, the checker that solves
nothing; this module re-exports the validity rules it has always exported.
The strict variant replaces "weakly dominates" with "strictly dominates"
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
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import proofs
from .gambles import DimensionMismatch, Gamble, direction, in_cone_gt0, in_cone_wd0, zero
from .proofs import Certificate, ConeGenerators, Decision, Refutation
from .ratlp import EQ, LEQ, Infeasible, LinearProgram, Optimal, Unbounded, lp_solve

# The certificate rules, re-exported from the checker's module, where
# ``answer_holds`` calls them.
certificate_valid = proofs.certificate_valid
certificate_valid_strict = proofs.certificate_valid_strict

# Entries kept by each decision cache, so a long-lived process stays bounded.
# A whole 256-query ``lib-session`` benchmark corpus fills at most 2,147
# ``_desext_cert`` entries, so no benchmark run evicts.
_CACHE_SIZE = 1 << 14


def _only(kind: type, decision: Decision):
    return decision if isinstance(decision, kind) else None


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
