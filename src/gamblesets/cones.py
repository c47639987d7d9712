"""Cone membership with verifiable certificates.

``posi(E)`` is the positive linear hull of a finite generator list: all
combinations with nonnegative coefficients, at least one positive (so the
hull of the empty list is empty). ``desext(E)`` augments the generators with
every gamble weakly dominating zero; membership decomposes as

    f in desext(E)  iff  f weakly dominates 0, or some positive combination
    h of E satisfies f >= h componentwise.

Every "yes" answer returns a :class:`Certificate` whose coefficients and
remainder reconstruct the queried gamble exactly, so any third party can
re-check the answer by substitution. The strict variant replaces "weakly
dominates" with "strictly dominates" throughout; over a finite space its
extra branch is an epsilon of uniform slack above a positive combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from .gambles import (
    DimensionMismatch,
    Gamble,
    PossibilitySpace,
    combination,
    gamble,
    gt,
    in_cone_geq0,
    in_cone_gt0,
    wgeq,
    zero,
)
from .ratlp import EQ, LEQ, LinearProgram, Optimal, Unbounded, lp_solve, rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ConeGenerators:
    """A deduplicated, order-preserving list of generator gambles."""

    space: PossibilitySpace
    generators: tuple[Gamble, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.space != self.space:
                raise DimensionMismatch("generator from a different space")

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.space.labels, self.generators))
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def build(cls, space: PossibilitySpace, gambles: Iterable[Gamble]) -> "ConeGenerators":
        seen: dict[Gamble, None] = {}
        for g in gambles:
            seen.setdefault(g, None)
        return cls(space, tuple(seen))

    def __len__(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class Certificate:
    """Coefficients plus remainder witnessing a cone membership.

    The certified gamble f is reconstructed as sum(lambdas[i] * E[i]) +
    remainder against the generator list E the query was posed over.
    """

    lambdas: tuple[Fraction, ...]
    remainder: Gamble

    def reconstructs(self, generators: ConeGenerators, f: Gamble) -> bool:
        if len(self.lambdas) != len(generators):
            return False
        comb = combination(self.lambdas, generators.generators, generators.space)
        return comb + self.remainder == f

    def serialized(self) -> dict:
        return {
            "lambdas": [str(v) for v in self.lambdas],
            "remainder": self.remainder.serialized(),
        }

    @classmethod
    def from_serialized(cls, space: PossibilitySpace, data: dict) -> "Certificate":
        """The inverse of :meth:`serialized`, over the given space."""
        return cls(tuple(rational(v) for v in data["lambdas"]), gamble(space, data["remainder"]))


def certificate_valid(cert: Certificate, generators: ConeGenerators, f: Gamble) -> bool:
    """Validity for weak-mode certificates: the combination reconstructs f,
    all coefficients are nonnegative, and either some coefficient is positive
    with a nonnegative remainder, or all are zero and the remainder weakly
    dominates zero."""
    if any(l < 0 for l in cert.lambdas):
        return False
    if not cert.reconstructs(generators, f):
        return False
    total = sum(cert.lambdas, _ZERO)
    if total > 0:
        return in_cone_geq0(cert.remainder)
    return wgeq(cert.remainder, zero(generators.space))


def certificate_valid_strict(cert: Certificate, generators: ConeGenerators, f: Gamble) -> bool:
    """Validity in strict mode: a positive-coefficient combination with zero
    or strictly positive remainder, or a strictly positive remainder alone."""
    if any(l < 0 for l in cert.lambdas):
        return False
    if not cert.reconstructs(generators, f):
        return False
    total = sum(cert.lambdas, _ZERO)
    rem = cert.remainder
    if total > 0:
        return in_cone_gt0(rem) or rem == zero(generators.space)
    return in_cone_gt0(rem)


def _check_query(generators: ConeGenerators, f: Gamble) -> None:
    if f.space != generators.space:
        raise DimensionMismatch("queried gamble lives on a different space")


def _positive_sum_witness(outcome, k: int) -> Optional[tuple[Fraction, ...]]:
    """Extract lambda >= 0 with positive coordinate sum over the first k
    variables from an Optimal(>0) or Unbounded outcome."""
    if isinstance(outcome, Optimal):
        lam = outcome.assignment[:k]
        return lam if sum(lam, _ZERO) > 0 else None
    if isinstance(outcome, Unbounded):
        p = outcome.feasible_point[:k]
        d = outcome.improving_ray[:k]
        sp = sum(p, _ZERO)
        sd = sum(d, _ZERO)
        # objective is the coordinate sum, so sd > 0; push to sum >= 1
        t = _ZERO if sp >= 1 else (_ONE - sp) / sd
        return tuple(a + t * b for a, b in zip(p, d))
    return None


@lru_cache(maxsize=None)
def _posi_cert(E: ConeGenerators, f: Gamble) -> Optional[Certificate]:
    k = len(E)
    if k == 0:
        return None
    rows = []
    for i in range(E.space.size):
        rows.append((tuple(g.values[i] for g in E.generators), EQ, f.values[i]))
    lp = LinearProgram(k, (_ONE,) * k, tuple(rows))
    lam = _positive_sum_witness(lp_solve(lp), k)
    if lam is None:
        return None
    return Certificate(lam, zero(E.space))


@lru_cache(maxsize=None)
def _desext_cert(E: ConeGenerators, f: Gamble) -> Optional[Certificate]:
    if wgeq(f, zero(E.space)):
        return Certificate((_ZERO,) * len(E), f)
    k = len(E)
    if k == 0:
        return None
    rows = []
    for i in range(E.space.size):
        rows.append((tuple(g.values[i] for g in E.generators), LEQ, f.values[i]))
    lp = LinearProgram(k, (_ONE,) * k, tuple(rows))
    lam = _positive_sum_witness(lp_solve(lp), k)
    if lam is None:
        return None
    comb = combination(lam, E.generators, E.space)
    return Certificate(lam, f - comb)


def _primitive(lambdas: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Rescale a nonzero homogeneous certificate to coprime integers."""
    denom = math.lcm(*(v.denominator for v in lambdas))
    ints = [int(v * denom) for v in lambdas]
    g = math.gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    return tuple(Fraction(v) for v in ints)


@lru_cache(maxsize=None)
def _zero_cert(E: ConeGenerators) -> Optional[Certificate]:
    k = len(E)
    if k == 0:
        return None
    # Zero membership is homogeneous, so boxing the coefficients at 1 keeps
    # the decision exact and the witnesses small.
    rows = []
    for i in range(E.space.size):
        rows.append((tuple(g.values[i] for g in E.generators), LEQ, _ZERO))
    for j in range(k):
        rows.append((tuple(_ONE if i == j else _ZERO for i in range(k)), LEQ, _ONE))
    lp = LinearProgram(k, (_ONE,) * k, tuple(rows))
    outcome = lp_solve(lp)
    if not isinstance(outcome, Optimal) or outcome.value <= 0:
        return None
    lam = _primitive(outcome.assignment)
    comb = combination(lam, E.generators, E.space)
    return Certificate(lam, -comb)


@lru_cache(maxsize=None)
def _strict_cert(E: ConeGenerators, f: Gamble) -> Optional[Certificate]:
    space = E.space
    if gt(f, zero(space)):
        return Certificate((_ZERO,) * len(E), f)
    exact = _posi_cert(E, f)
    if exact is not None:
        return exact
    k = len(E)
    if k == 0:
        return None
    # Mixed branch: some positive combination sits uniformly below f.
    # Both "sum of coefficients positive" and "slack positive" are open
    # conditions over one convex region, so each is decided by its own
    # supremum and a midpoint of the two witnesses satisfies both at once.
    rows = []
    for i in range(space.size):
        coeffs = tuple(g.values[i] for g in E.generators) + (_ONE,)
        rows.append((coeffs, LEQ, f.values[i]))
    lp_sum = LinearProgram(k + 1, (_ONE,) * k + (_ZERO,), tuple(rows))
    lam_a = _positive_sum_witness(lp_solve(lp_sum), k)
    if lam_a is None:
        return None
    lp_slack = LinearProgram(k + 1, (_ZERO,) * k + (_ONE,), tuple(rows))
    outcome = lp_solve(lp_slack)
    if isinstance(outcome, Optimal):
        if outcome.value <= 0:
            return None
        point_b = outcome.assignment
    elif isinstance(outcome, Unbounded):
        p, d = outcome.feasible_point, outcome.improving_ray
        t = _ZERO if p[k] > 0 else (_ONE - p[k]) / d[k]
        point_b = tuple(a + t * b for a, b in zip(p, d))
    else:
        return None
    lam = tuple((a + b) / 2 for a, b in zip(lam_a, point_b[:k]))
    comb = combination(lam, E.generators, space)
    return Certificate(lam, f - comb)


def posi_contains(E: ConeGenerators, f: Gamble) -> Optional[Certificate]:
    """Certificate for f in posi(E), or None. The remainder is always zero."""
    _check_query(E, f)
    return _posi_cert(E, f)


def desext_contains(E: ConeGenerators, f: Gamble) -> Optional[Certificate]:
    """Certificate for f in desext(E) = posi(E plus all weakly positive
    gambles), or None."""
    _check_query(E, f)
    return _desext_cert(E, f)


def zero_in_desext(E: ConeGenerators) -> Optional[Certificate]:
    """Certificate that the zero gamble lies in desext(E), or None.

    Witness coefficients are normalized to coprime integers (zero membership
    is homogeneous, so any positive rescaling stays valid).
    """
    return _zero_cert(E)


def d_coherent(E: ConeGenerators) -> bool:
    """Whether desext(E) is a coherent set of desirable gambles, i.e. the
    generators do not force the zero gamble into the cone."""
    return _zero_cert(E) is None


def desext_contains_strict(E: ConeGenerators, f: Gamble) -> Optional[Certificate]:
    """Strict-order variant: membership in posi(E plus all strictly positive
    gambles). Valid certificates have a zero or strictly positive remainder."""
    _check_query(E, f)
    return _strict_cert(E, f)


def zero_in_desext_strict(E: ConeGenerators) -> Optional[Certificate]:
    return _strict_cert(E, zero(E.space))
