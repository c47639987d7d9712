"""Finite possibility spaces, exact gambles, and the three dominance orders.

A gamble is a payoff vector with one exact rational entry per atom of a
finite possibility space. ``geq``/``gt``/``wgeq`` are the componentwise,
strict, and weak dominance orders; the ``in_cone_*`` predicates classify a
gamble against the zero gamble. Certificates are substituted in integers:
:func:`substitute` sums weighted gambles over their cached integer
``direction``. :func:`random_gamble` is the one seeded draw that the instance
generators, the axiom harness and the tests share.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

from .ratlp import RationalLike, Value, denominator, dot, rational, rational_str

_set = object.__setattr__


class DimensionMismatch(ValueError):
    """Raised when gambles over different possibility spaces are combined."""


class PossibilitySpace(Value):
    """An ordered finite set of mutually exclusive outcome labels."""

    __slots__ = _fields = ("labels",)

    def __init__(self, labels: tuple[str, ...]) -> None:
        labels = tuple(labels)
        if not labels:
            raise ValueError("a possibility space needs at least one atom")
        if any(not isinstance(l, str) or not l for l in labels):
            raise ValueError("atom labels must be nonempty strings")
        if len(set(labels)) != len(labels):
            raise ValueError("atom labels must be distinct")
        _set(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown atom {label!r}") from None


class Gamble(Value):
    """An exact payoff vector aligned with its space's label order."""

    __slots__ = ("space", "values", "_hash", "_direction", "_denominator")
    _fields = ("space", "values")

    def __init__(self, space: PossibilitySpace, values: Iterable[RationalLike]) -> None:
        values = tuple(map(rational, values))
        if len(values) != len(space.labels):
            raise DimensionMismatch(
                f"gamble has {len(values)} entries for a {space.size}-atom space"
            )
        _set(self, "space", space)
        _set(self, "values", values)
        _set(self, "_hash", None)
        _set(self, "_direction", None)
        _set(self, "_denominator", None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Tuples compare their items by identity first, so the shared space
        # costs nothing.
        return (self.space, self.values) == (other.space, other.values)

    __hash__ = Value._cached_hash

    @property
    def direction(self) -> tuple[int, ...]:
        """:func:`direction` of the entries, computed once per gamble."""
        if self._direction is None:
            _set(self, "_direction", direction(self.values, self.denominator))
        return self._direction

    @property
    def denominator(self) -> int:
        """The entries' least common denominator, computed once per gamble."""
        if self._denominator is None:
            _set(self, "_denominator", denominator(self.values))
        return self._denominator

    def __add__(self, other: "Gamble") -> "Gamble":
        _check_space(self, other)
        return Gamble(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "Gamble") -> "Gamble":
        _check_space(self, other)
        return Gamble(self.space, tuple(a - b for a, b in zip(self.values, other.values)))

    def serialized(self) -> list[str]:
        """JSON form: the entries as canonical rational strings."""
        return [rational_str(v) for v in self.values]


def direction(values: Sequence[Fraction], m: int = 0) -> tuple[int, ...]:
    """The entries times their least common denominator m (computed unless
    given). The factor is positive, so a dot product of two directions has
    the sign of the product of the vectors themselves, and integers give it
    without a ``Fraction`` normalisation per term."""
    m = m or denominator(values)
    return tuple(v.numerator * (m // v.denominator) for v in values)


def substitute(
    coefficients: Sequence[Fraction], gambles: Sequence[Gamble], space: PossibilitySpace
) -> tuple[int, list[int]]:
    """The sum of the weighted gambles as integers N over one denominator D,
    with no ``Fraction`` formed (fraction-free, as in Bareiss 1968): D is the
    lcm of den(lambda_k) s_k, s_k the gamble's denominator, and term k adds
    (D lambda_k / s_k) times its direction."""
    if len(coefficients) != len(gambles):
        raise ValueError("coefficient and gamble counts differ")
    if any(g.space is not space and g.space != space for g in gambles):
        raise DimensionMismatch("gamble from a different space in combination")
    terms = [(lam, g) for lam, g in zip(coefficients, gambles) if lam]
    dens = [lam.denominator * g.denominator for lam, g in terms]
    D = math.lcm(*dens)
    weights = [D // s * lam.numerator for s, (lam, _) in zip(dens, terms)]
    columns = zip(*(g.direction for _, g in terms)) if terms else [()] * space.size
    return D, [dot(weights, col) for col in columns]


def gamble(space: PossibilitySpace, values: Iterable[RationalLike]) -> Gamble:
    return Gamble(space, tuple(values))


def zero(space: PossibilitySpace) -> Gamble:
    return Gamble(space, (Fraction(0),) * space.size)


def indicator(space: PossibilitySpace, atom: str) -> Gamble:
    """The gamble worth 1 on the given atom and 0 elsewhere."""
    i = space.index(atom)
    return Gamble(space, tuple(Fraction(int(j == i)) for j in range(space.size)))


def _check_space(f: Gamble, g: Gamble) -> None:
    if f.space != g.space:
        raise DimensionMismatch("gambles live on different possibility spaces")


def geq(f: Gamble, g: Gamble) -> bool:
    """f >= g componentwise."""
    _check_space(f, g)
    return all(a >= b for a, b in zip(f.values, g.values))


def gt(f: Gamble, g: Gamble) -> bool:
    """f strictly dominates g: f > g at every atom."""
    _check_space(f, g)
    return all(a > b for a, b in zip(f.values, g.values))


def wgeq(f: Gamble, g: Gamble) -> bool:
    """f weakly dominates g: f >= g everywhere with f != g."""
    _check_space(f, g)
    return geq(f, g) and f.values != g.values


def in_cone_geq0(f: Gamble) -> bool:
    return all(v.numerator >= 0 for v in f.values)


def in_cone_gt0(f: Gamble) -> bool:
    return all(v.numerator > 0 for v in f.values)


def in_cone_wd0(f: Gamble) -> bool:
    return in_cone_geq0(f) and any(f.values)


def add(f: Gamble, g: Gamble) -> Gamble:
    return f + g


def scale(factor: RationalLike, f: Gamble) -> Gamble:
    lam = rational(factor)
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    return Gamble(f.space, tuple(lam * v for v in f.values))


def combination(
    coefficients: Sequence[Fraction], gambles: Sequence[Gamble], space: PossibilitySpace
) -> Gamble:
    """Sum of coefficient-weighted gambles (the empty combination is zero),
    formed by :func:`substitute` and born with its direction."""
    D, N = substitute(coefficients, gambles, space)
    c = math.gcd(D, *N)
    D, N = D // c, tuple(n // c for n in N)
    f = Gamble(space, tuple(Fraction(n, D) for n in N))
    _set(f, "_denominator", D)
    _set(f, "_direction", N)
    return f


def random_gamble(rng: random.Random, space: PossibilitySpace, bound: int) -> Gamble:
    """One integer draw from [-bound, bound] per atom, in label order."""
    return Gamble(space, tuple(Fraction(rng.randint(-bound, bound)) for _ in space.labels))
