"""Finite possibility spaces, exact gambles, and the three dominance orders.

A gamble is a payoff vector with one exact rational entry per atom of a
finite possibility space, held in integers: its ``direction`` over one
positive ``denominator``, the entries' least common one, so the pair is
canonical and gives equality and hashing. ``values``, the entries as
``Fraction``s, is built when first read, for I/O. The dominance orders
``geq``/``gt``/``wgeq`` cross-multiply and the ``in_cone_*`` predicates (the
gamble against zero) read signs, and :func:`substitute` sums weighted
gambles over their directions, so none of them forms a ``Fraction``.
:func:`random_gamble` is the one seeded draw that the instance generators,
the axiom harness and the tests share.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

from .ratlp import Exact, RationalLike, Value, denominator, dot, rational, rational_str

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


class Gamble(Value, compared=("space", "denominator", "direction")):
    """An exact payoff vector in label order: ``direction`` over ``denominator``."""

    __slots__ = ("space", "direction", "denominator", "_values", "_hash")
    _fields = ("space", "values")

    def __init__(self, space: PossibilitySpace, values: Iterable[RationalLike]) -> None:
        # An int is kept: it has a numerator and a denominator as it is.
        values = tuple(v if type(v) is int else rational(v) for v in values)
        if len(values) != len(space.labels):
            raise DimensionMismatch(
                f"gamble has {len(values)} entries for a {space.size}-atom space"
            )
        m = denominator(values)
        _init(self, space, tuple(v.numerator * (m // v.denominator) for v in values), m)

    __hash__ = Value._cached_hash

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The entries as ``Fraction``s, built on first read."""
        if self._values is None:
            _set(self, "_values", tuple(Fraction(n, self.denominator) for n in self.direction))
        return self._values

    def __add__(self, other: "Gamble") -> "Gamble":
        return combination((1, 1), (self, other), self.space)

    def __sub__(self, other: "Gamble") -> "Gamble":
        return combination((1, -1), (self, other), self.space)

    def serialized(self) -> list[str]:
        """JSON form: the entries as canonical rational strings."""
        return [rational_str(v) for v in self.values]


def _init(f: Gamble, space: PossibilitySpace, direction: tuple[int, ...], m: int) -> Gamble:
    """Set the fields of f: ``direction`` over m > 0, coprime."""
    _set(f, "space", space)
    _set(f, "direction", direction)
    _set(f, "denominator", m)
    _set(f, "_values", None)
    _set(f, "_hash", None)
    return f


def direction(values: Sequence[Fraction]) -> tuple[int, ...]:
    """The entries times their least common denominator m, as a gamble holds
    them. The factor is positive, so a dot product of two directions has
    the sign of the product of the vectors themselves, and integers give it
    without a ``Fraction`` normalisation per term."""
    m = denominator(values)
    return tuple(v.numerator * (m // v.denominator) for v in values)


def substitute(
    coefficients: Sequence[Exact], gambles: Sequence[Gamble], space: PossibilitySpace
) -> tuple[int, list[int]]:
    """The sum of the gambles weighted by ints or ``Fraction``s, as integers
    N over one denominator D, with no ``Fraction`` formed (fraction-free, as
    in Bareiss 1968): D is the lcm of den(lambda_k) s_k, s_k the gamble's
    denominator, and term k adds (D lambda_k / s_k) times its direction."""
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
    return _init(object.__new__(Gamble), space, (0,) * space.size, 1)


def indicator(space: PossibilitySpace, atom: str) -> Gamble:
    """The gamble worth 1 on the given atom and 0 elsewhere."""
    i = space.index(atom)
    return Gamble(space, tuple(int(j == i) for j in range(space.size)))


def _check_space(f: Gamble, g: Gamble) -> None:
    if f.space != g.space:
        raise DimensionMismatch("gambles live on different possibility spaces")


def geq(f: Gamble, g: Gamble) -> bool:
    """f >= g componentwise."""
    _check_space(f, g)
    F, G = f.denominator, g.denominator
    return all(a * G >= b * F for a, b in zip(f.direction, g.direction))


def gt(f: Gamble, g: Gamble) -> bool:
    """f strictly dominates g: f > g at every atom."""
    _check_space(f, g)
    F, G = f.denominator, g.denominator
    return all(a * G > b * F for a, b in zip(f.direction, g.direction))


def wgeq(f: Gamble, g: Gamble) -> bool:
    """f weakly dominates g: f >= g everywhere with f != g."""
    return geq(f, g) and f != g


def in_cone_geq0(f: Gamble) -> bool:
    return all(v >= 0 for v in f.direction)


def in_cone_gt0(f: Gamble) -> bool:
    return all(v > 0 for v in f.direction)


def in_cone_wd0(f: Gamble) -> bool:
    return in_cone_geq0(f) and any(f.direction)


def scale(factor: RationalLike, f: Gamble) -> Gamble:
    lam = rational(factor)
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    return combination((lam,), (f,), f.space)


def combination(
    coefficients: Sequence[Exact], gambles: Sequence[Gamble], space: PossibilitySpace
) -> Gamble:
    """Sum of coefficient-weighted gambles (the empty combination is zero),
    formed by :func:`substitute` and reduced to lowest terms."""
    D, N = substitute(coefficients, gambles, space)
    c = math.gcd(D, *N)
    return _init(object.__new__(Gamble), space, tuple(n // c for n in N), D // c)


def random_gamble(rng: random.Random, space: PossibilitySpace, bound: int) -> Gamble:
    """One integer draw from [-bound, bound] per atom, in label order."""
    return Gamble(space, tuple(rng.randint(-bound, bound) for _ in space.labels))
