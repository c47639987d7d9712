"""Representation of the extension by families of coherent gamble cones.

A finitely generated coherent cone stands in for a coherent set of desirable
gambles: it evaluates a gamble set as acceptable when some member lies in the
cone. A family spec (an ordered list of gamble sets) describes the cones
containing at least one consistent picking's hull; a gamble set belongs to
the induced family evaluation when every picking is either inconsistent or
witnessed. At this finitary scale that evaluation coincides with natural
extension membership. ``repr`` reports both verdicts, and ``selftest
--verify`` requires them to be equal: a verified extension answer proves the
family verdict too.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .cones import ConeGenerators, d_coherent, desext_contains, zero_in_desext
from .extension import GambleSet
from .gambles import DimensionMismatch, Gamble
from .ratlp import Value

_set = object.__setattr__


class FinGenD(Value):
    """A coherent set of desirable gambles given by finitely many generators
    (its members are decided by ``desext_contains``)."""

    __slots__ = _fields = ("generators",)

    def __init__(self, generators: ConeGenerators) -> None:
        if not d_coherent(generators):
            raise ValueError("generators force zero into the cone; not coherent")
        _set(self, "generators", generators)

    @property
    def space(self):
        return self.generators.space


class DFamilySpec(Value):
    """An ordered, nonempty list of gamble sets describing a cone family."""

    __slots__ = _fields = ("sets",)

    def __init__(self, sets: tuple[GambleSet, ...]) -> None:
        if not sets:
            raise ValueError("a family spec needs at least one gamble set")
        for s in sets:
            if s.space != sets[0].space:
                raise DimensionMismatch("family sets live on different spaces")
        _set(self, "sets", sets)

    @property
    def space(self):
        return self.sets[0].space


def kd_contains(D: FinGenD, candidate: GambleSet) -> bool:
    """The cone evaluates a gamble set as acceptable iff they intersect."""
    if candidate.space != D.space:
        raise DimensionMismatch("queried set lives on a different space")
    return any(desext_contains(D.generators, f) is not None for f in candidate.members)


def _consistent_pickings(fam: DFamilySpec) -> Iterator[tuple[tuple[Gamble, ...], ConeGenerators]]:
    """Each picking across the family's sets whose hull is coherent, with
    that hull's generators, in product order. A flat loop, independent of
    the extension's picking driver, so comparing :func:`k_family_contains`
    with :func:`gamblesets.extension.ext_contains` compares two decision
    paths."""
    for seq in itertools.product(*(s.members for s in fam.sets)):
        E = ConeGenerators.build(fam.space, seq)
        if zero_in_desext(E) is None:
            yield seq, E


def k_family_contains(fam: DFamilySpec, candidate: GambleSet) -> bool:
    """Acceptance by every cone in the family: the cone of each consistent
    picking must meet the candidate."""
    if candidate.space != fam.space:
        raise DimensionMismatch("queried set lives on a different space")
    return all(kd_contains(FinGenD(E), candidate) for _, E in _consistent_pickings(fam))
