"""Representation of the extension by families of coherent gamble cones.

A finitely generated coherent cone stands in for a coherent set of desirable
gambles: it evaluates a gamble set as acceptable when some member lies in the
cone. A family spec (an ordered list of gamble sets) describes the cones
containing at least one consistent picking's hull; a gamble set belongs to
the induced family evaluation when every picking is either inconsistent or
witnessed. At this finitary scale that evaluation coincides with natural
extension membership, which is what :func:`representation_agrees` checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .cones import ConeGenerators, d_coherent, desext_contains, zero_in_desext
from .extension import (
    Assessment,
    GambleSet,
    InconsistentAssessment,
    ext_contains,
    is_consistent,
)
from .gambles import DimensionMismatch, Gamble


@dataclass(frozen=True)
class FinGenD:
    """A coherent set of desirable gambles given by finitely many generators
    (its members are decided by ``desext_contains``)."""

    generators: ConeGenerators

    def __post_init__(self) -> None:
        if not d_coherent(self.generators):
            raise ValueError("generators force zero into the cone; not coherent")

    @property
    def space(self):
        return self.generators.space


@dataclass(frozen=True)
class DFamilySpec:
    """An ordered, nonempty list of gamble sets describing a cone family."""

    sets: tuple[GambleSet, ...]

    def __post_init__(self) -> None:
        if not self.sets:
            raise ValueError("a family spec needs at least one gamble set")
        space = self.sets[0].space
        for s in self.sets:
            if s.space != space:
                raise DimensionMismatch("family sets live on different spaces")

    @property
    def space(self):
        return self.sets[0].space

    def concat(self, other: "DFamilySpec") -> "DFamilySpec":
        return DFamilySpec(self.sets + other.sets)


def kd_contains(D: FinGenD, candidate: GambleSet) -> bool:
    """The cone evaluates a gamble set as acceptable iff they intersect."""
    if candidate.space != D.space:
        raise DimensionMismatch("queried set lives on a different space")
    return any(desext_contains(D.generators, f) is not None for f in candidate.members)


def _consistent_pickings(fam: DFamilySpec) -> Iterator[tuple[tuple[Gamble, ...], ConeGenerators]]:
    """Each picking across the family's sets whose hull is coherent, with
    that hull's generators, in product order. A flat loop, independent of
    the extension's picking driver, so :func:`representation_agrees`
    compares two decision paths."""
    for seq in itertools.product(*(s.members for s in fam.sets)):
        E = ConeGenerators.build(fam.space, seq)
        if zero_in_desext(E) is None:
            yield seq, E


def family_contains_d(fam: DFamilySpec, D: FinGenD) -> bool:
    """Whether the cone belongs to the family: some picking across the
    family's sets is consistent and lies inside the cone.

    Containing the picking's hull reduces to containing the picked gambles,
    because that hull is the smallest coherent cone around them.
    """
    if D.space != fam.space:
        raise DimensionMismatch("cone lives on a different space")
    return any(
        all(desext_contains(D.generators, g) is not None for g in seq)
        for seq, _ in _consistent_pickings(fam)
    )


def k_family_contains(fam: DFamilySpec, candidate: GambleSet) -> bool:
    """Acceptance by every cone in the family: the cone of each consistent
    picking must meet the candidate."""
    if candidate.space != fam.space:
        raise DimensionMismatch("queried set lives on a different space")
    return all(kd_contains(FinGenD(E), candidate) for _, E in _consistent_pickings(fam))


def representation_agrees(assessment: Assessment, candidate: GambleSet) -> bool:
    """Compare family-based acceptance with natural-extension membership for
    a nonempty consistent assessment. A False return is a bug report."""
    if assessment.is_empty:
        raise ValueError("representation check needs a nonempty assessment")
    if not is_consistent(assessment):
        raise InconsistentAssessment("representation check needs a consistent assessment")
    fam = DFamilySpec(assessment.sets)
    return k_family_contains(fam, candidate) == ext_contains(assessment, candidate).member


@dataclass
class CheckReport:
    checked: int = 0
    vacuous: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def downward_closure_check(
    fam1: DFamilySpec, fam2: DFamilySpec, sampled_Ds: Sequence[FinGenD]
) -> CheckReport:
    """Concatenating family specs can only shrink the family: every sampled
    cone in the concatenation must belong to both halves."""
    report = CheckReport()
    combined = fam1.concat(fam2)
    for D in sampled_Ds:
        report.checked += 1
        if not family_contains_d(combined, D):
            report.vacuous += 1
            continue
        if not (family_contains_d(fam1, D) and family_contains_d(fam2, D)):
            report.failures.append(
                f"cone {[g.serialized() for g in D.generators.generators]} in the "
                f"concatenation but not in both halves"
            )
    return report


def kd_add_closure_check(
    D_list: Sequence[FinGenD],
    instances: Iterable,
) -> CheckReport:
    """Cone-family acceptance is closed under the addition axiom: when every
    premise set is accepted by every cone, so is the combined set.

    ``instances`` are :class:`gamblesets.axioms.KAddInstance` values;
    instances whose premises are not all accepted count as vacuous.
    """
    if not D_list:
        raise ValueError("need at least one cone")
    report = CheckReport()
    for inst in instances:
        report.checked += 1
        if not all(kd_contains(D, A) for D in D_list for A in inst.sets):
            report.vacuous += 1
            continue
        if not all(kd_contains(D, inst.conclusion) for D in D_list):
            report.failures.append(
                f"combined set {inst.conclusion.serialized()} rejected by some cone"
            )
    return report
