"""Equivalent reformulations of the natural extension, for differential
testing.

Both variants decide the same membership relation as
:func:`gamblesets.extension.ext_contains` but through their own constraint
encodings, each posed to the one positive-combination program that
:mod:`gamblesets.cones` builds, and sharing the picking driver with it:

* :func:`ext_contains_split` splits "f lies in the picking's cone" into a
  global "some candidate weakly dominates zero" clause plus a per-picking
  "some candidate dominates a positive combination of the picked gambles".
* :func:`ext_contains_indicator` replaces the background cone of weakly positive
  gambles by the atom indicators (over a finite space they generate the same
  hull) and folds the Skip clause into a "zero is a positive combination of
  picking plus indicators" test.

Certificates are translated back onto the picking's own generators so that
:func:`gamblesets.extension.verify_ext_answer` applies unchanged. A negative
answer's failed picking is refuted by the weak cone tests
(:func:`gamblesets.extension.refute_failed_picking`), whose dual vectors the
verifier checks by substitution.
"""

from __future__ import annotations

from typing import Optional

from .cones import Certificate, ConeGenerators, positive_witness
from .extension import (
    Assessment,
    DEFAULT_SEQUENCE_CAP,
    ExtAnswer,
    GambleSet,
    Hit,
    refute_failed_picking,
    settle_pickings,
)
from .gambles import (
    DimensionMismatch,
    Gamble,
    PossibilitySpace,
    indicator,
    wgeq,
    zero,
)
from .ratlp import EQ, LEQ


def _weak_positive_answer(candidate: GambleSet) -> Optional[ExtAnswer]:
    z = zero(candidate.space)
    for f in candidate.members:
        if wgeq(f, z):
            cert = Certificate((), f)
            return ExtAnswer(True, (), (((), Hit(f, cert)),))
    return None


def _dominated_hull(E: ConeGenerators, f: Gamble) -> Optional[Certificate]:
    """Some positive combination of E sits (componentwise) below f."""
    lam = positive_witness(E, LEQ, f)
    if lam is None:
        return None
    return Certificate.over(E, lam, f)


def ext_contains_split(
    assessment: Assessment,
    candidate: GambleSet,
    cap: int = DEFAULT_SEQUENCE_CAP,
) -> ExtAnswer:
    """Membership via the split formulation: a candidate weakly dominating
    zero settles every picking at once; otherwise each picking needs either
    the incompatibility clause or a candidate dominating a positive
    combination of the picked gambles."""
    if candidate.space != assessment.space:
        raise DimensionMismatch("queried set lives on a different space")
    direct = _weak_positive_answer(candidate)
    if direct is not None:
        return direct
    if assessment.is_empty:
        return ExtAnswer(False, (), (), failed_sequence=())
    space = assessment.space
    answer = settle_pickings(
        space, assessment.sets, candidate, cap,
        lambda E: _dominated_hull(E, zero(space)), _dominated_hull,
    )
    return refute_failed_picking(answer, candidate)


def _indicator_hull(
    space: PossibilitySpace, E_seq: ConeGenerators, f: Gamble
) -> Optional[Certificate]:
    """f as a positive combination of the picking's gambles plus the atom
    indicators, translated back to a certificate over the picking alone.

    The empty picking needs no LP. Zero is no positive combination of the
    indicators alone, and a candidate member that is one is weakly positive,
    so :func:`ext_contains_indicator` has already answered through
    :func:`_weak_positive_answer` before any picking is tested."""
    if len(E_seq) == 0:
        return None
    # The constructor, not ``build``: an indicator equal to a picked gamble
    # keeps a column of its own.
    indicators = tuple(indicator(space, a) for a in space.labels)
    aug = ConeGenerators(space, E_seq.generators + indicators)
    lam = positive_witness(aug, EQ, f)
    if lam is None:
        return None
    return Certificate.over(E_seq, lam[: len(E_seq)], f)


def ext_contains_indicator(
    assessment: Assessment,
    candidate: GambleSet,
    cap: int = DEFAULT_SEQUENCE_CAP,
) -> ExtAnswer:
    """Membership via the indicator construction: every picking is augmented
    with the |space| indicator singletons and must positively combine into a
    candidate (a Hit) or into the zero gamble (the removed "nothing good"
    pickings)."""
    if candidate.space != assessment.space:
        raise DimensionMismatch("queried set lives on a different space")
    direct = _weak_positive_answer(candidate)
    if direct is not None:
        return direct
    space = assessment.space
    answer = settle_pickings(
        space, assessment.sets, candidate, cap,
        lambda E: _indicator_hull(space, E, zero(space)),
        lambda E, f: _indicator_hull(space, E, f),
    )
    return refute_failed_picking(answer, candidate)


def formulations_agree(
    assessment: Assessment,
    candidate: GambleSet,
    cap: int = DEFAULT_SEQUENCE_CAP,
) -> bool:
    """Run all three membership procedures; a False return is a bug report."""
    from .extension import ext_contains

    a = ext_contains(assessment, candidate, cap=cap).member
    b = ext_contains_split(assessment, candidate, cap=cap).member
    c = ext_contains_indicator(assessment, candidate, cap=cap).member
    return a == b == c
