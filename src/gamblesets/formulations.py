"""Equivalent reformulations of the natural extension, for differential
testing.

Both variants decide the same membership relation as
:func:`gamblesets.extension.ext_contains` but through their own constraint
encodings, each posed to the one positive-combination program that
:mod:`gamblesets.cones` builds. Each variant is one hull test ``(E, f)``
that one wrapper hands to the picking driver the extension shares:

* :func:`ext_contains_split` splits "f lies in the picking's cone" into a
  global "some candidate weakly dominates zero" clause plus a per-picking
  "some candidate dominates a positive combination of the picked gambles".
* :func:`ext_contains_indicator` replaces the background cone of weakly positive
  gambles by the atom indicators (over a finite space they generate the same
  hull) and folds the skip test into a "zero is a positive combination of
  picking plus indicators" test.

Certificates are translated back onto the picking's own generators so that
:func:`gamblesets.extension.verify_ext_answer` applies unchanged. Each failed
hull test also asks the weak cone test for its refutation
(:func:`gamblesets.cones.desext_refutation`), whose dual vector passes down
the prefix tree as in the extension's weak walk: a test that a kept vector
refutes fails without its hull, and a "no" carries the refutations of its
failed picking, which the verifier checks by substitution.
"""

from __future__ import annotations

from typing import Callable, Optional

from .cones import Certificate, ConeGenerators, desext_refutation, positive_witness
from .extension import (
    Assessment,
    DEFAULT_SEQUENCE_CAP,
    Evidence,
    ExtAnswer,
    GambleSet,
    check_cap,
    settle_pickings,
)
from .gambles import (
    DimensionMismatch,
    Gamble,
    indicator,
    wgeq,
    zero,
)
from .ratlp import EQ, LEQ


def _decide(
    assessment: Assessment,
    candidate: GambleSet,
    cap: int,
    hull: Callable[[ConeGenerators, Gamble], Optional[Certificate]],
) -> ExtAnswer:
    """Membership with ``hull(E, f)`` as both picking tests (f = 0 for the
    skip test), after the cap on the full product is checked. A weakly
    positive candidate member settles every picking of the assessment's sets
    at once, as the one node of the empty prefix, so it answers before the
    walk runs. The walk refutes failed tests with the weak cone tests,
    as the extension's weak walk does, so a "no" carries the refutations of
    its failed picking unless a hull failed where the cone test holds."""
    if candidate.space != assessment.space:
        raise DimensionMismatch("queried set lives on a different space")
    check_cap(assessment.sets, cap)
    space = assessment.space
    z = zero(space)
    for f in candidate.members:
        if wgeq(f, z):
            return ExtAnswer(True, assessment.sets, (((), Evidence(f, Certificate((), f))),))
    return settle_pickings(
        space, assessment.sets, candidate, lambda E: hull(E, z), hull, desext_refutation
    )


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
    return _decide(assessment, candidate, cap, _dominated_hull)


def _indicator_hull(E: ConeGenerators, f: Gamble) -> Optional[Certificate]:
    """f as a positive combination of the picking's gambles plus the atom
    indicators, translated back to a certificate over the picking alone.

    The empty picking needs no LP. Zero is no positive combination of the
    indicators alone, and a candidate member that is one is weakly positive,
    so :func:`_decide` has already answered before any picking is tested."""
    if len(E) == 0:
        return None
    # The constructor, not ``build``: an indicator equal to a picked gamble
    # keeps a column of its own.
    indicators = tuple(indicator(E.space, a) for a in E.space.labels)
    aug = ConeGenerators(E.space, E.generators + indicators)
    lam = positive_witness(aug, EQ, f)
    if lam is None:
        return None
    return Certificate.over(E, lam[: len(E)], f)


def ext_contains_indicator(
    assessment: Assessment,
    candidate: GambleSet,
    cap: int = DEFAULT_SEQUENCE_CAP,
) -> ExtAnswer:
    """Membership via the indicator construction: every picking is augmented
    with the |space| indicator singletons and must positively combine into a
    candidate (a hit) or into the zero gamble (the removed "nothing good"
    pickings)."""
    return _decide(assessment, candidate, cap, _indicator_hull)


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
