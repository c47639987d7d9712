"""Derivations of the coherence axioms in the finite setting.

:func:`addpair_derive` rewrites an n-ary addition step as a chain of pairwise
additions and superset steps, and :func:`dom_from_add_check` derives the
dominators axiom from addition plus weak positivity. Every
:class:`DerivationTrace` is machine-checked by :func:`verify_trace`.

No command of the command line loads this module.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .cones import ConeGenerators, posi_contains, positive_witness
from .extension import GambleSet
from .gambles import (
    DimensionMismatch,
    Gamble,
    PossibilitySpace,
    combination,
    geq,
    zero,
)
from .ratlp import EQ


class DominanceError(ValueError):
    """Raised when a claimed dominator fails to dominate."""


# ---------------------------------------------------------------------------
# Derivation engines for the finite setting
# ---------------------------------------------------------------------------


class TraceError(ValueError):
    """Raised when a derivation trace fails machine verification."""


@dataclass(frozen=True)
class PairWitness:
    left: Gamble
    right: Gamble
    result: Gamble


@dataclass(frozen=True)
class DerivationStep:
    rule: str  # "given" | "pair-add" | "superset"
    result: GambleSet
    left: Optional[int] = None
    right: Optional[int] = None
    pairs: tuple[PairWitness, ...] = ()
    parent: Optional[int] = None


@dataclass
class DerivationTrace:
    space: PossibilitySpace
    steps: list[DerivationStep] = field(default_factory=list)

    @property
    def final(self) -> GambleSet:
        return self.steps[-1].result


class _TraceBuilder:
    def __init__(self, space: PossibilitySpace):
        self.trace = DerivationTrace(space)
        self._given: dict[GambleSet, int] = {}

    def given(self, s: GambleSet) -> int:
        if s in self._given:
            return self._given[s]
        self.trace.steps.append(DerivationStep("given", s))
        idx = len(self.trace.steps) - 1
        self._given[s] = idx
        return idx

    def pair_add(self, left: int, right: int, pairs: tuple[PairWitness, ...]) -> int:
        result = GambleSet.build(self.trace.space, (p.result for p in pairs))
        self.trace.steps.append(DerivationStep("pair-add", result, left, right, pairs))
        return len(self.trace.steps) - 1

    def superset(self, parent: int, target: GambleSet) -> int:
        self.trace.steps.append(DerivationStep("superset", target, parent=parent))
        return len(self.trace.steps) - 1


def _h_part(space: PossibilitySpace, seq: tuple[Gamble, ...], extra: Gamble, f: Gamble) -> Gamble:
    """Split f in posi(seq + extra) as a posi(seq) part plus an extra part,
    preferring a genuinely positive seq coefficient when one exists."""
    # The constructor, not ``build``: a picking may repeat a gamble.
    lam = positive_witness(ConeGenerators(space, seq + (extra,)), EQ, f, counted=len(seq))
    if lam is None:
        return seq[0]  # every split is a pure multiple of the extra gamble
    return combination(lam, seq, space)


def _posi_holds(E: ConeGenerators, f: Gamble) -> bool:
    """The default positive-hull check: the certificate engine."""
    return posi_contains(E, f) is not None


def _validate_combination(
    space: PossibilitySpace,
    sets: Sequence[GambleSet],
    comb_map: Mapping[tuple[Gamble, ...], Gamble],
    posi_check: Callable[[ConeGenerators, Gamble], bool] = _posi_holds,
) -> None:
    """Each picking has one combination value in its positive hull, as
    decided by ``posi_check`` (by default the certificate engine)."""
    expected = set(itertools.product(*(s.members for s in sets)))
    if set(comb_map) != expected:
        raise ValueError("combination map must cover each picking exactly once")
    for seq, f in comb_map.items():
        if not posi_check(ConeGenerators.build(space, seq), f):
            raise ValueError(
                f"combination value {f.serialized()} is not in the positive hull "
                f"of its picking"
            )


def addpair_derive(
    sets: Sequence[GambleSet],
    comb_map: Mapping[tuple[Gamble, ...], Gamble],
) -> DerivationTrace:
    """Unfold an n-ary addition instance into pairwise additions and
    superset steps, ending at the instance's image set.

    Works one member of the last set at a time: each round splits the chosen
    values into a front part (handled recursively over the first n-1 sets)
    and a pair step that swaps the current member for its replacements.
    Every step is machine-checkable; see :func:`verify_trace`.
    """
    if not sets:
        raise ValueError("need at least one gamble set")
    space = sets[0].space
    for s in sets:
        if s.space != space:
            raise DimensionMismatch("gamble sets live on different spaces")
        if s.is_empty:
            raise ValueError("addition over an empty gamble set is vacuous")
    comb_map = dict(comb_map)
    _validate_combination(space, sets, comb_map)
    builder = _TraceBuilder(space)
    _derive(builder, tuple(sets), comb_map)
    return builder.trace


def _derive(
    builder: _TraceBuilder,
    sets: tuple[GambleSet, ...],
    comb_map: Mapping[tuple[Gamble, ...], Gamble],
) -> int:
    space = builder.trace.space
    if len(sets) == 1:
        first = sets[0]
        src = builder.given(first)
        pairs = tuple(
            PairWitness(g, h, comb_map[(g,)])
            for g in first.members
            for h in first.members
        )
        return builder.pair_add(src, src, pairs)

    front, last = sets[:-1], sets[-1]
    front_seqs = list(itertools.product(*(s.members for s in front)))
    current = builder.given(last)
    current_set = last
    replaced: list[Gamble] = []
    for k, a in enumerate(last.members):
        hmap = {seq: _h_part(space, seq, a, comb_map[seq + (a,)]) for seq in front_seqs}
        c_idx = _derive(builder, front, hmap)
        c_set = builder.trace.steps[c_idx].result
        replaced.extend(comb_map[seq + (a,)] for seq in front_seqs)
        next_set = GambleSet.build(space, tuple(replaced) + last.members[k + 1 :])
        fallback: dict[Gamble, Gamble] = {}
        for seq in front_seqs:
            fallback.setdefault(hmap[seq], comb_map[seq + (a,)])
        pairs = []
        for c in current_set.members:
            for b in c_set.members:
                d = c if c in next_set else fallback[b]
                pairs.append(PairWitness(c, b, d))
        step = builder.pair_add(current, c_idx, tuple(pairs))
        if builder.trace.steps[step].result != next_set:
            step = builder.superset(step, next_set)
        current, current_set = step, next_set
    return current


def verify_trace(
    trace: DerivationTrace,
    given_sets: Sequence[GambleSet],
    target: Optional[GambleSet] = None,
    posi_check: Callable[[ConeGenerators, Gamble], bool] = _posi_holds,
) -> None:
    """Machine-check a derivation trace; raises :class:`TraceError`.

    ``posi_check`` decides positive-hull membership for the pair steps and
    defaults to the certificate engine; pass an independent decision
    procedure to re-validate a trace against a second code path.
    """
    allowed = set(given_sets)
    space = trace.space
    for idx, step in enumerate(trace.steps):
        if step.rule == "given":
            if step.result not in allowed:
                raise TraceError(f"step {idx}: set was never given")
        elif step.rule == "pair-add":
            if step.left not in range(idx) or step.right not in range(idx):
                raise TraceError(f"step {idx}: pair-add inputs must be earlier steps")
            left = trace.steps[step.left].result
            right = trace.steps[step.right].result
            seen = {(p.left, p.right) for p in step.pairs}
            wanted = {(a, b) for a in left.members for b in right.members}
            if seen != wanted:
                raise TraceError(f"step {idx}: pairs do not cover the product")
            for p in step.pairs:
                E = ConeGenerators.build(space, (p.left, p.right))
                if not posi_check(E, p.result):
                    raise TraceError(
                        f"step {idx}: {p.result.serialized()} is outside the "
                        f"positive hull of its pair"
                    )
            if step.result != GambleSet.build(space, (p.result for p in step.pairs)):
                raise TraceError(f"step {idx}: recorded result mismatches its pairs")
        elif step.rule == "superset":
            if step.parent not in range(idx):
                raise TraceError(f"step {idx}: superset parent must be earlier")
            smaller = trace.steps[step.parent].result
            if not set(smaller.members) <= set(step.result.members):
                raise TraceError(f"step {idx}: result is not a superset of its parent")
        else:
            raise TraceError(f"step {idx}: unknown rule {step.rule!r}")
    if target is not None and (not trace.steps or trace.final != target):
        raise TraceError("trace does not end at the expected set")


@dataclass
class KAddInstance:
    """An addition-axiom instance: sets, one combination per picking, and the
    image set they derive."""

    sets: tuple[GambleSet, ...]
    combination: dict[tuple[Gamble, ...], Gamble]
    conclusion: GambleSet

    def validate(self, posi_check: Callable[[ConeGenerators, Gamble], bool] = _posi_holds) -> None:
        space = self.sets[0].space
        _validate_combination(space, self.sets, self.combination, posi_check)
        if self.conclusion != GambleSet.build(space, self.combination.values()):
            raise ValueError("conclusion is not the image of the combination map")

    def to_trace(self) -> DerivationTrace:
        return addpair_derive(self.sets, self.combination)


def dom_from_add_check(A: GambleSet, dominators: Mapping[Gamble, Gamble]) -> KAddInstance:
    """Rewrite a dominators-axiom instance as an addition instance.

    Each dominator splits as the dominated gamble plus a nonnegative rest;
    the nonzero rests are weakly positive singletons, and one addition step
    over A plus those singletons reaches the dominator set. The returned
    instance is validated; dominance violations raise
    :class:`DominanceError`.
    """
    space = A.space
    if set(dominators) != set(A.members):
        raise ValueError("dominators must be given for exactly the members of A")
    rests: dict[Gamble, Gamble] = {}
    for g, f in dominators.items():
        if not geq(f, g):
            raise DominanceError(
                f"{f.serialized()} does not dominate {g.serialized()}"
            )
        rests[g] = f - g
    z = zero(space)
    singleton_values: list[Gamble] = []
    for h in rests.values():
        if h != z and h not in singleton_values:
            singleton_values.append(h)
    singleton_values.sort(key=lambda g: g.values)
    sets: tuple[GambleSet, ...] = (A,) + tuple(
        GambleSet.build(space, (h,)) for h in singleton_values
    )
    comb_map: dict[tuple[Gamble, ...], Gamble] = {}
    for seq in itertools.product(*(s.members for s in sets)):
        g_star = seq[0]
        comb_map[seq] = dominators[g_star]
    instance = KAddInstance(
        sets, comb_map, GambleSet.build(space, dominators.values())
    )
    instance.validate()
    return instance
