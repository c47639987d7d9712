"""Natural extension for sets of desirable gamble sets.

An assessment is a finite family of gamble sets, each read as "at least one
member is desirable". A candidate set B belongs to the natural extension
exactly when, for every way of picking one gamble from each assessment set,
either the picked gambles are mutually incompatible (the zero gamble lands in
the cone they span together with the weakly positive gambles -- the Skip
clause) or some member of B lands in that cone (a Hit). The empty assessment
is the degenerate case: B qualifies iff it contains a weakly positive gamble,
which is the same condition read over the single empty picking.

Deciding against the full canonical list of assessment sets exactly once is
sound: the per-picking condition only depends on the *set* of picked gambles,
so repetitions collapse, and enlarging the list only grows each picking's
cone. Both facts are exercised by the brute-force oracle in
:mod:`gamblesets.oracle`.

Pickings are decided over a prefix tree (:func:`settle_pickings`). Skip and
Hit are monotone in the picking, since adding generators only grows the
cone, so a prefix (one gamble from each of the first few sets) that skips or
hits settles every full picking below it. The answer records the settled
prefixes, each with its one certificate over the prefix's deduplicated
gambles: a *cover* of the pickings decided. The tree is walked depth first
in canonical order, so the answer, the failed picking and the pickings the
cover holds are a flat loop's. A certificate carries over to each picking
below its prefix: the prefix's deduplicated generators lead the picking's,
so zero coefficients are padded for the gambles the prefix lacks, and the
remainder stays. :attr:`ExtAnswer.per_sequence` reads the cover that way,
one lifted entry per full picking, without storing them.

:func:`verify_ext_answer` checks the cover itself. Each prefix stands for an
interval of the canonical product, and the intervals must follow each other
from the first picking to the end of the product (or to the failed picking of
a "no"); each certificate is then substituted once, over its prefix.

This module also houses a sampling harness for the six coherence axioms and
the two derivation engines for the finite setting: rewriting an n-ary
addition step as a chain of pairwise additions and superset steps, and
deriving the dominators axiom from addition plus weak positivity.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .cones import (
    Certificate,
    ConeGenerators,
    certificate_valid,
    certificate_valid_strict,
    desext_contains,
    desext_contains_strict,
    posi_contains,
    zero_in_desext,
    zero_in_desext_strict,
)
from .gambles import (
    DimensionMismatch,
    Gamble,
    PossibilitySpace,
    combination,
    geq,
    random_gamble,
    zero,
)

DEFAULT_SEQUENCE_CAP = 10**6

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CapExceeded(RuntimeError):
    """Raised when a query would enumerate more pickings than the cap allows."""


class InconsistentAssessment(ValueError):
    """Raised by operations whose precondition is a consistent assessment."""


class DominanceError(ValueError):
    """Raised when a claimed dominator fails to dominate."""


@dataclass(frozen=True)
class GambleSet:
    """A finite set of gambles, deduplicated and kept in a canonical order."""

    space: PossibilitySpace
    members: tuple[Gamble, ...]

    def __post_init__(self) -> None:
        for g in self.members:
            if g.space != self.space:
                raise DimensionMismatch("gamble set member from a different space")

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.space.labels, self.members))
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def build(cls, space: PossibilitySpace, gambles: Iterable[Gamble]) -> "GambleSet":
        unique = sorted(set(gambles), key=lambda g: g.values)
        return cls(space, tuple(unique))

    @property
    def is_empty(self) -> bool:
        return not self.members

    def __contains__(self, g: Gamble) -> bool:
        return g in self.members

    def union(self, gambles: Iterable[Gamble]) -> "GambleSet":
        return GambleSet.build(self.space, self.members + tuple(gambles))

    def without_zero(self) -> "GambleSet":
        z = zero(self.space)
        return GambleSet.build(self.space, (g for g in self.members if g != z))

    def serialized(self) -> list[list[str]]:
        return [g.serialized() for g in self.members]


@dataclass(frozen=True)
class Assessment:
    """A finite family of gamble sets over one space, canonically ordered
    with duplicates collapsed (repetition never changes the extension)."""

    space: PossibilitySpace
    sets: tuple[GambleSet, ...]

    def __post_init__(self) -> None:
        for s in self.sets:
            if s.space != self.space:
                raise DimensionMismatch("assessment set from a different space")

    @classmethod
    def build(cls, space: PossibilitySpace, sets: Iterable[GambleSet]) -> "Assessment":
        unique = sorted(set(sets), key=lambda s: tuple(g.values for g in s.members))
        return cls(space, tuple(unique))

    @property
    def is_empty(self) -> bool:
        return not self.sets


@dataclass(frozen=True)
class Skip:
    """Evidence that a picking needs no witness: zero lies in its cone."""

    certificate: Certificate


@dataclass(frozen=True)
class Hit:
    """Evidence that a member of the queried set lies in the picking's cone."""

    gamble: Gamble
    certificate: Certificate


Evidence = Union[Skip, Hit]


Node = tuple[tuple[Gamble, ...], Evidence]


@dataclass
class ExtAnswer:
    """A membership answer with its evidence as a cover: the settled prefixes
    in depth-first canonical order, each with one certificate over the
    prefix's distinct gambles. A negative answer covers the pickings before
    ``failed_sequence``."""

    member: bool
    witness_list: tuple[GambleSet, ...]
    cover: tuple[Node, ...]
    failed_sequence: Optional[tuple[Gamble, ...]] = None
    strict: bool = False

    @property
    def per_sequence(self) -> Mapping[tuple[Gamble, ...], Evidence]:
        """The evidence of every covered full picking, in canonical order."""
        return _Pickings(self.witness_list, self.cover)


def _lift(ev: Evidence, extra: int) -> Evidence:
    """The same evidence over ``extra`` trailing generators it does not use."""
    cert = Certificate(ev.certificate.lambdas + (_ZERO,) * extra, ev.certificate.remainder)
    return Skip(cert) if isinstance(ev, Skip) else Hit(ev.gamble, cert)


class _Pickings(Mapping):
    """A cover read picking by picking: each full picking below a node maps to
    the node's evidence lifted onto it. Only iteration expands the cover."""

    def __init__(self, sets: tuple[GambleSet, ...], cover: tuple[Node, ...]):
        self._sets = sets
        self._cover = cover

    def __len__(self) -> int:
        sizes = [len(s.members) for s in self._sets]
        return sum(math.prod(sizes[len(prefix):]) for prefix, _ in self._cover)

    def __iter__(self):
        return (seq for seq, _ in self._expand())

    def __getitem__(self, seq):
        for prefix, ev in self._cover:
            d = len(prefix)
            if (
                len(seq) == len(self._sets)
                and tuple(seq[:d]) == prefix
                and all(g in s for g, s in zip(seq[d:], self._sets[d:]))
            ):
                return _lift(ev, len(set(seq)) - len(set(prefix)))
        raise KeyError(seq)

    def items(self):
        return _PickingItems(self)

    def _expand(self):
        # One object per distinct gamble, so that the distinct gambles of a
        # picking can be counted by identity, without hashing them.
        canonical: dict[Gamble, Gamble] = {}
        members = [tuple(canonical.setdefault(g, g) for g in s.members) for s in self._sets]
        for prefix, ev in self._cover:
            prefix = tuple(canonical.get(g, g) for g in prefix)
            base = len(set(map(id, prefix)))
            lifted: dict[int, Evidence] = {}
            for rest in itertools.product(*members[len(prefix):]):
                seq = prefix + rest
                size = len(set(map(id, seq)))
                if size not in lifted:
                    lifted[size] = _lift(ev, size - base)
                yield seq, lifted[size]


class _PickingItems(ItemsView):
    """Items straight from the expansion, without a lookup per picking."""

    def __iter__(self):
        return self._mapping._expand()


def settle_pickings(
    space: PossibilitySpace,
    sets: Sequence[GambleSet],
    candidate: GambleSet,
    cap: int,
    skip: Callable[[ConeGenerators], Optional[Certificate]],
    hit: Callable[[ConeGenerators, Gamble], Optional[Certificate]],
    strict: bool = False,
) -> ExtAnswer:
    """Decide every picking of ``sets`` over the prefix tree, with ``skip(E)``
    and ``hit(E, f)`` monotone in the generators ``E``. A negative answer
    names the first full picking that neither skips nor hits and covers the
    pickings before it; ``strict`` only labels the answer.
    """
    total = math.prod(len(s.members) for s in sets)
    if total > cap:
        raise CapExceeded(f"{total} pickings exceed the cap of {cap}")
    cover: list[Node] = []
    if total == 0:
        return ExtAnswer(True, tuple(sets), (), None, strict)
    stack: list[tuple[Gamble, ...]] = [()]
    while stack:
        prefix = stack.pop()
        d = len(prefix)
        # A prefix whose next set is a singleton has the same subtree as its
        # only child, so only the child, the stronger test, is run.
        if d == len(sets) or len(sets[d].members) > 1:
            E = ConeGenerators.build(space, prefix)
            cert = skip(E)
            found: Optional[Evidence] = None if cert is None else Skip(cert)
            if found is None:
                for f in candidate.members:
                    cert = hit(E, f)
                    if cert is not None:
                        found = Hit(f, cert)
                        break
            if found is not None:
                cover.append((prefix, found))
                continue
            if d == len(sets):
                return ExtAnswer(False, tuple(sets), tuple(cover), prefix, strict)
        stack.extend(prefix + (g,) for g in reversed(sets[d].members))
    return ExtAnswer(True, tuple(sets), tuple(cover), None, strict)


def _closure(
    space: PossibilitySpace,
    sets: Sequence[GambleSet],
    candidate: GambleSet,
    strict: bool,
    cap: int,
) -> ExtAnswer:
    if candidate.space != space:
        raise DimensionMismatch("queried set lives on a different space")
    skip = zero_in_desext_strict if strict else zero_in_desext
    hit = desext_contains_strict if strict else desext_contains
    return settle_pickings(space, sets, candidate, cap, skip, hit, strict)


def closure_holds(
    sets: Sequence[GambleSet],
    candidate: GambleSet,
    strict: bool = False,
    cap: int = DEFAULT_SEQUENCE_CAP,
) -> ExtAnswer:
    """Check the closure condition for an explicit list of gamble sets: every
    picking across the list must Skip or Hit. An empty set in the list makes
    the condition hold vacuously."""
    if not sets:
        raise ValueError("closure_holds needs at least one gamble set")
    space = sets[0].space
    for s in sets:
        if s.space != space:
            raise DimensionMismatch("gamble sets live on different spaces")
    return _closure(space, tuple(sets), candidate, strict, cap)


def ext_contains(
    assessment: Assessment,
    candidate: GambleSet,
    strict: bool = False,
    cap: int = DEFAULT_SEQUENCE_CAP,
) -> ExtAnswer:
    """Membership of a gamble set in the natural extension of an assessment.

    Uses the full canonical list of assessment sets exactly once; for the
    empty assessment this degenerates to the single empty picking, i.e. the
    candidate must contain a weakly (strictly, in strict mode) positive
    gamble.
    """
    return _closure(assessment.space, assessment.sets, candidate, strict, cap)


def is_consistent(
    assessment: Assessment, strict: bool = False, cap: int = DEFAULT_SEQUENCE_CAP
) -> bool:
    """An assessment is consistent iff the empty set stays out of its
    extension; otherwise every set whatsoever is a member."""
    empty = GambleSet.build(assessment.space, ())
    return not ext_contains(assessment, empty, strict=strict, cap=cap).member


def verify_ext_answer(answer: ExtAnswer, candidate: GambleSet) -> bool:
    """Re-validate a membership answer of either polarity by substitution only.

    A node of the cover whose prefix picks the gambles at indices
    i_0, ..., i_{d-1} of the first d witness sets stands for the interval of
    the canonical product, in mixed radix, that starts at i_0 ... i_{d-1} 0 ... 0
    and holds the product of the remaining set sizes. The nodes' intervals
    must follow each other from 0 and end at the product size for a positive
    answer, or, for a negative one, at the index of ``failed_sequence``
    (itself a picking). So every picking is covered exactly once, in order,
    and nothing past the failed picking is. A prefix longer than the witness
    list, or with a gamble outside its set, is rejected. The failed picking
    carries no refutation yet, so a forged negative naming the first picking
    with an empty cover still passes.

    Each node's certificate is then substituted once, over the prefix's
    distinct gambles: a Skip must reconstruct zero, a Hit a member of the
    candidate set. That checks every picking below the node, because the
    picking's distinct gambles start with the prefix's and the certificate,
    padded with zero coefficients for the rest, reconstructs the same gamble
    with the same remainder. A payload read from a file is a cover of
    full-depth leaves, so there every picking is substituted.
    """
    sets = answer.witness_list
    # index[d][g]: the position of g in the d-th witness set; below[d]: the
    # number of full pickings under a prefix of length d.
    index = [{g: k for k, g in enumerate(s.members)} for s in sets]
    below = [1] * (len(sets) + 1)
    for d in reversed(range(len(sets))):
        below[d] = below[d + 1] * len(sets[d].members)

    def start(prefix: tuple[Gamble, ...]) -> Optional[int]:
        at = 0
        for g, positions in zip(prefix, index):
            k = positions.get(g)
            if k is None:
                return None
            at = at * len(positions) + k
        return at * below[len(prefix)]

    if answer.member:
        end = below[0]
    else:
        failed = answer.failed_sequence
        if failed is None or len(failed) != len(sets):
            return False
        end = start(failed)
        if end is None:
            return False
    space = candidate.space
    valid = certificate_valid_strict if answer.strict else certificate_valid
    z = zero(space)
    covered = 0
    for prefix, ev in answer.cover:
        if len(prefix) > len(sets) or start(prefix) != covered:
            return False
        covered += below[len(prefix)]
        generators = ConeGenerators(space, tuple(dict.fromkeys(prefix)))
        if isinstance(ev, Skip):
            ok = valid(ev.certificate, generators, z)
        else:
            ok = ev.gamble in candidate and valid(ev.certificate, generators, ev.gamble)
        if not ok:
            return False
    return covered == end


# ---------------------------------------------------------------------------
# Coherence-axiom harness
# ---------------------------------------------------------------------------

AXIOMS = (
    "no-empty-set",
    "drop-zero",
    "weak-positive",
    "superset",
    "dominators",
    "addition",
)


@dataclass
class AxiomTrial:
    description: str
    ok: bool


@dataclass
class AxiomReport:
    axiom: str
    trials: list[AxiomTrial] = field(default_factory=list)

    @property
    def counterexamples(self) -> list[AxiomTrial]:
        return [t for t in self.trials if not t.ok]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def _random_weak_positive(rng: random.Random, space: PossibilitySpace, bound: int = 2) -> Gamble:
    while True:
        values = tuple(Fraction(rng.randint(0, bound)) for _ in space.labels)
        if any(values):
            return Gamble(space, values)


def _random_nonnegative(rng: random.Random, space: PossibilitySpace, bound: int = 2) -> Gamble:
    return Gamble(space, tuple(Fraction(rng.randint(0, bound)) for _ in space.labels))


def _member_pool(
    assessment: Assessment, rng: random.Random, want: int = 8, max_tries: int = 40
) -> list[GambleSet]:
    """Known plus sampled members of the extension, used as axiom premises."""
    space = assessment.space
    pool = list(assessment.sets)
    for _ in range(2):
        pool.append(GambleSet.build(space, (_random_weak_positive(rng, space),)))
    tries = 0
    while len(pool) < want and tries < max_tries:
        tries += 1
        cand = GambleSet.build(
            space, tuple(random_gamble(rng, space, 2) for _ in range(rng.randint(1, 2)))
        )
        if cand.members and ext_contains(assessment, cand).member:
            pool.append(cand)
    return pool


def check_axiom(
    assessment: Assessment,
    axiom: str,
    rng_seed: int,
    trials: int = 20,
) -> AxiomReport:
    """Sample instances of one coherence axiom's hypothesis from the
    extension and verify its conclusion also lies in the extension.

    Any counterexample indicates an implementation bug: the extension of a
    consistent assessment is coherent by construction. Axiom names:
    ``no-empty-set``, ``drop-zero``, ``weak-positive``, ``superset``,
    ``dominators``, ``addition``.
    """
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}; expected one of {AXIOMS}")
    if not is_consistent(assessment):
        raise InconsistentAssessment("axiom checks need a consistent assessment")
    rng = random.Random(f"{axiom}:{rng_seed}")
    space = assessment.space
    report = AxiomReport(axiom)
    pool = _member_pool(assessment, rng)

    def member(s: GambleSet) -> bool:
        return ext_contains(assessment, s).member

    for _ in range(trials):
        if axiom == "no-empty-set":
            ok = not member(GambleSet.build(space, ()))
            report.trials.append(AxiomTrial("empty set stays out", ok))
        elif axiom == "drop-zero":
            base = rng.choice(pool).union((zero(space),))
            stripped = base.without_zero()
            # stripped is nonempty: {0} alone never enters a consistent extension
            ok = member(base) and not stripped.is_empty and member(stripped)
            report.trials.append(AxiomTrial(f"drop zero from {base.serialized()}", ok))
        elif axiom == "weak-positive":
            g = _random_weak_positive(rng, space)
            ok = member(GambleSet.build(space, (g,)))
            report.trials.append(AxiomTrial(f"singleton {g.serialized()}", ok))
        elif axiom == "superset":
            base = rng.choice(pool)
            extra = tuple(random_gamble(rng, space, 2) for _ in range(rng.randint(1, 2)))
            ok = member(base.union(extra))
            report.trials.append(AxiomTrial(f"superset of {base.serialized()}", ok))
        elif axiom == "dominators":
            base = rng.choice(pool)
            dominators = {g: g + _random_nonnegative(rng, space) for g in base.members}
            ok = member(GambleSet.build(space, dominators.values()))
            report.trials.append(AxiomTrial(f"dominators over {base.serialized()}", ok))
        else:  # addition
            chosen = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
            comb_map: dict[tuple[Gamble, ...], Gamble] = {}
            for seq in itertools.product(*(s.members for s in chosen)):
                while True:
                    coeffs = tuple(Fraction(rng.randint(0, 2)) for _ in seq)
                    if any(coeffs):
                        break
                comb_map[seq] = combination(coeffs, seq, space)
            conclusion = GambleSet.build(space, comb_map.values())
            ok = member(conclusion)
            report.trials.append(
                AxiomTrial(f"addition into {conclusion.serialized()}", ok)
            )
    return report


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
    from .ratlp import EQ, LinearProgram, lp_solve

    n = len(seq)
    columns = seq + (extra,)
    rows = []
    for i in range(space.size):
        rows.append((tuple(g.values[i] for g in columns), EQ, f.values[i]))
    lp = LinearProgram(n + 1, (_ONE,) * n + (_ZERO,), tuple(rows))
    outcome = lp_solve(lp)
    from .cones import _positive_sum_witness  # same extraction as the cone tests

    lam = _positive_sum_witness(outcome, n)
    if lam is None:
        return seq[0]  # every split is a pure multiple of the extra gamble
    return combination(lam, seq, space)


def _validate_combination(
    space: PossibilitySpace,
    sets: Sequence[GambleSet],
    comb_map: Mapping[tuple[Gamble, ...], Gamble],
    posi_check: Optional[Callable[[ConeGenerators, Gamble], bool]] = None,
) -> None:
    """Each picking has one combination value in its positive hull, as
    decided by ``posi_check`` (by default the certificate engine)."""
    if posi_check is None:
        posi_check = lambda E, f: posi_contains(E, f) is not None
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
    posi_check: Optional[Callable[[ConeGenerators, Gamble], bool]] = None,
) -> None:
    """Machine-check a derivation trace; raises :class:`TraceError`.

    ``posi_check`` decides positive-hull membership for the pair steps and
    defaults to the certificate engine; pass an independent decision
    procedure to re-validate a trace against a second code path.
    """
    if posi_check is None:
        posi_check = lambda E, f: posi_contains(E, f) is not None
    allowed = set(given_sets)
    space = trace.space
    for idx, step in enumerate(trace.steps):
        if step.rule == "given":
            if step.result not in allowed:
                raise TraceError(f"step {idx}: set was never given")
        elif step.rule == "pair-add":
            if step.left is None or step.right is None or max(step.left, step.right) >= idx:
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
            if step.parent is None or step.parent >= idx:
                raise TraceError(f"step {idx}: superset parent must be earlier")
            smaller = trace.steps[step.parent].result
            if not set(smaller.members) <= set(step.result.members):
                raise TraceError(f"step {idx}: result is not a superset of its parent")
        else:
            raise TraceError(f"step {idx}: unknown rule {step.rule!r}")
    if target is not None and trace.final != target:
        raise TraceError("trace does not end at the expected set")


@dataclass
class KAddInstance:
    """An addition-axiom instance: sets, one combination per picking, and the
    image set they derive."""

    sets: tuple[GambleSet, ...]
    combination: dict[tuple[Gamble, ...], Gamble]
    conclusion: GambleSet

    def validate(self, posi_check: Optional[Callable[[ConeGenerators, Gamble], bool]] = None) -> None:
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
