"""Natural extension for sets of desirable gamble sets.

An assessment is a finite family of gamble sets, each read as "at least one
member is desirable". A candidate set B belongs to the natural extension
exactly when, for every way of picking one gamble from each assessment set,
either the picked gambles are mutually incompatible (the zero gamble lands in
the cone they span together with the weakly positive gambles: a skip) or
some member of B lands in that cone (a hit). Both ask whether a gamble, 0 or
a member, is in the picking's cone, and one :class:`Evidence` records either
answer, with ``gamble`` None for 0. The empty assessment
is the degenerate case: B qualifies iff it contains a weakly positive gamble,
which is the same condition read over the single empty picking.

Deciding against the full canonical list of assessment sets exactly once is
sound: the per-picking condition only depends on the *set* of picked gambles,
so repetitions collapse, and enlarging the list only grows each picking's
cone. Both facts are exercised by the brute-force oracle in
:mod:`gamblesets.oracle`.

Before any picking is tested, each assessment set loses its dominated
members (:func:`_reduction`): a member b goes when another kept member a lies
in cone(b), the cone of b alone, since a picking with b spans a cone that
holds the same picking with a and so settles whenever that one does. A
weakly (strictly) positive member lies in every cone, so its set keeps only
it. A set whose n(n - 1) tests would outnumber the pickings is kept whole.
The walk below runs over the kept members; the ``cap`` still bounds the
full product.

Pickings are decided over a prefix tree (:func:`settle_pickings`). Skips and
hits are monotone in the picking, since adding generators only grows the
cone, so a prefix (one gamble from each of the first few sets) that skips or
hits settles every full picking below it. Every prefix the walk reaches is
tested, so a "yes" records, on each path, the first prefix that settles,
with the one certificate its test returned over the prefix's deduplicated
gambles: a *cover* of every picking. The tree is walked depth first in
canonical order, so the answer, the failed picking and the pickings the
cover holds are a flat loop's. A certificate carries over to each picking
below its prefix: the prefix's deduplicated generators lead the picking's,
so zero coefficients are padded for the gambles the prefix lacks, and the
remainder stays. A "yes" of the engine also records the drops above its
deepest node, each with the certificate of a = lambda b + w, and lifts a
certificate onto a picking with b by moving the keeper's coefficient mu to b
as mu lambda; the remainder gains mu w, which keeps it valid.
:attr:`ExtAnswer.per_sequence` reads the cover that way into a dict, built
anew on each read, in one pass over the product of the full sets that looks
up a node again only where a picking leaves the last one's head.

A weak test that fails leaves a refutation: a dual vector y >= 0
with y . g >= 0 for every gamble g of the picking and y . f < 0, or with
y . g >= 1 and y . f <= 0, which proves that f (zero for the skip test) is
outside the cone (Farkas' lemma). The proof survives every gamble added with
y . g >= 0 (> 0 in the second form), so the driver passes the vectors down
the tree, and a child decides most of its failing tests with integer dot
products instead of an LP. A "no" is proved by its failed picking and that
picking's refutations alone, so it records no cover. Every strict member is
a weak member, so the strict walk passes the same weak refutations down and
skips the strict tests they fail; a strict "no" records none of them.

:func:`verify_ext_answer` checks a "no" by the tests of its failed picking,
and a "yes" by its drops, then its cover by its prefixes: each stands for an
interval of the product of the kept members, the intervals must follow each
other from the first picking to the end, and each certificate is
substituted once. Every test, drop and node is one cone answer, which
:func:`gamblesets.cones.answer_holds` checks, as ``selftest --verify`` does
for a single-cone payload.

The derivation engines built on this module, which prove the addition and
dominators axioms as checkable traces, are in :mod:`gamblesets.axioms`.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import cones
from .cones import (
    Certificate,
    ConeGenerators,
    Refutation,
    answer_holds,
    desext_contains,
    desext_contains_strict,
    desext_refutation,
    zero_in_desext,
    zero_in_desext_strict,
)
from .gambles import (
    DimensionMismatch,
    Gamble,
    PossibilitySpace,
    dot,
    in_cone_wd0,
    zero,
)
from .ratlp import Value

DEFAULT_SEQUENCE_CAP = 10**6

_set = object.__setattr__


class CapExceeded(RuntimeError):
    """Raised when a query would enumerate more pickings than the cap allows."""


class InconsistentAssessment(ValueError):
    """Raised by operations whose precondition is a consistent assessment."""


class GambleSet(Value):
    """A finite set of gambles, deduplicated and kept in a canonical order."""

    __slots__ = ("space", "members", "_hash")
    _fields = ("space", "members")

    def __init__(self, space: PossibilitySpace, members: tuple[Gamble, ...]) -> None:
        for g in members:
            if g.space != space:
                raise DimensionMismatch("gamble set member from a different space")
        _set(self, "space", space)
        _set(self, "members", members)
        _set(self, "_hash", None)

    __hash__ = Value._cached_hash

    @classmethod
    def build(cls, space: PossibilitySpace, gambles: Iterable[Gamble]) -> "GambleSet":
        unique = sorted(set(gambles), key=lambda g: g.values)
        return cls(space, tuple(unique))

    @property
    def is_empty(self) -> bool:
        return not self.members

    def __contains__(self, g: Gamble) -> bool:
        return g in self.members

    def serialized(self) -> list[list[str]]:
        return [g.serialized() for g in self.members]


class Assessment(Value):
    """A finite family of gamble sets over one space, canonically ordered
    with duplicates collapsed (repetition never changes the extension)."""

    __slots__ = _fields = ("space", "sets")

    def __init__(self, space: PossibilitySpace, sets: tuple[GambleSet, ...]) -> None:
        for s in sets:
            if s.space != space:
                raise DimensionMismatch("assessment set from a different space")
        _set(self, "space", space)
        _set(self, "sets", sets)

    @classmethod
    def build(cls, space: PossibilitySpace, sets: Iterable[GambleSet]) -> "Assessment":
        unique = sorted(set(sets), key=lambda s: tuple(g.values for g in s.members))
        return cls(space, tuple(unique))

    @property
    def is_empty(self) -> bool:
        return not self.sets


class Evidence(Value):
    """How a picking, or a prefix of pickings, settles: its cone holds
    ``gamble``, a member of the queried set (a hit), or zero when ``gamble``
    is None (a skip: the picking is incoherent), as ``certificate`` proves
    over the picking's distinct gambles."""

    __slots__ = _fields = ("gamble", "certificate")

    def __init__(self, gamble: Optional[Gamble], certificate: Certificate) -> None:
        _set(self, "gamble", gamble)
        _set(self, "certificate", certificate)


Node = tuple[tuple[Gamble, ...], Evidence]


# A member dropped from a witness set: (set index, dropped position, keeper
# position, certificate of the keeper over the dropped member alone).
Drop = tuple[int, int, int, Certificate]


class ExtAnswer(Value):
    """A membership answer with its evidence. A "yes" holds a cover: on each
    path of the prefix tree, the first prefix that settles, in depth-first
    canonical order, each with the certificate its test returned, over the
    prefix's distinct gambles. Its ``reduction`` lists the members dropped
    from the witness sets before the walk, as (set index, dropped position,
    keeper position, certificate): the keeper a lies in the cone of the
    dropped member b alone, and the certificate, over (b,), proves it. The
    cover's prefixes pick only kept members. Drops are recorded only in the
    sets above the deepest cover node, since every member of a deeper set
    lies below a node. A "no" holds no cover and no reduction, only its
    ``failed_sequence``, a picking of kept members; in weak mode, unless
    that picking is empty, ``refutations`` proves the zero gamble, then each
    member of the candidate set in its canonical order, outside the
    picking's cone.
    """

    __slots__ = _fields = (
        "member", "witness_list", "cover", "failed_sequence", "strict", "refutations",
        "reduction",
    )

    def __init__(self, member: bool, witness_list: tuple[GambleSet, ...],
                 cover: tuple[Node, ...], failed_sequence: Optional[tuple[Gamble, ...]] = None,
                 strict: bool = False, refutations: tuple[Refutation, ...] = (),
                 reduction: tuple[Drop, ...] = ()) -> None:
        _set(self, "member", member)
        _set(self, "witness_list", witness_list)
        _set(self, "cover", cover)
        _set(self, "failed_sequence", failed_sequence)
        _set(self, "strict", strict)
        _set(self, "refutations", refutations)
        _set(self, "reduction", reduction)

    @property
    def per_sequence(self) -> dict[tuple[Gamble, ...], Evidence]:
        """The evidence of every covered full picking of the witness list, in
        canonical order: a dict built on each read, so bind it once."""
        return dict(_pickings(self.witness_list, self.cover, self.reduction)) if self.cover else {}


def _lift(ev: Evidence, extra: int) -> Evidence:
    """The same evidence over ``extra`` trailing generators it does not use."""
    cert = Certificate(ev.certificate.lambdas + (0,) * extra, ev.certificate.remainder)
    return Evidence(ev.gamble, cert)


def _pickings(
    sets: tuple[GambleSet, ...], cover: tuple[Node, ...], reduction: tuple[Drop, ...]
) -> Iterator[tuple[tuple[Gamble, ...], Evidence]]:
    """(picking, evidence) for every full picking of ``sets`` below a node of
    the cover, in canonical order. Read as its reduced picking (each dropped
    member as its keeper), a picking lies below one node, of some length k;
    its first k gambles, its *head*, take the node's evidence, and the
    pickings below one head follow each other in the product. The node's
    evidence is moved onto the head's distinct gambles: a keeper a that the
    head lacks was picked for a dropped b with a = lambda b + w, so its
    coefficient mu moves to the first such b as mu lambda and the remainder
    gains mu w, which keeps it valid; :meth:`Certificate.over` forms it. It
    is then lifted onto the rest of each picking below the head."""
    # keepers[d, b]: the keeper of the dropped member b of set d, and b's
    # coefficient in the keeper's certificate.
    keepers = {
        (d, sets[d].members[b]): (sets[d].members[a], cert.lambdas[0])
        for d, b, a, cert in reduction
    }
    nodes = dict(cover)
    head = None
    for seq in itertools.product(*(s.members for s in sets)):
        if head is None or seq[:len(head)] != head:
            reduced = tuple(keepers.get((d, g), (g,))[0] for d, g in enumerate(seq))
            node = next((reduced[:k] for k in range(len(seq) + 1) if reduced[:k] in nodes), None)
            if node is None:
                continue
            head, ev = seq[:len(node)], nodes[node]
            if head != node:
                mu = {a: m for a, m in zip(dict.fromkeys(node), ev.certificate.lambdas) if m}
                moved = {b: mu.pop(b, 0) for b in dict.fromkeys(head)}
                for d, (b, a) in enumerate(zip(head, node)):
                    if a in mu:
                        moved[b] += mu.pop(a) * keepers[d, b][1]
                E = ConeGenerators(sets[0].space, tuple(moved))
                f = zero(E.space) if ev.gamble is None else ev.gamble
                ev = Evidence(ev.gamble, Certificate.over(E, tuple(moved.values()), f))
            lifted = {len(set(head)) + x: _lift(ev, x) for x in range(len(sets) - len(head) + 1)}
        yield seq, lifted[len(set(seq))]


def check_cap(sets: Sequence[GambleSet], cap: int) -> None:
    """Raise :class:`CapExceeded` when the full product of ``sets`` holds
    more than ``cap`` pickings, before any test is run."""
    total = math.prod(len(s.members) for s in sets)
    if total > cap:
        raise CapExceeded(f"{total} pickings exceed the cap of {cap}")


def settle_pickings(
    space: PossibilitySpace,
    sets: Sequence[GambleSet],
    candidate: GambleSet,
    skip: Callable[[ConeGenerators], Optional[Certificate]],
    hit: Callable[[ConeGenerators, Gamble], Optional[Certificate]],
    refute: Optional[Callable[[ConeGenerators, Gamble], Optional[Refutation]]] = None,
) -> ExtAnswer:
    """Decide every picking of ``sets`` over the prefix tree, with ``skip(E)``
    and ``hit(E, f)`` monotone in the generators ``E``. Every prefix popped
    is tested, the empty one first, and one that skips or hits is not
    extended, so a "yes" holds as its cover the first prefix that settles on
    each path; a "no" names the first full picking that neither skips nor
    hits, and no cover.

    With ``refute(E, f)``, which returns the refutation behind a failed test
    (f = 0 for the skip test), refutations flow down the tree. A tested node
    that settles nothing hands the dual vectors of its failed tests, and those
    it inherited, to its children. A child keeps a vector y while y . g >= 0
    for each gamble g it adds, and y then refutes every test f with
    y . f < 0; while y . g > 0 for every gamble on the path, it also refutes
    every f with y . f = 0 (the ``"sum"`` form, which the skip test's vectors
    start in). A test that a kept vector refutes fails without calling
    ``skip`` or ``hit``. Only failing tests are left out, so the answer and its
    cover do not change. A negative answer carries the refutations of its
    failed picking when kept vectors refute every test there. Where
    ``refute`` finds no proof for a failed test (``skip`` or ``hit``
    disagreed with it), the "no" carries none and fails
    :func:`verify_ext_answer`. The strict walk passes the weak refuter, which
    finds none where only the strict test fails, and drops what it recorded.
    The caller bounds the number of pickings (:func:`check_cap`).
    """
    cover: list[Node] = []
    if any(s.is_empty for s in sets):
        return ExtAnswer(True, tuple(sets), ())
    tests = (zero(space),) + candidate.members
    # Each entry of the stack holds a prefix and the vectors kept on its
    # parent's path, as (y, refuted, weak): y an integer direction, bit i of
    # ``refuted`` set when y refutes tests[i] there, and ``weak`` the bits
    # that hold without y . g > 0 (see :func:`_kept`).
    stack: list[tuple[tuple[Gamble, ...], list]] = [((), [])]
    while stack:
        prefix, kept = stack.pop()
        if kept:
            added = prefix[-1].direction
            kept = [
                (y, refuted if t > 0 else weak, weak)
                for y, refuted, weak in kept
                if (t := dot(y, added)) > 0 or (t == 0 and weak)
            ]
        d = len(prefix)
        E = ConeGenerators.build(space, prefix)
        refuted = 0
        for _, bits, _ in kept:
            refuted |= bits
        found: Optional[Evidence] = None
        for i, f in enumerate(tests):
            if refuted >> i & 1:
                continue
            cert = hit(E, f) if i else skip(E)
            if cert is not None:
                found = Evidence(f if i else None, cert)
                break
            ref = None if refute is None else refute(E, f)
            if ref is not None:
                kept = kept + [_kept(ref.direction, E, tests)]
                refuted |= kept[-1][1]
        if found is not None:
            cover.append((prefix, found))
            continue
        if d == len(sets):
            refutations = ()
            if prefix and refuted == (1 << len(tests)) - 1:
                refutations = tuple(
                    Refutation.from_direction(
                        next(y for y, bits, _ in kept if bits >> i & 1), E, f
                    )
                    for i, f in enumerate(tests)
                )
            return ExtAnswer(False, tuple(sets), (), prefix, refutations=refutations)
        stack.extend((prefix + (g,), kept) for g in reversed(sets[d].members))
    return ExtAnswer(True, tuple(sets), tuple(cover))


def _kept(y: tuple[int, ...], E: ConeGenerators, tests: Sequence[Gamble]) -> tuple:
    """A fresh dual vector of a failed test at E as an entry of the kept
    set: y, the bits of the tests it refutes at E, and the bits of those f
    with y . f < 0, which stay refuted below E while y . g >= 0. A weakly
    positive f is in every cone, so y . f = 0 refutes it nowhere."""
    signs = [dot(y, f.direction) for f in tests]
    weak = sum(1 << i for i, s in enumerate(signs) if s < 0)
    if all(dot(y, g.direction) > 0 for g in E.generators):
        flat = (i for i, (s, f) in enumerate(zip(signs, tests)) if s == 0 and not in_cone_wd0(f))
        return y, weak | sum(1 << i for i in flat), weak
    return y, weak, weak


def _closure(
    space: PossibilitySpace,
    sets: Sequence[GambleSet],
    candidate: GambleSet,
    strict: bool,
    cap: int,
) -> ExtAnswer:
    """Decide over the reduced sets (:func:`_reduction`), then report over the
    full ones: a "yes" keeps the drops above its deepest cover node."""
    if candidate.space != space:
        raise DimensionMismatch("queried set lives on a different space")
    sets = tuple(sets)
    check_cap(sets, cap)
    kept, drops = _reduction(sets, strict)
    # The module's own names, read at each call, so that a wrapper bound to
    # them sees every picking test. Every strict member is a weak member, so
    # a weak refutation also fails a strict test; a strict "no" records none.
    if strict:
        skip, hit = zero_in_desext_strict, desext_contains_strict
    else:
        skip, hit = zero_in_desext, desext_contains
    answer = settle_pickings(space, kept, candidate, skip, hit, desext_refutation)
    depth = max((len(prefix) for prefix, _ in answer.cover), default=0)  # 0 for a "no"
    return ExtAnswer(
        answer.member, sets, answer.cover, answer.failed_sequence, strict,
        () if strict else answer.refutations, tuple(drop for drop in drops if drop[0] < depth),
    )


@lru_cache(maxsize=1 << 14)
def _reduction(
    sets: tuple[GambleSet, ...], strict: bool
) -> tuple[tuple[GambleSet, ...], tuple[Drop, ...]]:
    """The sets with their dominated members dropped, and the drops. A member
    b is dropped when another kept member a lies in cone(b), the mode's cone
    of b alone: a picking with b spans a cone that holds the same picking
    with a, so it settles whenever that one does. Of two members in each
    other's cone the earlier is kept; a weakly (strictly) positive member
    lies in every cone, so its set keeps only it. Each dropped member's
    keeper is the first kept member in its cone. A set of n members costs
    n(n - 1) cone tests, so a set whose count exceeds the full product of
    set sizes, the most pickings the walk could test, is kept whole.
    Bounded like the cone caches, so a long-lived process reduces each
    assessment once. Its cone tests go through :mod:`cones` itself, not this
    module's names, which stand for the tests of pickings."""
    contains = cones.desext_contains_strict if strict else cones.desext_contains
    total = math.prod(len(s.members) for s in sets)
    kept_sets: list[GambleSet] = []
    drops: list[Drop] = []
    for d, s in enumerate(sets):
        members = s.members
        if len(members) * (len(members) - 1) > total:
            kept_sets.append(s)
            continue
        # inside[j][i]: the certificate that member i lies in cone(member j).
        inside = [
            [None if i == j else contains(ConeGenerators(s.space, (b,)), a)
             for i, a in enumerate(members)]
            for j, b in enumerate(members)
        ]
        dropped = {
            j for j in range(len(members))
            if any(
                inside[j][i] is not None and (i < j or inside[i][j] is None)
                for i in range(len(members))
            )
        }
        kept_sets.append(
            GambleSet(s.space, tuple(g for j, g in enumerate(members) if j not in dropped))
        )
        for j in sorted(dropped):
            i = next(i for i, c in enumerate(inside[j]) if i not in dropped and c is not None)
            drops.append((d, j, i, inside[j][i]))
    return tuple(kept_sets), tuple(drops)


def closure_holds(
    sets: Sequence[GambleSet],
    candidate: GambleSet,
    strict: bool = False,
    cap: int = DEFAULT_SEQUENCE_CAP,
) -> ExtAnswer:
    """Check the closure condition for an explicit list of gamble sets: every
    picking across the list must skip or hit. An empty set in the list makes
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

    Each drop, node and test below is one cone answer in the answer's mode,
    checked by :func:`gamblesets.cones.answer_holds`. A "no" must record no
    cover and no reduction, and its ``failed_sequence`` must be a picking of
    the witness list, outside whose cone lie the zero gamble and then each
    member of the candidate set: none may be weakly (strictly) positive, and
    in weak mode each is refuted over the picking's distinct gambles, unless
    the picking is empty. Strict refutations are not recorded. An answer
    that needs no refutations must record none.

    A "yes" names no failed picking. Its ``reduction`` is checked first
    (:func:`_kept_members`): each drop's positions must be in range, its
    keeper a must not be dropped, and its certificate must prove a in the
    cone of the dropped member b alone, checked like any certificate of the
    cover, over the one generator b. The members
    that no drop names are kept. A node of the cover whose prefix picks the
    kept gambles at indices i_0, ..., i_{d-1} of the first d witness sets
    stands for the interval of the product of the kept members, in mixed
    radix, that starts at i_0 ... i_{d-1} 0 ... 0 and holds the product of
    the remaining kept set sizes. The nodes' intervals must follow each
    other from 0 and end at the product size, so every reduced picking is
    covered exactly once, in order; every full picking maps to one through
    the keepers. A prefix longer than the witness list, or with a gamble
    that is not a kept member of its set, is rejected.

    Each node's certificate is then substituted once, over the prefix's
    distinct gambles: it must prove the node's gamble, a member of the
    candidate set, or zero for a skip. That checks every picking below the node, because the
    picking's distinct gambles start with the prefix's and the certificate,
    padded with zero coefficients for the rest, reconstructs the same gamble
    with the same remainder. A payload read from a file names whatever
    prefixes it names, checked the same way; ``in-ext`` writes full-depth
    leaves, so there every picking is substituted.
    """
    sets, failed = answer.witness_list, answer.failed_sequence
    if not answer.member:
        picking = failed is not None and len(failed) == len(sets) and all(
            g in s for g, s in zip(failed, sets)
        )
        return not (answer.cover or answer.reduction) and picking and _refuted(answer, candidate)
    if answer.refutations or failed is not None:
        return False
    kept = _kept_members(sets, answer.reduction, answer.strict)
    if kept is None:
        return False
    # index[d][g]: the position of g among the kept members of the d-th
    # witness set; below[d]: the number of reduced pickings under a prefix
    # of length d.
    index = [{g: k for k, g in enumerate(members)} for members in kept]
    below = [1] * (len(sets) + 1)
    for d in reversed(range(len(sets))):
        below[d] = below[d + 1] * len(kept[d])

    def start(prefix: tuple[Gamble, ...]) -> Optional[int]:
        at = 0
        for g, positions in zip(prefix, index):
            k = positions.get(g)
            if k is None:
                return None
            at = at * len(positions) + k
        return at * below[len(prefix)]

    space = candidate.space
    z = zero(space)
    covered = 0
    for prefix, ev in answer.cover:
        if len(prefix) > len(sets) or start(prefix) != covered:
            return False
        covered += below[len(prefix)]
        f = z if ev.gamble is None else ev.gamble
        if ev.certificate is None or (ev.gamble is not None and ev.gamble not in candidate):
            return False
        if not answer_holds(ConeGenerators.build(space, prefix), f, answer.strict, ev.certificate):
            return False
    return covered == below[0]


def _kept_members(
    sets: tuple[GambleSet, ...], reduction: tuple[Drop, ...], strict: bool
) -> Optional[list[tuple[Gamble, ...]]]:
    """The kept members of each witness set once every drop of ``reduction``
    checks out, or None: the drop's certificate must prove its keeper in the
    mode's cone of the dropped member alone, like any certificate of the
    cover. A drop's positions must be in range and its keeper not dropped,
    so not the dropped member itself."""
    if not reduction:
        return [s.members for s in sets]
    dropped: list[set[int]] = [set() for _ in sets]
    for d, b, _, _ in reduction:
        if d not in range(len(sets)) or b not in range(len(sets[d].members)):
            return None
        dropped[d].add(b)
    for d, b, a, cert in reduction:
        members = sets[d].members
        if a not in range(len(members)) or a in dropped[d] or cert is None:
            return None
        E = ConeGenerators(sets[d].space, (members[b],))
        if not answer_holds(E, members[a], strict, cert):
            return None
    return [
        tuple(g for k, g in enumerate(s.members) if k not in out)
        for s, out in zip(sets, dropped)
    ]


def _refuted(answer: ExtAnswer, candidate: GambleSet) -> bool:
    """Whether the failed picking of a negative answer neither skips nor
    hits, as far as the answer records it: each test, zero and then each
    member of the candidate set, is a cone "no" over the picking's distinct
    gambles (:func:`gamblesets.cones.answer_holds`) with its refutation, or
    with none when the answer records none."""
    E = ConeGenerators.build(candidate.space, answer.failed_sequence)
    tests = (zero(candidate.space),) + candidate.members
    refutations = answer.refutations or (None,) * len(tests)
    return len(refutations) == len(tests) and all(
        answer_holds(E, f, answer.strict, refutation=ref)
        for f, ref in zip(tests, refutations)
    )
