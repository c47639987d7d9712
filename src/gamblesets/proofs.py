"""What an answer says, and the rules that check it by substitution alone.

This module is the checker's trusted base. It holds the vocabulary of every
answer (cone generators, certificates, refutations, gamble sets,
assessments, the evidence of a picking and the extension answer with its
cover and drops) and the rules that decide whether recorded evidence proves
an answer: :func:`answer_holds` for one cone answer and
:func:`verify_ext_answer` for an extension answer. It solves nothing. It
imports only :mod:`gamblesets.gambles` and the value helpers of
:mod:`gamblesets.ratlp`, so checking an answer, as ``selftest --verify``
does, loads neither the simplex's callers in :mod:`gamblesets.cones` nor the
walk in :mod:`gamblesets.extension`, and shares no decision logic with them:
a checker small enough to read, apart from the solver it checks (the de
Bruijn criterion; Cheung, Gleixner and Steffy, "Verifying integer
programming results", IPCO 2017, check a solver's answers the same way).
:mod:`gamblesets.cones` and :mod:`gamblesets.extension` re-export the names
the package has always exported from them.

A certificate of f in desext(E) is coefficients lambda >= 0 and a remainder
r with f = E lambda + r, and r weakly (strictly) positive or, once some
coefficient is positive, zero; :meth:`Certificate.reconstructs` substitutes
it in integers over one common denominator (:func:`gambles.substitute`). A
refutation is a dual vector y >= 0 that puts f outside desext(E) (Farkas'
lemma), checked by integer dot products (:meth:`Refutation.refutes`).
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .gambles import (
    DimensionMismatch,
    Gamble,
    PossibilitySpace,
    combination,
    direction,
    dot,
    in_cone_gt0,
    in_cone_wd0,
    substitute,
    zero,
)
from .ratlp import Exact, Value, denominator, rational_str

DEFAULT_SEQUENCE_CAP = 10**6

_set = object.__setattr__


class CapExceeded(RuntimeError):
    """Raised when a query would enumerate more pickings than the cap allows."""


class InconsistentAssessment(ValueError):
    """Raised by operations whose precondition is a consistent assessment."""


# ---------------------------------------------------------------------------
# One cone: generators, certificates, refutations
# ---------------------------------------------------------------------------


class ConeGenerators(Value):
    """A deduplicated, order-preserving list of generator gambles."""

    __slots__ = ("space", "generators", "_hash")
    _fields = ("space", "generators")

    def __init__(self, space: PossibilitySpace, generators: Iterable[Gamble]) -> None:
        generators = tuple(generators)
        if any(g.space is not space and g.space != space for g in generators):
            raise DimensionMismatch("generator from a different space")
        _set(self, "space", space)
        _set(self, "generators", generators)
        _set(self, "_hash", None)

    __hash__ = Value._cached_hash

    @classmethod
    def build(cls, space: PossibilitySpace, gambles: Iterable[Gamble]) -> "ConeGenerators":
        return cls(space, tuple(dict.fromkeys(gambles)))

    def __len__(self) -> int:
        return len(self.generators)


class Certificate(Value):
    """Coefficients plus remainder witnessing a cone membership: the
    certified gamble f is sum(lambdas[i] * E[i]) + remainder, with E the
    generator list the query was posed over. The coefficients are ints or
    ``Fraction``s."""

    __slots__ = _fields = ("lambdas", "remainder")

    def __init__(self, lambdas: tuple[Exact, ...], remainder: Gamble) -> None:
        _set(self, "lambdas", lambdas)
        _set(self, "remainder", remainder)

    @classmethod
    def over(cls, E: ConeGenerators, lambdas: tuple[Exact, ...], f: Gamble) -> "Certificate":
        """The certificate of f with these coefficients over E: the
        remainder is what their combination of E leaves of f."""
        minus = (1, *map(operator.neg, lambdas))
        return cls(lambdas, combination(minus, (f, *E.generators), E.space))

    def reconstructs(self, generators: ConeGenerators, f: Gamble) -> bool:
        """Whether E lambda + remainder - f is zero, substituted in integers.
        Nothing on another space or of another length is."""
        space, rem = generators.space, self.remainder
        if len(self.lambdas) != len(generators) or rem.space != space or f.space != space:
            return False
        terms = (*generators.generators, rem, f)
        return not any(substitute((*self.lambdas, 1, -1), terms, space)[1])

    def serialized(self) -> dict:
        lambdas = [rational_str(v) for v in self.lambdas]
        return {"lambdas": lambdas, "remainder": self.remainder.serialized()}


class Refutation(Value):
    """A vector y >= 0 over the atoms proving that a gamble f, not weakly
    positive, lies outside desext(E), in one of two forms:

    * ``"empty"``: y . g >= 0 for every generator g and y . f < 0;
    * ``"sum"``: y . g >= 1 for every generator g and y . f <= 0.

    Any lambda >= 0 with E lambda <= f has y . (E lambda) <= y . f, which
    rules out every lambda in the first form and every lambda with a positive
    sum in the second; f itself is not weakly positive, so nothing is left
    (Farkas' lemma). A gamble g' added to E with y . g' >= 0 (>= 1) keeps the
    proof.
    """

    __slots__ = ("form", "y", "direction", "_checked")
    _fields = ("form", "y")

    def __init__(self, form: str, y: tuple[Fraction, ...]) -> None:
        _set(self, "form", form)
        _set(self, "y", y)
        _set(self, "direction", direction(y))  # y over its least common denominator
        _set(self, "_checked", False)

    def refutes(self, generators: ConeGenerators, f: Gamble) -> bool:
        """The substitution check of the proof for f against ``generators``,
        in integers: with Y and G the least common denominators of y and g,
        y . g >= c exactly when direction(y) . direction(g) >= c Y G."""
        if self.form not in ("empty", "sum") or len(self.y) != generators.space.size:
            return False
        if f.space != generators.space or in_cone_wd0(f):
            return False
        y = self.direction
        least = denominator(self.y) if self.form == "sum" else 0
        gens = generators.generators
        if any(v < 0 for v in y) or any(dot(y, g.direction) < least * g.denominator for g in gens):
            return False
        yf = dot(y, f.direction)
        return yf <= 0 if self.form == "sum" else yf < 0

    def checked(self, generators: ConeGenerators, f: Gamble) -> "Refutation":
        """The refutation, once it passes :meth:`refutes` (checked on the
        first call only). A dual vector of a cone LP always does, so a
        failure is a fault of the solver."""
        if not self._checked:
            if not self.refutes(generators, f):
                raise ArithmeticError(f"{self} refutes nothing")
            _set(self, "_checked", True)
        return self

    @classmethod
    def from_direction(
        cls, y: Sequence[int], generators: ConeGenerators, f: Gamble
    ) -> "Refutation":
        """The refutation that an integer vector y >= 0 proves when
        y . g >= 0 for every generator g and y . f < 0 (``"empty"``), or
        when y . g > 0 for every g and y . f = 0 (``"sum"``, scaled so that
        its least product with a generator is 1)."""
        if dot(y, f.direction) < 0:
            return cls("empty", tuple(y)).checked(generators, f)
        least = min(Fraction(dot(y, g.direction), g.denominator) for g in generators.generators)
        return cls("sum", tuple(v / least for v in y)).checked(generators, f)

    def serialized(self) -> dict:
        return {"form": self.form, "y": [rational_str(v) for v in self.y]}


Decision = Union[Certificate, Refutation, None]


def _valid(cert: Certificate, generators: ConeGenerators, f: Gamble, positive) -> bool:
    """The coefficients are nonnegative, they and the remainder reconstruct
    f, and the remainder is ``positive`` or, once some coefficient is
    positive, zero."""
    if any(l.numerator < 0 for l in cert.lambdas) or not cert.reconstructs(generators, f):
        return False
    rem = cert.remainder
    return positive(rem) or (any(cert.lambdas) and not any(rem.direction))


def certificate_valid(cert: Certificate, generators: ConeGenerators, f: Gamble) -> bool:
    """Validity for weak-mode certificates: a weakly positive remainder, or
    a positive-coefficient combination with a zero one (together: a
    nonnegative remainder)."""
    return _valid(cert, generators, f, in_cone_wd0)


def certificate_valid_strict(cert: Certificate, generators: ConeGenerators, f: Gamble) -> bool:
    """Validity in strict mode: a strictly positive remainder, or a
    positive-coefficient combination with a zero one."""
    return _valid(cert, generators, f, in_cone_gt0)


def answer_holds(
    E: ConeGenerators,
    f: Gamble,
    strict: bool,
    certificate: Optional[Certificate] = None,
    refutation: Optional[Refutation] = None,
) -> bool:
    """Whether recorded evidence proves one cone answer: f in desext(E) (the
    strict cone when ``strict``) by a certificate valid in the mode, with no
    refutation beside it, or else f outside it. Then f must not be positive
    in the mode, and a weak answer over generators needs a refutation of f;
    any other records none. The one rule of both certificate verifiers."""
    if certificate is not None:
        valid = certificate_valid_strict if strict else certificate_valid
        return refutation is None and valid(certificate, E, f)
    if (in_cone_gt0 if strict else in_cone_wd0)(f):
        return False
    if strict or not E.generators:
        return refutation is None
    return refutation is not None and refutation.refutes(E, f)


# ---------------------------------------------------------------------------
# Natural extension: gamble sets, assessments, the evidence of pickings
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Natural extension: the verifier
# ---------------------------------------------------------------------------


def verify_ext_answer(answer: ExtAnswer, candidate: GambleSet) -> bool:
    """Re-validate a membership answer of either polarity by substitution only.

    Each drop, node and test below is one cone answer in the answer's mode,
    checked by :func:`answer_holds`. A "no" must record no
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
    gambles (:func:`answer_holds`) with its refutation, or
    with none when the answer records none."""
    E = ConeGenerators.build(candidate.space, answer.failed_sequence)
    tests = (zero(candidate.space),) + candidate.members
    refutations = answer.refutations or (None,) * len(tests)
    return len(refutations) == len(tests) and all(
        answer_holds(E, f, answer.strict, refutation=ref)
        for f, ref in zip(tests, refutations)
    )
