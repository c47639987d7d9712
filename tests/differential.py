"""The differential checks that tier-1 and ``scripts/differential_sweep.py``
share: the forgeries of an answer that ``verify_ext_answer`` must reject,
the judges that hold the exact simplex and the cone tests to
Fourier-Motzkin elimination and the extension to exhaustive search, and
one driver per sampled property that draws its instances and applies them.

A driver is a function of a ``random.Random`` and a count. It returns the
faults it found, one line each (an empty list when everything holds), and
the counts that show what it drew and checked. Each fault opens with a
bracketed tag: the driver, the instance and, where a driver checks several
things, which one (the formulation, the program kind, ...), which
``tagged`` selects. Tier-1 runs each driver once, at the seed and count of
``TIER1`` (``tier1_run``), and the tests of the property each assert on
their part of that run: its faults by tag and the floors of its counts.
The sweep calls every driver but ``axiom_check`` in turn on one generator
and prints the counts.

- ``cone_check``: the cone tests against elimination;
- ``extension_check``: the four ways to decide membership in the natural
  extension against exhaustive search, weak and strict;
- ``program_check``: the exact simplex against elimination and its own
  witness checker, over the programs of ``random_program``;
- ``forgery_check``: forged answers, on shallow and deep picking trees;
- ``derivation_check``: derivation traces of addition and of dominators;
- ``representation_check``: the cone-family semantics against extension
  membership, and the downward closure of cone families;
- ``axiom_check``: the six coherence axioms, whose instances
  ``axiom_sets`` draws, on the natural extension;
- ``walk_check``: the walk's shortcuts (dropped members, refutations passed
  down the tree, nodes that are the first prefix to settle, certificates
  lifted onto every full picking) against reference walks without them,
  weak and strict.

The forgeries are the only forged answers the tests make. Those without
drops are also written to files by ``as_payload``, the desir/1 payload of
an answer with its cover as it is, so that ``selftest --verify`` meets the
same catalogue as the verifier in process; ``as_leaves`` is an answer in
the form ``in-ext`` writes, each covered picking a node of its own.

A plain module, not a test module: pytest does not collect it, and it
imports only the package and the standard library, so the sweep runs it
without pytest.
"""

import collections
import functools
import itertools
import math
import random
import time
from fractions import Fraction
from typing import Iterator, NamedTuple

from gamblesets import (
    Assessment,
    Certificate,
    ConeGenerators,
    DFamilySpec,
    Evidence,
    ExtAnswer,
    FinGenD,
    Gamble,
    GambleSet,
    Infeasible,
    LinearProgram,
    Optimal,
    PossibilitySpace,
    Unbounded,
    addpair_derive,
    brute_ext_contains,
    certificate_valid,
    certificate_valid_strict,
    d_coherent,
    desext_contains,
    desext_contains_strict,
    dom_from_add_check,
    ext_contains,
    ext_contains_indicator,
    ext_contains_split,
    extension,
    fm_desext_contains,
    fm_desext_contains_strict,
    fm_feasible,
    fm_posi_contains,
    fm_zero_in_desext,
    is_consistent,
    k_family_contains,
    lp_solve,
    posi_contains,
    verify_ext_answer,
    verify_outcome,
    verify_trace,
    zero,
    zero_in_desext,
    zero_in_desext_strict,
)
from gamblesets.cli import _evidence_entries, _ext_payload
from gamblesets.cones import Refutation, desext_refutation
from gamblesets.gambles import combination, in_cone_gt0, in_cone_wd0, random_gamble
from gamblesets.oracle import default_space, random_gamble_set
from gamblesets.proofs import _lift
from gamblesets.ratlp import EQ, LEQ, LT

# The four ways to decide membership in the natural extension: the engine's
# walk, weak and strict, and the split and indicator formulations.
FORMULATIONS = {
    "weak": ext_contains,
    "strict": lambda a, c: ext_contains(a, c, strict=True),
    "split": ext_contains_split,
    "indicator": ext_contains_indicator,
}

# The kinds of forgery, by the answers they apply to: every answer of every
# formulation; a "yes" of the engine's own walk, which alone reduces the
# sets first; and a weak "no", which alone records refutations. All but
# ``reduced`` and the reduction kinds can be written to a file.
ANSWER_KINDS = (
    "gap", "duplicate", "child", "longer", "outsider", "sibling", "last-sibling", "shifted",
    "last-shifted", "last-shifted-1/p", "borrowed", "failed", "failed-empty", "denied",
    "positive-member", "needless-refutations", "covered", "unpicked", "overlong", "reduced",
)
REDUCTION_KINDS = (
    "scaled", "scaled-odd", "unreconstructed", "negative", "long", "elsewhere", "self",
    "keeper-range", "dropped-range", "set-range", "unscaled", "zero-coefficient", "cycle",
)
REFUTATION_KINDS = (
    "refutation-dropped", "refutation-negated", "refutations-missing", "refutation-extra",
    "settled",
)
KINDS = ANSWER_KINDS + REDUCTION_KINDS + REFUTATION_KINDS

# A shift by 1/p with p a prime that divides no denominator of the
# certificate: a check that compares entries at the wrong scale can still
# catch a whole unit.
_PRIMES = (17, 19, 23, 29, 31, 37, 41, 43)


def distinct(seq) -> int:
    """The number of distinct gambles of a picking or prefix."""
    return len(dict.fromkeys(seq))


def shifted(ev, atom: int, by=1):
    """The evidence with its remainder ``by`` more on the given atom."""
    rem = ev.certificate.remainder
    remainder = Gamble(rem.space, tuple(v + by * (i == atom) for i, v in enumerate(rem.values)))
    return Evidence(ev.gamble, Certificate(ev.certificate.lambdas, remainder))


def _weighed(prefix, ev, space) -> tuple:
    """The certificate's coefficients times the prefix's distinct gambles,
    paired as far as both go, summed per atom."""
    pairs = [(g.values, l) for g, l in zip(dict.fromkeys(prefix), ev.certificate.lambdas) if l]
    return tuple(sum(l * values[k] for values, l in pairs) for k in range(space.size))


def as_leaves(answer: ExtAnswer) -> ExtAnswer:
    """The answer as ``in-ext`` writes it: each covered picking a node of its
    own, with its lifted evidence, and no drops."""
    return ExtAnswer(
        answer.member, answer.witness_list, tuple(answer.per_sequence.items()),
        answer.failed_sequence, answer.strict, answer.refutations,
    )


def as_payload(answer: ExtAnswer, candidate) -> dict:
    """The desir/1 ``in-ext`` payload of an answer without drops, which a
    file cannot hold: the CLI's own payload of the answer, with the cover as
    it is in ``"sequences"``, written by the CLI's own writer."""
    assert not answer.reduction, "a desir/1 file holds no drops"
    bare = ExtAnswer(
        answer.member, answer.witness_list, (), answer.failed_sequence, answer.strict,
        answer.refutations,
    )
    payload = _ext_payload("in-ext", candidate.space, candidate, bare)
    payload["sequences"] = _evidence_entries(answer.cover)
    return payload


def forgeries(answer: ExtAnswer, candidate, atom: int) -> list[tuple[str, ExtAnswer]]:
    """(kind, forged answer) pairs, each of which ``verify_ext_answer`` must
    reject against the candidate set; the kinds are ``KINDS``. A kind is
    made only where the answer's shape allows it, and a shifted remainder
    moves on ``atom``.

    - A cover: its middle node dropped (gap), repeated (duplicate), followed
      by a child of it (child), or made longer than a picking (longer); the
      first node's first gamble replaced by one of no set (outsider); the
      first node with a sibling moved to a sibling (sibling), and the last
      node to its previous sibling (last-sibling); the first node over more
      than one picking (shifted), and the last node (last-shifted,
      last-shifted-1/p), with its remainder shifted by 1, or by 1/p; a node
      given the evidence of an earlier node that does not substitute over
      its prefix (borrowed): the first such evidence of another length
      whose coefficients, paired with the node's distinct gambles, sum to
      the same gamble (the same support: only the count tells them apart),
      and the first of the node's own length.
    - A "yes" naming its first picking (failed) or the empty one
      (failed-empty) as failed, or turned into a "no" at a picking with a
      gamble of no set (denied); where a member of the candidate set is
      weakly positive (strictly, in strict mode) and so lies in every cone,
      turned into a "no" at its first picking (positive-member).
    - Refutations recorded by an answer that needs none: a "yes", a strict
      "no", or a "no" at the empty picking (needless-refutations). Where
      its picking has them, they are the weak refutations of that picking,
      which refute; elsewhere one "sum" refutation per test.
    - A "no" with a one-node cover, its failed picking claimed skipped
      (covered); with a failed picking that picks a gamble of no set
      (unpicked), or one gamble too many (overlong); or with a reduction
      (reduced).
    - Per drop of a reduction: the keeper moved outside the dropped member's
      cone by scaling its coefficient up, the remainder re-formed to match,
      by the first of 2λ, 4λ+1, 16λ+4 that does it (scaled), or by 2λ+1
      (scaled-odd); a coefficient changed with the remainder kept
      (unreconstructed); the coefficient negated, the remainder re-formed
      (negative); one coefficient too many (long); the remainder on another
      space (elsewhere); the keeper the dropped member itself (self); a
      position out of range (keeper-range, dropped-range, set-range); a zero
      coefficient for a keeper that is not positive in the answer's mode
      (unscaled), or not weakly positive (zero-coefficient); and, where the
      dropped member lies in its keeper's cone too and the set's other
      members are dropped, both dropped as each other's keepers, with an
      empty cover (cycle).
    - Refutations of a weak "no": the last dropped, or its vector negated;
      none at all; one too many; or kept while the "no" moves to the first
      picking that skips or hits, where nothing can refute (settled).
    """
    space = candidate.space
    sets, cover, failed = answer.witness_list, list(answer.cover), answer.failed_sequence
    strict, refs, reduction = answer.strict, answer.refutations, answer.reduction
    outsider = Gamble(space, (Fraction(99),) * space.size)
    forged = []

    def forge(kind, nodes=cover, failed=failed, refutations=refs, drops=reduction,
              member=answer.member):
        forged.append((kind, ExtAnswer(
            member, sets, tuple(nodes), failed, strict, refutations, tuple(drops)
        )))

    if cover:
        middle = len(cover) // 2
        prefix, ev = cover[middle]
        forge("gap", cover[:middle] + cover[middle + 1 :])
        forge("duplicate", cover[: middle + 1] + cover[middle:])
        if len(prefix) < len(sets):
            child = prefix + (sets[len(prefix)].members[0],)
            lifted = _lift(ev, distinct(child) - distinct(prefix))
            forge("child", cover[: middle + 1] + [(child, lifted)] + cover[middle + 1 :])
        if sets:
            full = prefix + tuple(s.members[0] for s in sets[len(prefix) :])
            longer = full + (sets[-1].members[0],)
            forge("longer", cover[:middle] + [(longer, ev)] + cover[middle + 1 :])
        last, ev = cover[-1]
        if last:
            members = sets[len(last) - 1].members
            k = members.index(last[-1])
            if k:
                forge("last-sibling", cover[:-1] + [(last[:-1] + (members[k - 1],), ev)])
        cert = ev.certificate
        den = math.lcm(*(v.denominator for v in cert.lambdas + cert.remainder.values))
        p = next(q for q in _PRIMES if den % q)
        forge("last-shifted", cover[:-1] + [(last, shifted(ev, atom))])
        forge("last-shifted-1/p", cover[:-1] + [(last, shifted(ev, atom, Fraction(1, p)))])
    for i, (prefix, ev) in enumerate(cover):
        if prefix:
            forge("outsider", cover[:i] + [((outsider,) + prefix[1:], ev)] + cover[i + 1 :])
            break
    for i, (prefix, ev) in enumerate(cover):
        options = sets[len(prefix) - 1].members if prefix else ()
        if len(options) > 1:
            k = options.index(prefix[-1])
            sibling = prefix[:-1] + (options[k - 1 if k else 1],)
            forge("sibling", cover[:i] + [(sibling, ev)] + cover[i + 1 :])
            break
    for i, (prefix, ev) in enumerate(cover):
        # A "yes" covers every full picking, so the node stands for the
        # product of the sets below it.
        if math.prod(len(s.members) for s in sets[len(prefix) :]) > 1:
            forge("shifted", cover[:i] + [(prefix, shifted(ev, atom))] + cover[i + 1 :])
            break
    # borrowed[True]: evidence of another length, borrowed[False]: of the
    # node's own; lenders: each evidence by the first node that holds it.
    borrowed, lenders = {}, {}
    for i, (prefix, own) in enumerate(cover):
        if len(borrowed) == 2:
            break
        for ev, lender in lenders.items():
            other = distinct(prefix) != len(ev.certificate.lambdas)
            alike = _weighed(prefix, ev, space) == _weighed(lender, ev, space)
            # Of another length yet summing alike, or of the same length and not.
            if other == alike:
                borrowed.setdefault(other, cover[:i] + [(prefix, ev)] + cover[i + 1 :])
        lenders.setdefault(own, prefix)
    for nodes in borrowed.values():
        forge("borrowed", nodes)

    if answer.member:
        first = tuple(s.members[0] for s in sets if s.members)
        forge("failed", failed=first)
        forge("failed-empty", failed=())
        if sets:
            forge("denied", (), (outsider,) + first[1:], drops=(), member=False)
        if any(map(in_cone_gt0 if strict else in_cone_wd0, candidate.members)):
            forge("positive-member", (), first, drops=(), member=False)
    if answer.member or strict or not failed:
        E = ConeGenerators.build(space, failed or ())
        needless = tuple(desext_refutation(E, t) for t in (zero(space),) + candidate.members)
        if None in needless:
            needless = (Refutation("sum", (Fraction(1),) * space.size),) * len(needless)
        forge("needless-refutations", refutations=needless)
    if not answer.member:
        claimed = Certificate((Fraction(0),) * distinct(failed), zero(space))
        forge("covered", [(failed, Evidence(None, claimed))])
        if failed:
            forge("unpicked", failed=(outsider,) + failed[1:])
            forge("overlong", failed=failed + failed[-1:])
            forge("reduced", drops=((0, 0, 0, Certificate((Fraction(0),), failed[0])),))
    if refs:
        negated = Refutation(refs[-1].form, tuple(-v for v in refs[-1].y))
        forge("refutation-dropped", refutations=refs[:-1])
        forge("refutation-negated", refutations=refs[:-1] + (negated,))
        forge("refutations-missing", refutations=())
        forge("refutation-extra", refutations=refs + refs[:1])
        for seq in itertools.product(*(s.members for s in sets)):
            E = ConeGenerators.build(space, seq)
            if zero_in_desext(E) is not None or any(
                desext_contains(E, f) is not None for f in candidate.members
            ):
                forge("settled", failed=seq)
                break

    for k, (d, b, a, cert) in enumerate(reduction):
        members = sets[d].members
        others = reduction[:k] + reduction[k + 1 :]
        lam = cert.lambdas[0]
        E = ConeGenerators.build(space, (members[b],))
        for scaled in (2 * lam, 4 * lam + 1, 16 * lam + 4):
            outside = Certificate.over(E, (scaled,), members[a])
            if any(v < 0 for v in outside.remainder.values):
                forge("scaled", drops=others + ((d, b, a, outside),))
                break
        odd = Certificate.over(E, (2 * lam + 1,), members[a])
        if any(v < 0 for v in odd.remainder.values):
            forge("scaled-odd", drops=others + ((d, b, a, odd),))
        if any(members[b].values):
            moved = Certificate((2 * lam + 1,), cert.remainder)
            forge("unreconstructed", drops=others + ((d, b, a, moved),))
        negative = Certificate.over(E, (-lam - 1,), members[a])
        forge("negative", drops=others + ((d, b, a, negative),))
        forge("long", drops=others + ((d, b, a, Certificate((lam, Fraction(0)), cert.remainder)),))
        elsewhere = Certificate(cert.lambdas, zero(default_space(space.size + 1)))
        forge("elsewhere", drops=others + ((d, b, a, elsewhere),))
        forge("self", drops=others + ((d, b, b, cert),))
        forge("keeper-range", drops=others + ((d, b, len(members), cert),))
        forge("dropped-range", drops=others + ((d, len(members), a, cert),))
        forge("set-range", drops=others + ((len(sets), b, a, cert),))
        claimed = Certificate((Fraction(0),), members[a])
        if not (in_cone_gt0 if strict else in_cone_wd0)(members[a]):
            forge("unscaled", drops=others + ((d, b, a, claimed),))
        if not in_cone_wd0(members[a]):
            forge("zero-coefficient", drops=others + ((d, b, a, claimed),))
        contains = desext_contains_strict if strict else desext_contains
        back = contains(ConeGenerators.build(space, (members[a],)), members[b])
        if back is not None:
            cycle = [drop for drop in reduction if drop[0] == d] + [(d, a, b, back)]
            if len({drop[1] for drop in cycle}) == len(members):
                forge("cycle", (), drops=cycle)
    return forged


def lp_disagreement(lp, outcome, drawn) -> str | None:
    """Why ``outcome``, the simplex outcome for ``lp``, is wrong, or None if
    it holds up. Its witness must pass substitution, and its multipliers,
    tampered three ways (none, one short, the first negative), must not.
    Given the rows as drawn (None for a program too wide for elimination),
    elimination on them plus x >= 0 decides feasibility and, for an optimum,
    that no point does strictly better."""
    if not verify_outcome(lp, outcome):
        return f"witness fails substitution: {outcome}"
    if lp.constraints and not isinstance(outcome, Unbounded):
        y = outcome.multipliers
        for tampered in (None, y[:-1], (Fraction(-1),) + y[1:]):
            if isinstance(outcome, Optimal):
                forged = Optimal(outcome.value, outcome.assignment, tampered)
            else:
                forged = Infeasible(tampered)
            if verify_outcome(lp, forged):
                return f"tampered multipliers {tampered} pass substitution"
    if drawn is None:
        return None
    rows = list(drawn)
    for j in range(lp.num_vars):
        rows.append(([-int(i == j) for i in range(lp.num_vars)], LEQ, 0))
    if fm_feasible(rows) == isinstance(outcome, Infeasible):
        return f"feasibility disagrees with elimination: {outcome}"
    if isinstance(outcome, Optimal):
        better = rows + [([-c for c in lp.objective], LT, -outcome.value)]
        if fm_feasible(better):
            return f"elimination finds a point better than {outcome.value}"
    return None


def cone_disagreements(E: ConeGenerators, f) -> list[str]:
    """Why the cone tests of f over E are wrong, one line per fault, or an
    empty list: the posi, desext and strict tests of f and the zero test,
    each against Fourier-Motzkin. Each certificate must pass its mode's
    validity check (a posi one with a zero remainder), and each weak "no"
    over generators must carry a refutation that refutes.

    A strict member is a weak member, so elimination asks the strict system,
    slowest when it has no point, only of a weak member."""
    gens, z = E.generators, zero(E.space)
    weak = fm_desext_contains(gens, f)
    tests = (
        ("posi", posi_contains(E, f), fm_posi_contains(gens, f), f, certificate_valid),
        ("desext", desext_contains(E, f), weak, f, certificate_valid),
        ("zero", zero_in_desext(E), fm_zero_in_desext(gens), z, certificate_valid),
        ("strict", desext_contains_strict(E, f), weak and fm_desext_contains_strict(gens, f), f,
         certificate_valid_strict),
    )
    why = []
    for name, cert, oracle, target, valid in tests:
        if (cert is not None) != oracle:
            why.append(f"{name} disagrees: engine={cert is not None} oracle={oracle}")
        elif cert is not None:
            if not valid(cert, E, target) or (name == "posi" and any(cert.remainder.direction)):
                why.append(f"{name} certificate fails substitution: {cert}")
        elif gens and name in ("desext", "zero"):
            ref = desext_refutation(E, target)
            if ref is None or not ref.refutes(E, target):
                why.append(f'{name} "no" without a refutation that holds: {ref}')
    return why


def fm_posi_check(E: ConeGenerators, f) -> bool:
    """Positive-hull membership decided by Fourier-Motzkin alone, for
    ``verify_trace``'s ``posi_check``."""
    return fm_posi_contains(E.generators, f)


def seeded_assessment(
    rng: random.Random, space: PossibilitySpace, max_sets: int, max_size: int, bound: int
) -> Assessment:
    """1 to ``max_sets`` sets of 1 to ``max_size`` gambles, with integer
    entries from [-bound, bound]."""
    sets = [
        random_gamble_set(rng, space, rng.randint(1, max_size), bound)
        for _ in range(rng.randint(1, max_sets))
    ]
    return Assessment.build(space, sets)


def axiom_sets(
    assessment: Assessment, axiom: str, seed: int, trials: int = 20
) -> Iterator[GambleSet]:
    """The sets that one coherence axiom puts in the extension of a
    consistent assessment, over ``trials`` instances of the axiom drawn from
    ``random.Random(f"{axiom}:{seed}")``; for ``no-empty-set``, the empty set
    it keeps out. The axioms are ``no-empty-set``, ``drop-zero`` (a member
    with zero added, and that set without zero), ``weak-positive``,
    ``superset``, ``dominators`` and ``addition``. Their premises come from
    a pool of up to 8 members: the assessment's sets, two weakly positive
    singletons, and those of 40 sampled sets that the extension holds."""
    rng = random.Random(f"{axiom}:{seed}")
    space = assessment.space
    atoms = len(space.labels)

    def draw(n: int) -> tuple[int, ...]:
        return tuple(rng.randint(0, 2) for _ in range(n))

    def nonzero(n: int) -> tuple[int, ...]:
        while True:
            values = draw(n)
            if any(values):
                return values

    pool = list(assessment.sets)
    pool += [GambleSet.build(space, (Gamble(space, nonzero(atoms)),)) for _ in range(2)]
    for _ in range(40):
        if len(pool) >= 8:
            break
        sampled = GambleSet.build(
            space, [random_gamble(rng, space, 2) for _ in range(rng.randint(1, 2))]
        )
        if ext_contains(assessment, sampled).member:
            pool.append(sampled)
    z = zero(space)
    for _ in range(trials):
        if axiom == "no-empty-set":
            yield GambleSet.build(space, ())
        elif axiom == "drop-zero":
            members = rng.choice(pool).members
            yield GambleSet.build(space, members + (z,))
            yield GambleSet.build(space, (g for g in members if g != z))
        elif axiom == "weak-positive":
            yield GambleSet.build(space, (Gamble(space, nonzero(atoms)),))
        elif axiom == "superset":
            members = rng.choice(pool).members
            extra = [random_gamble(rng, space, 2) for _ in range(rng.randint(1, 2))]
            yield GambleSet.build(space, members + tuple(extra))
        elif axiom == "dominators":
            members = rng.choice(pool).members
            yield GambleSet.build(space, [g + Gamble(space, draw(atoms)) for g in members])
        else:  # addition
            chosen = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
            yield GambleSet.build(space, [
                combination(nonzero(len(seq)), seq, space)
                for seq in itertools.product(*(s.members for s in chosen))
            ])


def coherent_cone(rng: random.Random, space: PossibilitySpace, max_gens: int = 3) -> FinGenD:
    """A coherent cone of up to ``max_gens`` generators with entries from
    [-2, 2], drawn again until it is coherent."""
    while True:
        E = ConeGenerators.build(
            space, [random_gamble(rng, space, 2) for _ in range(rng.randint(0, max_gens))]
        )
        if d_coherent(E):
            return FinGenD(E)


def family_contains(fam: DFamilySpec, D: FinGenD) -> bool:
    """Whether the cone D belongs to the family that ``fam`` describes: some
    picking across its sets has a coherent hull inside D. The hull is the
    smallest coherent cone around the picked gambles, so D holds it when it
    holds them."""
    return any(
        zero_in_desext(ConeGenerators.build(fam.space, seq)) is None
        and all(desext_contains(D.generators, g) is not None for g in seq)
        for seq in itertools.product(*(s.members for s in fam.sets))
    )


def cone_check(rng: random.Random, count: int) -> tuple[list[str], dict]:
    """``count`` cone queries over 1-4 atoms and 0-4 generators with entries
    from [-3, 3], every fifth for the zero gamble, each judged by
    ``cone_disagreements``; the desext test of the zero gamble must agree
    with the zero test, and a strict member must be a weak member. The
    faults of a zero query are tagged ``zero``, those of strict-implies-weak
    ``strict``.

    Counts the weak "no" answers over generators, whose refutations the
    judge checks (``refuted``); the zero queries over generators
    (``zero``); and the strict members (``strict``)."""
    faults = []
    counts = {"refuted": 0, "zero": 0, "strict": 0}
    for i in range(count):
        space = default_space(rng.randint(1, 4))
        gens = tuple(random_gamble(rng, space, 3) for _ in range(rng.randint(0, 4)))
        f = random_gamble(rng, space, 3)
        tag = f"cone {i}"
        if i % 5 == 0:
            # f = 0 is the homogeneous case the desext LP must hand over to
            # the zero test; f is still drawn so the draws after it stay.
            f, tag = zero(space), f"cone {i} zero"
            counts["zero"] += bool(gens)
        E = ConeGenerators.build(space, gens)
        faults += [f"[{tag}] {why}" for why in cone_disagreements(E, f)]
        weak = desext_contains(E, f) is not None
        if i % 5 == 0 and weak != (zero_in_desext(E) is not None):
            faults.append(f"[{tag}] the desext test of 0 disagrees with the zero test")
        if desext_contains_strict(E, f) is not None:
            counts["strict"] += 1
            if not weak:
                faults.append(f"[{tag} strict] a strict member is not a weak member")
        if gens:
            counts["refuted"] += (not weak) + (zero_in_desext(E) is None)
    return faults, counts


class Shape(NamedTuple):
    """How an extension query is drawn: the atoms and the sets, each as
    (fewest, most), the most gambles per set, the entry bound, and the most
    members of the candidate set."""

    atoms: tuple[int, int]
    sets: tuple[int, int]
    size: int
    bound: int
    candidate: int


def draw_query(rng: random.Random, shape: Shape, no_sets: float = 0.0):
    """An assessment and a candidate set drawn in ``shape``; the assessment
    has no sets with probability ``no_sets``."""
    space = default_space(rng.randint(*shape.atoms))
    sets = [] if rng.random() < no_sets else [
        random_gamble_set(rng, space, rng.randint(1, shape.size), shape.bound)
        for _ in range(rng.randint(*shape.sets))
    ]
    candidate = random_gamble_set(rng, space, rng.randint(0, shape.candidate), shape.bound)
    return Assessment.build(space, sets), candidate


# 1-3 sets over 1-3 atoms: of up to two gambles from [-2, 2] or [-3, 3],
# or of up to three from [-2, 2] with a candidate of up to three.
SHALLOW_SHAPES = (
    Shape((1, 3), (1, 3), 2, 2, 2), Shape((1, 3), (1, 3), 3, 2, 3), Shape((1, 3), (1, 3), 2, 3, 2)
)
# Four or five sets make the picking tree deep enough for prefixes to settle
# whole subtrees below the first level. Exhaustive search over such a tree
# costs ten to a hundred times what it costs over a shallow one.
DEEP_SHAPE = Shape((1, 3), (4, 5), 3, 3, 2)
DEEP_EVERY = 25


def extension_check(rng: random.Random, count: int) -> tuple[list[str], dict]:
    """``count`` extension queries, each answered by every formulation, whose
    answer must agree with exhaustive search in its mode, weak or strict,
    and pass ``verify_ext_answer``. Every ``DEEP_EVERY``-th query is drawn
    in ``DEEP_SHAPE``; the others take ``SHALLOW_SHAPES`` in turn, with no
    sets in 1 query of 20. A fault is tagged with its formulation's name.

    Counts the queries in ``DEEP_SHAPE`` (``deep``) and those without sets
    (``no_sets``)."""
    faults = []
    counts = {"deep": 0, "no_sets": 0}
    for i in range(count):
        if i % DEEP_EVERY == DEEP_EVERY - 1:
            assessment, candidate = draw_query(rng, DEEP_SHAPE)
            counts["deep"] += 1
        else:
            shape = SHALLOW_SHAPES[i % len(SHALLOW_SHAPES)]
            assessment, candidate = draw_query(rng, shape, no_sets=0.05)
        counts["no_sets"] += not assessment.sets
        exhaustive = {strict: brute_ext_contains(assessment, candidate, strict=strict)
                      for strict in (False, True)}
        for name, decide in FORMULATIONS.items():
            answer = decide(assessment, candidate)
            if answer.member != exhaustive[answer.strict]:
                faults.append(f"[ext {i} {name}] answer {answer.member}, exhaustive search "
                              f"{exhaustive[answer.strict]}")
            elif not verify_ext_answer(answer, candidate):
                faults.append(f"[ext {i} {name}] answer (member={answer.member}) fails "
                              f"verify_ext_answer")
    return faults, counts


# Each mode's picking tests and the validity check of its certificates.
MODES = {
    "weak": (zero_in_desext, desext_contains, certificate_valid),
    "strict": (zero_in_desext_strict, desext_contains_strict, certificate_valid_strict),
}


def counting(calls: list[int], test):
    """``test``, adding each call to ``calls[0]``."""
    def counted(*args):
        calls[0] += 1
        return test(*args)
    return counted


def counted_walk(assessment: Assessment, candidate, strict: bool = False) -> tuple[ExtAnswer, int]:
    """``ext_contains``'s answer and the picking tests it made, counted
    through the bindings of ``gamblesets.extension`` that the walk calls."""
    calls = [0]
    names = [test.__name__ for test in MODES["strict" if strict else "weak"][:2]]
    bound = {name: getattr(extension, name) for name in names}
    try:
        for name, test in bound.items():
            setattr(extension, name, counting(calls, test))
        return ext_contains(assessment, candidate, strict=strict), calls[0]
    finally:
        for name, test in bound.items():
            setattr(extension, name, test)


def fm_fails(seq, candidate) -> bool:
    """Whether a picking neither skips nor hits, by elimination alone."""
    return not fm_zero_in_desext(seq) and not any(
        fm_desext_contains(seq, f) for f in candidate.members
    )


# Over 2-3 atoms: four or five sets of up to three gambles from [-2, 2],
# whose members the reduction often drops, and four sets of up to two, which
# fail more often; over 2-4 atoms, 3-5 sets of up to three from [-3, 3]
# with a candidate of up to four.
WALK_SHAPES = (
    Shape((2, 3), (4, 5), 3, 2, 3), Shape((2, 3), (4, 4), 2, 2, 2), Shape((2, 4), (3, 5), 3, 3, 4)
)


def walk_check(rng: random.Random, count: int) -> tuple[list[str], dict]:
    """``count`` extension queries, the ``WALK_SHAPES`` in turn, each decided
    by ``ext_contains`` in both modes and held to the reference walks of its
    mode: ``extension.settle_pickings`` over the kept sets without a refuter,
    whose member, cover and failed picking it must repeat, with the full
    sets as its witness list, in its mode (``reference``), and over the full
    sets, whose decision it must repeat (``decision``).
    The answer must pass ``verify_ext_answer`` (``verify``), and the prefix
    above each nonempty cover node must neither skip nor hit (``first``). A
    "yes" lists every full picking in canonical order, each with a
    certificate valid in its mode (``lifted``). A "no" records no cover,
    reduction or evidence; a weak one names the first picking of the kept
    sets that fails by elimination, with refutations that refute each test,
    and a strict one records none (``failed``). Over the run, ``ext_contains``
    must make fewer picking tests than the reference walk in each mode
    (``tests``). A fault is tagged with its mode and its check.

    Counts, by mode, the queries whose sets the reduction drops members of
    (``reduced``); the members (``members``), those with a reduction
    (``lifted``) and its drops (``drops``); the full pickings whose
    certificate moved a keeper's coefficient onto a dropped member
    (``moved``); the members with fewer picking tests than full pickings
    (``fewer``); the non-members (``negatives``) and those whose failed
    picking the reduction moved from the full sets' (``failed_moved``); and
    the picking tests of ``ext_contains`` (``flow``) and of the reference
    walk (``plain``)."""
    faults = []
    counts = {mode: collections.Counter() for mode in MODES}
    for i in range(count):
        assessment, candidate = draw_query(rng, WALK_SHAPES[i % len(WALK_SHAPES)])
        space, sets = assessment.space, assessment.sets
        tests = (zero(space),) + candidate.members
        for mode, (skip, hit, valid) in MODES.items():
            strict, tally = mode == "strict", counts[mode]
            answer, flow = counted_walk(assessment, candidate, strict)
            kept, drops = extension._reduction(sets, strict)
            plain = [0]
            reference = extension.settle_pickings(
                space, kept, candidate, counting(plain, skip), counting(plain, hit)
            )
            full = extension.settle_pickings(space, sets, candidate, skip, hit)
            evidence, failed = answer.per_sequence, answer.failed_sequence

            def settles(prefix):
                E = ConeGenerators.build(space, prefix)
                return skip(E) is not None or any(hit(E, f) is not None for f in tests[1:])

            # The reference walk's answer over the full sets, in the mode; the
            # refutations and drops are checked below.
            expected = ExtAnswer(reference.member, sets, reference.cover, reference.failed_sequence,
                                 strict, answer.refutations, answer.reduction)
            wrong = {
                "reference": answer != expected,
                "decision": answer.member != full.member,
                "verify": not verify_ext_answer(answer, candidate),
                "first": any(prefix and settles(prefix[:-1]) for prefix, _ in answer.cover),
            }
            tally.update(reduced=bool(drops), flow=flow, plain=plain[0])
            if answer.member:
                tally.update(members=1, lifted=bool(answer.reduction),
                             drops=len(answer.reduction), fewer=flow < len(evidence))
                pickings = list(itertools.product(*(s.members for s in sets)))
                wrong["lifted"] = list(evidence) != pickings
                dropped = {(d, sets[d].members[b]) for d, b, _, _ in answer.reduction}
                for seq, ev in evidence.items():
                    E = ConeGenerators.build(space, seq)
                    f = tests[0] if ev.gamble is None else ev.gamble
                    wrong["lifted"] |= not valid(ev.certificate, E, f)
                    weights = dict(zip(E.generators, ev.certificate.lambdas))
                    tally["moved"] += any(weights[g] for _, g in dropped & set(enumerate(seq)))
            else:
                tally.update(negatives=1, failed_moved=failed != full.failed_sequence)
                E = ConeGenerators.build(space, failed)
                refs = answer.refutations
                first = next((seq for seq in itertools.product(*(s.members for s in kept))
                              if fm_fails(seq, candidate)), None)
                wrong["failed"] = bool(answer.cover or answer.reduction or evidence) or (
                    refs != () if strict else failed != first or len(refs) != len(tests)
                    or not all(r.refutes(E, f) for r, f in zip(refs, tests))
                )
            faults += [f"[walk {i} {mode} {check}] answer (member={answer.member}) fails the "
                       f"{check} check of walk_check" for check, bad in wrong.items() if bad]
    for mode, tally in counts.items():
        if tally["flow"] >= tally["plain"]:
            faults.append(f"[walk {mode} tests] {tally['flow']} picking tests with the refutation "
                          f"flow, {tally['plain']} without")
    return faults, counts


# The kinds of program that ``random_program`` draws; ``program_check``
# takes them in turn.
PROGRAM_KINDS = ("integer", "rational", "degenerate", "equalities", "wide")


def random_program(rng: random.Random, kind: str) -> tuple[list, list]:
    """The objective and the rows, as drawn, of a program of one kind.

    All but ``wide`` have 0-4 variables and 0-6 rows, a quarter of them
    ``==`` rows, with integer entries from [-3, 3], except that:
    - ``rational`` entries are n/d with n in [-6, 6] and d in [1, 5];
    - ``degenerate`` rows mostly have a zero right-hand side, and some are
      rescaled copies of earlier rows;
    - ``equalities`` rows are mostly ``==`` rows.

    ``wide`` programs have 8-12 variables and as many rows, entries in
    [-3, 3], some right-hand sides 0, and in a third of the programs half
    the rows ``==``. Negated copies of earlier rows pin a row to equality,
    which can leave the auxiliary variable basic at 0 for the drive-out
    (often on a negative entry) and makes dependent rows."""
    if kind == "wide":
        n = rng.randint(8, 12)
        p_eq = rng.choice((0, 0, 0.5))
        rows = []
        for _ in range(n):
            if rows and rng.random() < 0.2:
                coeffs, rel, bound = rng.choice(rows)
                rows.append(([-v for v in coeffs], rel, -bound))
                continue
            rel = EQ if rng.random() < p_eq else LEQ
            bound = 0 if rng.random() < 0.3 else rng.randint(-3, 3)
            rows.append(([rng.randint(-3, 3) for _ in range(n)], rel, bound))
        return [rng.randint(-3, 3) for _ in range(n)], rows

    def entry() -> Fraction:
        if kind == "rational":
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return Fraction(rng.randint(-3, 3))

    n = rng.randint(0, 4)
    rows = []
    for _ in range(rng.randint(0, 6)):
        if kind == "degenerate" and rows and rng.random() < 0.4:
            coeffs, rel, rhs = rng.choice(rows)
            k = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            rows.append(([k * v for v in coeffs], rel, k * rhs))
            continue
        coeffs = [entry() for _ in range(n)]
        rel = EQ if rng.random() < (0.7 if kind == "equalities" else 0.25) else LEQ
        rhs = Fraction(0) if kind == "degenerate" and rng.random() < 0.6 else entry()
        rows.append((coeffs, rel, rhs))
    return [entry() for _ in range(n)], rows


def program_check(rng: random.Random, count: int) -> tuple[list[str], dict]:
    """``count`` programs, the kinds of ``PROGRAM_KINDS`` in turn, each
    solved and judged by ``lp_disagreement``. Every outcome carries a full
    certificate that substitution checks, also where ``==`` rows are drawn,
    which the program stores as ``<=`` rows; elimination sees the rows as
    drawn, so it checks that form too. A wide program is too wide for
    elimination and is checked by substitution alone.

    Counts the wide programs (``wide``) and their outcomes, by type and by
    whether every row is ``<=`` (``wide_outcomes``); the programs stored
    over a scale above 1 (``scaled``), whose rational rows
    ``LinearProgram`` turned into integer rows over their least common
    denominator; and the infeasible programs, with their Farkas rays
    checked, that have ``==`` rows (``rays``) or two or more negative
    right-hand sides (``shared``), whose rays phase 1 reads off one
    auxiliary column shared by those rows."""
    faults = []
    counts = {"wide": 0, "scaled": 0, "rays": 0, "shared": 0}
    wide_outcomes = set()
    for i in range(count):
        kind = PROGRAM_KINDS[i % len(PROGRAM_KINDS)]
        objective, rows = random_program(rng, kind)
        lp = LinearProgram.build(objective, rows)
        out = lp_solve(lp)
        infeasible = isinstance(out, Infeasible)
        if kind == "wide":
            counts["wide"] += 1
            wide_outcomes.add((type(out).__name__, all(rel == LEQ for _, rel, _ in rows)))
        counts["scaled"] += lp.scale > 1
        counts["rays"] += infeasible and any(rel == EQ for _, rel, _ in rows)
        counts["shared"] += infeasible and sum(b < 0 for _, _, b in lp.constraints) >= 2
        why = lp_disagreement(lp, out, None if kind == "wide" else rows)
        if why is not None:
            faults.append(f"[lp {i} {kind}] {why}")
    return faults, {**counts, "wide_outcomes": len(wide_outcomes)}


FORGERY_SHAPES = (Shape((2, 3), (1, 4), 3, 2, 2), DEEP_SHAPE)


def forgery_check(rng: random.Random, count: int) -> tuple[list[str], dict]:
    """``count`` extension queries, each answered by every formulation. Each
    answer, as it is and in the form ``in-ext`` writes (``as_leaves``), must
    pass ``verify_ext_answer``, and is then forged every way ``forgeries``
    can; the verifier must reject every forgery. The ``FORGERY_SHAPES`` take
    turns: 1-4 sets of up to three gambles from [-2, 2] over 2-3 atoms, and
    ``DEEP_SHAPE``.

    A fault is tagged with its formulation's name. Counts, by formulation,
    the forgeries by kind (``forged``), the drops of the honest answers'
    reductions (``drops``), and the ``borrowed`` forgeries whose evidence
    comes from a node of another length (``other_length``): a check that
    does not count the gambles would accept them."""
    faults = []
    forged = {name: dict.fromkeys(KINDS, 0) for name in FORMULATIONS}
    drops = dict.fromkeys(FORMULATIONS, 0)
    other_length = dict.fromkeys(FORMULATIONS, 0)
    for i in range(count):
        assessment, candidate = draw_query(rng, FORGERY_SHAPES[i % 2])
        for name, decide in FORMULATIONS.items():
            answer = decide(assessment, candidate)
            drops[name] += len(answer.reduction)
            for form in (answer, as_leaves(answer)):
                if not verify_ext_answer(form, candidate):
                    faults.append(f"[forged {i} {name}] answer (member={answer.member}) fails "
                                  f"verify_ext_answer")
                atom = rng.randrange(assessment.space.size)
                for kind, forgery in forgeries(form, candidate, atom):
                    forged[name][kind] += 1
                    other_length[name] += kind == "borrowed" and any(
                        distinct(prefix) != len(ev.certificate.lambdas)
                        for prefix, ev in forgery.cover
                    )
                    if verify_ext_answer(forgery, candidate):
                        faults.append(f"[forged {i} {name}] answer forged ({kind}) passes "
                                      f"verify_ext_answer")
    return faults, {"forged": forged, "drops": drops, "other_length": other_length}


def _positive_weights(rng: random.Random, n: int, raised: bool) -> list[Fraction]:
    """n coefficients from {0, 1, 2}, not all zero: one of them raised by 1,
    or all drawn again until one is not zero."""
    while True:
        weights = [Fraction(rng.randint(0, 2)) for _ in range(n)]
        if raised:
            weights[rng.randrange(n)] += 1
        if any(weights):
            return weights


def derivation_check(rng: random.Random, count: int) -> tuple[list[str], dict]:
    """``count`` addition instances and ``count`` dominator instances over
    1-3 atoms. Each ``addpair_derive`` trace, and each ``dom_from_add_check``
    instance and its trace, must pass ``verify_trace`` (or ``validate``)
    with every pair step decided by Fourier-Motzkin. An addition instance
    has 1-3 sets and weights every picking from {0, 1, 2}, in turn over
    sets of 1-3 gambles from [-2, 2] with the weights drawn until one is
    not zero, and over sets of 1-2 gambles from [-3, 3] with one weight
    raised by 1. A dominator instance lifts each gamble of a set of 1-3
    gambles from [-2, 2] by 0-2 per atom. Counts the traces that verify, of
    addition (``addition``) and of dominators (``dominators``)."""
    faults = []
    counts = {"addition": 0, "dominators": 0}
    for i in range(count):
        raised = bool(i % 2)
        size, bound = (2, 3) if raised else (3, 2)
        space = default_space(rng.randint(1, 3))
        sets = [
            random_gamble_set(rng, space, rng.randint(1, size), bound)
            for _ in range(rng.randint(1, 3))
        ]
        comb = {
            seq: combination(_positive_weights(rng, len(seq), raised), seq, space)
            for seq in itertools.product(*(s.members for s in sets))
        }
        try:
            trace = addpair_derive(sets, comb)
            verify_trace(trace, sets, target=GambleSet.build(space, comb.values()),
                         posi_check=fm_posi_check)
        except ValueError as exc:  # a TraceError is one
            faults.append(f"[addition {i}] {exc}")
        else:
            counts["addition"] += 1
    for i in range(count):
        space = default_space(rng.randint(1, 3))
        A = random_gamble_set(rng, space, rng.randint(1, 3), 2)
        lifts = {m: m + Gamble(space, tuple(rng.randint(0, 2) for _ in space.labels))
                 for m in A.members}
        try:
            instance = dom_from_add_check(A, lifts)
            instance.validate(posi_check=fm_posi_check)
            verify_trace(instance.to_trace(), list(instance.sets), target=instance.conclusion,
                         posi_check=fm_posi_check)
        except ValueError as exc:
            faults.append(f"[dominators {i}] {exc}")
        else:
            counts["dominators"] += 1
    return faults, counts


def representation_check(rng: random.Random, count: int) -> tuple[list[str], dict]:
    """``count`` consistent assessments over 1-3 atoms, on each of which the
    cone-family verdict ``k_family_contains`` must agree with extension
    membership; then ``count // 2`` triples of two cone families over 1-2
    atoms and a coherent cone, where a cone in the family of the two
    families' concatenated sets must be in the family of each (downward
    closure). The assessments take turns: drawn in the first of
    ``SHALLOW_SHAPES``, and 2-3 sets of 2-3 gambles from [-3, 3] with a
    candidate of 1-2, which have several pickings, so that "every picking's
    cone" is tested. A family has 1-2 sets of 1-2 gambles from [-2, 2].
    Counts the comparisons (``compared``), the triples (``triples``) and
    those whose cone is in the concatenation's family (``closed``)."""
    faults = []
    compared = closed = 0
    while compared < count:
        if compared % 2:
            space = default_space(rng.randint(1, 3))
            sets = [
                random_gamble_set(rng, space, rng.randint(2, 3), 3)
                for _ in range(rng.randint(2, 3))
            ]
            assessment = Assessment.build(space, sets)
            candidate = random_gamble_set(rng, space, rng.randint(1, 2), 3)
        else:
            assessment, candidate = draw_query(rng, SHALLOW_SHAPES[0])
        if not is_consistent(assessment):
            continue
        family = k_family_contains(DFamilySpec(assessment.sets), candidate)
        if family != ext_contains(assessment, candidate).member:
            faults.append(f"[repr {compared}] family evaluation disagrees with the extension: "
                          f"{candidate.serialized()}")
        compared += 1
    for i in range(count // 2):
        space = default_space(rng.randint(1, 2))
        first, second = (
            DFamilySpec(tuple(
                random_gamble_set(rng, space, rng.randint(1, 2), 2)
                for _ in range(rng.randint(1, 2))
            ))
            for _ in range(2)
        )
        D = coherent_cone(rng, space)
        if family_contains(DFamilySpec(first.sets + second.sets), D):
            closed += 1
            if not (family_contains(first, D) and family_contains(second, D)):
                faults.append(f"[closure {i}] a cone of the concatenation's family is not "
                              f"in both families")
    return faults, {"compared": compared, "triples": count // 2, "closed": closed}


AXIOMS = ("no-empty-set", "drop-zero", "weak-positive", "superset", "dominators", "addition")


def axiom_check(rng: random.Random, count: int) -> tuple[list[str], dict]:
    """``count`` consistent assessments of 1-3 sets of 1-3 gambles from
    [-2, 2] over 1-3 atoms, on the i-th of which each of the ``AXIOMS`` is
    drawn 20 times by ``axiom_sets`` at seed i: the extension must hold
    every set an axiom puts in it and keep out the empty set. A fault is
    tagged with its axiom. Counts the sets checked, by axiom (``sets``)."""
    faults = []
    sets = dict.fromkeys(AXIOMS, 0)
    found = 0
    while found < count:
        space = default_space(rng.randint(1, 3))
        assessment = seeded_assessment(rng, space, 3, 3, 2)
        if not is_consistent(assessment):
            continue
        for axiom in AXIOMS:
            for s in axiom_sets(assessment, axiom, seed=found, trials=20):
                sets[axiom] += 1
                if ext_contains(assessment, s).member is (axiom == "no-empty-set"):
                    faults.append(f"[axiom {found} {axiom}] {s.serialized()}")
        found += 1
    return faults, {"sets": sets}


# The seed and the count of tier-1's run of each driver.
TIER1 = {
    cone_check: (10001, 500),
    extension_check: (10006, 300),
    program_check: (20240917, 1000),
    forgery_check: ("tampered-covers", 200),
    derivation_check: (10008, 50),
    representation_check: (10007, 200),
    axiom_check: (10004, 100),
    walk_check: (10009, 200),
}


@functools.cache
def tier1_run(check) -> tuple[list[str], dict]:
    """The faults and counts of ``check`` at its ``TIER1`` seed and count,
    drawn once per process, with the seconds it took (``seconds``): the
    tests that assert on one property, each on its own part of the run,
    share one draw loop. The caller must not change what it is handed."""
    seed, count = TIER1[check]
    start = time.perf_counter()
    faults, counts = check(random.Random(seed), count)
    return faults, {**counts, "seconds": time.perf_counter() - start}


def tagged(faults: list[str], *tags: str) -> list[str]:
    """The faults that carry every one of ``tags`` among the words of the
    bracketed tag that opens each."""
    return [why for why in faults if set(tags) <= set(why[1:why.index("]")].split())]
