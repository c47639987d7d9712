"""The differential checks that tier-1 and ``scripts/differential_sweep.py``
share: the forgeries of an answer that ``verify_ext_answer`` must reject,
and the judges that hold the exact simplex and the cone tests to
Fourier-Motzkin elimination. Each caller draws its own instances.

The forgeries are the only forged answers the tests make. Those without
drops are also written to files by ``as_payload``, the desir/1 payload of
an answer with its cover as it is, so that ``selftest --verify`` meets the
same catalogue as the verifier in process; ``as_leaves`` is an answer in
the form ``in-ext`` writes, each covered picking a node of its own.

A plain module, not a test module: pytest does not collect it, and it
imports only the package and the standard library, so the sweep runs it
without pytest.
"""

import itertools
import math
from fractions import Fraction

from gamblesets import (
    Certificate,
    ConeGenerators,
    Evidence,
    ExtAnswer,
    Gamble,
    Infeasible,
    Optimal,
    Unbounded,
    certificate_valid,
    certificate_valid_strict,
    desext_contains,
    desext_contains_strict,
    ext_contains,
    ext_contains_indicator,
    ext_contains_split,
    fm_desext_contains,
    fm_desext_contains_strict,
    fm_feasible,
    fm_posi_contains,
    fm_zero_in_desext,
    posi_contains,
    verify_outcome,
    zero,
    zero_in_desext,
)
from gamblesets.cli import _evidence_entries, _ext_payload
from gamblesets.cones import Refutation, desext_refutation
from gamblesets.extension import _lift
from gamblesets.gambles import in_cone_gt0, in_cone_wd0
from gamblesets.oracle import default_space
from gamblesets.ratlp import LEQ, LT

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
