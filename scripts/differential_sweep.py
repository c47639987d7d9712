#!/usr/bin/env python3
"""Seeded differential sweep: engine versus elimination oracle at scale.

Compares the simplex-backed cone tests against Fourier-Motzkin (every fifth
cone query asks for the zero gamble, every "yes" must carry a certificate
that passes substitution, and every weak "no" over generators a refutation
that does, counted in the summary), the full-list extension decision, weak
and strict, against exhaustive list search, the three membership
formulations against each other, and the exact simplex itself against
Fourier-Motzkin and its own witness checker, over randomly generated
instances. Every program's outcome carries a full certificate that
substitution checks (the point with its dual, the Farkas ray, or the point
with its improving ray), also where equality rows are drawn, which the
program stores as ``<=`` rows; elimination sees the rows as drawn, so it
checks that form too. Every fourth program is wide: 8-12 variables and as
many ``<=`` rows, too wide for elimination, so its outcome is checked by
substitution alone. The sweep prints how many wide programs it drew, how
many programs were stored over a scale above 1 (rational rows, which
``LinearProgram`` turns into integer rows over their least common
denominator), how many programs with equality rows came out infeasible,
their Farkas rays checked, and how many programs with two or more negative
right-hand sides did, whose rays phase 1 reads off one auxiliary column
shared by those rows. A last section repeats the extension comparison on
deeper picking trees (four or five assessment sets) and re-verifies every answer of
all three formulations and of the strict engine, positive or negative, with
``verify_ext_answer``; it
also forges each positive answer five ways (the last node's remainder
shifted by one, or by 1/p for a prime p that divides no denominator of its
certificate, the middle node dropped, the last node moved to its previous
sibling prefix, the first picking named as failed), each negative answer
with a one-node cover (a "no" records none), the refutations of each
weak negative answer two ways (the last one dropped, the last one's vector
negated), and the reduction of each positive engine answer, per dropped
member (see ``reduction_forgeries``), and the verifier must reject each
forgery; the sweep prints how many reduction forgeries it made, over how
many drops. Two more sections check the derivation engine and the
representation, at a fixed size whatever ``--instances`` is: 30 random
addition instances, whose ``addpair_derive`` traces must pass
``verify_trace`` with every pair step decided by Fourier-Motzkin, and
``representation_agrees`` on the consistent, nonempty ones of 60
assessments; the sweep prints how many of each it checked.
Any disagreement, rejected answer or certificate, or accepted tampered answer
is printed and counted; exit status 1 signals at least one.
"""

import argparse
import itertools
import math
import random
import sys
import time
from fractions import Fraction

from gamblesets import (
    Assessment,
    Certificate,
    ConeGenerators,
    ExtAnswer,
    GambleSet,
    Hit,
    Infeasible,
    LinearProgram,
    Optimal,
    Skip,
    addpair_derive,
    brute_ext_contains,
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
    indicator,
    is_consistent,
    lp_solve,
    posi_contains,
    representation_agrees,
    scale,
    verify_ext_answer,
    verify_outcome,
    verify_trace,
    zero,
    zero_in_desext,
)
from gamblesets.cones import Refutation, desext_refutation
from gamblesets.gambles import combination, in_cone_wd0, random_gamble
from gamblesets.oracle import default_space, random_gamble_set
from gamblesets.ratlp import EQ, LEQ, LT, LPOutcome

LP_KINDS = ("rational", "degenerate", "equalities", "wide")

# Cone queries draw 1 to OMEGA_MAX atoms, extension instances 1 to 3; integer
# entries are drawn from [-BOUND, BOUND].
OMEGA_MAX = 4
BOUND = 3


def random_program(rng: random.Random, kind: str) -> tuple[list, list]:
    """The objective and the rows, as drawn, of a program of one kind:
    fractional entries; zero right-hand sides and rescaled copies of earlier
    rows; mostly equality rows; or 8-12 variables and as many ``<=`` rows,
    some right-hand sides zero."""
    def entry() -> Fraction:
        if kind == "rational":
            return Fraction(rng.randint(-2 * BOUND, 2 * BOUND), rng.randint(1, BOUND + 2))
        return Fraction(rng.randint(-BOUND, BOUND))

    if kind == "wide":
        n = rng.randint(8, 12)
        rows = [([entry() for _ in range(n)], LEQ, Fraction(0) if rng.random() < 0.3 else entry())
                for _ in range(n)]
        return [entry() for _ in range(n)], rows
    n = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 6)):
        if kind == "degenerate" and rows and rng.random() < 0.4:
            coeffs, rel, rhs = rng.choice(rows)
            k = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            rows.append(([k * v for v in coeffs], rel, k * rhs))
            continue
        rel = EQ if rng.random() < (0.7 if kind == "equalities" else 0.25) else LEQ
        rhs = Fraction(0) if kind == "degenerate" and rng.random() < 0.6 else entry()
        rows.append(([entry() for _ in range(n)], rel, rhs))
    return [entry() for _ in range(n)], rows


def lp_disagreement(lp: LinearProgram, out: LPOutcome, drawn: list | None) -> str | None:
    """Why ``out``, the simplex outcome for ``lp``, is wrong, or None if it
    holds up. Its witness is checked by substitution; given the rows as
    drawn, elimination decides feasibility and optimality on them too."""
    if not verify_outcome(lp, out):
        return f"witness fails substitution: {out}"
    if drawn is None:
        return None
    rows = list(drawn)
    for j in range(lp.num_vars):
        rows.append(([-int(i == j) for i in range(lp.num_vars)], LEQ, 0))
    if fm_feasible(rows) == isinstance(out, Infeasible):
        return f"feasibility disagrees with elimination: {out}"
    if isinstance(out, Optimal):
        better = rows + [([-c for c in lp.objective], LT, -out.value)]
        if fm_feasible(better):
            return f"elimination finds a point better than {out.value}"
    return None


def tampered(answer: ExtAnswer, atom: int) -> list[tuple[str, ExtAnswer]]:
    """Forgeries of a positive answer, each named: the last node's
    certificate with its remainder one more, or 1/p more, on the given atom,
    p the first prime from 17 on that divides no denominator of the
    certificate (a check that compares entries at the wrong scale can still
    catch a whole unit); the middle node dropped; the last node moved to its
    previous sibling prefix, where it has one; and the answer naming its
    first picking as failed."""
    cover = answer.cover
    prefix, ev = cover[-1]
    lambdas, rem = ev.certificate.lambdas, ev.certificate.remainder
    den = math.lcm(*(v.denominator for v in lambdas + rem.values))
    p = next(q for q in (17, 19, 23, 29, 31, 37, 41, 43) if den % q)
    unit = indicator(rem.space, rem.space.labels[atom])

    def shifted(by: Fraction) -> tuple:
        cert = Certificate(lambdas, rem + scale(by, unit))
        node = Skip(cert) if isinstance(ev, Skip) else Hit(ev.gamble, cert)
        return cover[:-1] + ((prefix, node),)

    middle = len(cover) // 2
    forged = [
        ("a shifted last certificate", shifted(Fraction(1))),
        (f"a last certificate shifted by 1/{p}", shifted(Fraction(1, p))),
        ("its middle node dropped", cover[:middle] + cover[middle + 1 :]),
    ]
    if prefix:
        members = answer.witness_list[len(prefix) - 1].members
        k = members.index(prefix[-1])
        if k:
            forged.append(("its last node moved to the previous sibling",
                           cover[:-1] + ((prefix[:-1] + (members[k - 1],), ev),)))
    first = tuple(s.members[0] for s in answer.witness_list)
    def forgery(cover, failed):
        return ExtAnswer(
            answer.member, answer.witness_list, cover, failed, answer.strict, answer.refutations
        )

    return [(name, forgery(nodes, answer.failed_sequence)) for name, nodes in forged] + [
        ("a failed picking", forgery(cover, first))
    ]


def negative_forgeries(answer: ExtAnswer, space) -> list[tuple[str, ExtAnswer]]:
    """Forgeries of a negative answer, each named: a one-node cover, its
    failed picking claimed skipped; and, where the answer refutes its failed
    picking, the last refutation dropped, and the last one's vector
    negated."""
    failed, refs = answer.failed_sequence, answer.refutations
    claimed = Certificate((Fraction(0),) * len(set(failed)), zero(space))
    forged = [("a one-node cover", ((failed, Skip(claimed)),), refs)]
    if refs:
        negated = Refutation(refs[-1].form, tuple(-v for v in refs[-1].y))
        forged += [("its last refutation dropped", (), refs[:-1]),
                   ("its last refutation negated", (), refs[:-1] + (negated,))]
    return [
        (name, ExtAnswer(answer.member, answer.witness_list, cover, failed, answer.strict, r))
        for name, cover, r in forged
    ]


def reduction_forgeries(answer: ExtAnswer) -> list[tuple[str, ExtAnswer]]:
    """Forgeries of a positive answer's reduction (its dropped members), each
    named, per drop: the keeper moved outside the dropped member's cone, its
    coefficient scaled up with the remainder re-formed to match, or with the
    remainder kept, so that it does not reconstruct; the keeper the dropped
    member itself; a position out of range, of the keeper, the
    dropped member or the set; a zero
    coefficient for a keeper that is not weakly positive; and, where the
    dropped member also lies in its keeper's cone, every member of the set
    dropped, the keeper too, with an empty cover."""
    sets, reduction = answer.witness_list, answer.reduction
    forged = []

    def forgery(name: str, drops, cover=answer.cover) -> None:
        forged.append((name, ExtAnswer(answer.member, sets, cover, None, answer.strict,
                                       answer.refutations, tuple(drops))))

    for k, (d, b, a, cert) in enumerate(reduction):
        members = sets[d].members
        others = reduction[:k] + reduction[k + 1 :]
        alone = ConeGenerators.build(members[b].space, (members[b],))
        scaled = Certificate.over(alone, (2 * cert.lambdas[0] + 1,), members[a])
        if any(v < 0 for v in scaled.remainder.values):
            forgery("a keeper scaled outside the cone", others + ((d, b, a, scaled),))
        if any(members[b].values):
            moved = Certificate((2 * cert.lambdas[0] + 1,), cert.remainder)
            forgery("a coefficient that does not reconstruct", others + ((d, b, a, moved),))
        forgery("a keeper equal to its dropped member", others + ((d, b, b, cert),))
        forgery("a keeper out of range", others + ((d, b, len(members), cert),))
        forgery("a dropped member out of range", others + ((d, len(members), a, cert),))
        forgery("a set out of range", others + ((len(sets), b, a, cert),))
        if not in_cone_wd0(members[a]):
            claimed = Certificate((Fraction(0),), members[a])
            forgery("a zero coefficient", others + ((d, b, a, claimed),))
        back = desext_contains(ConeGenerators.build(members[a].space, (members[a],)), members[b])
        cycle = [drop for drop in reduction if drop[0] == d] + [(d, a, b, back)]
        if back is not None and len({drop[1] for drop in cycle}) == len(members):
            forgery("a keeper dropped in turn", cycle, ())
    return forged


def fm_posi_check(E: ConeGenerators, f) -> bool:
    """Positive-hull membership decided by Fourier-Motzkin alone."""
    return fm_posi_contains(E.generators, f)


def strict_disagrees(where: str, assessment: Assessment, candidate: GambleSet) -> int:
    """1 if the strict engine answer disagrees with exhaustive strict search
    or fails ``verify_ext_answer``, printing why; 0 otherwise."""
    answer = ext_contains(assessment, candidate, strict=True)
    brute = brute_ext_contains(assessment, candidate, strict=True)
    if answer.member != brute:
        print(f"[{where}] strict exhaustive={brute} engine={answer.member}")
        return 1
    if not verify_ext_answer(answer, candidate):
        print(f"[{where}] strict answer (member={answer.member}) fails verify_ext_answer")
        return 1
    return 0


def sweep(seed: int, instances: int) -> int:
    rng = random.Random(seed)
    bad = refuted = 0
    start = time.time()

    for i in range(instances):
        space = default_space(rng.randint(1, OMEGA_MAX))
        gens = tuple(random_gamble(rng, space, BOUND) for _ in range(rng.randint(0, 4)))
        f = random_gamble(rng, space, BOUND)
        if i % 5 == 0:
            # f = 0 is the homogeneous case the desext LP must hand over to
            # the zero test; f is still drawn so later sections keep theirs.
            f = zero(space)
        E = ConeGenerators.build(space, gens)
        z = zero(space)
        tests = [
            ("posi", posi_contains(E, f), fm_posi_contains(gens, f), certificate_valid, f),
            ("desext", desext_contains(E, f), fm_desext_contains(gens, f), certificate_valid, f),
            ("zero", zero_in_desext(E), fm_zero_in_desext(gens), certificate_valid, z),
            (
                "strict",
                desext_contains_strict(E, f),
                fm_desext_contains_strict(gens, f),
                certificate_valid_strict,
                f,
            ),
        ]
        for name, cert, oracle, valid, target in tests:
            if (cert is not None) != oracle:
                bad += 1
                print(f"[{i}] {name} disagrees: engine={cert is not None} oracle={oracle}")
            elif cert is not None and not valid(cert, E, target):
                bad += 1
                print(f"[{i}] {name} certificate fails substitution: {cert}")
            elif cert is None and gens and name in ("desext", "zero"):
                refuted += 1
                ref = desext_refutation(E, target)
                if ref is None or not ref.refutes(E, target):
                    bad += 1
                    print(f"[{i}] {name} \"no\" without a refutation that holds: {ref}")

    for i in range(instances // 2):
        space = default_space(rng.randint(1, 3))
        sets = [
            random_gamble_set(rng, space, rng.randint(1, 2), BOUND)
            for _ in range(rng.randint(1, 3))
        ]
        assessment = Assessment.build(space, sets)
        candidate = random_gamble_set(rng, space, rng.randint(0, 2), BOUND)
        a = ext_contains(assessment, candidate).member
        b = ext_contains_split(assessment, candidate).member
        c = ext_contains_indicator(assessment, candidate).member
        d = brute_ext_contains(assessment, candidate)
        if not (a == b == c == d):
            bad += 1
            print(f"[ext {i}] split={b} indicator={c} exhaustive={d} engine={a}")
        bad += strict_disagrees(f"ext {i}", assessment, candidate)

    wide = scaled = rays = shared = 0
    for i in range(instances):
        kind = LP_KINDS[i % len(LP_KINDS)]
        objective, rows = random_program(rng, kind)
        lp = LinearProgram.build(objective, rows)
        out = lp_solve(lp)
        wide += kind == "wide"
        scaled += lp.scale > 1
        rays += isinstance(out, Infeasible) and any(rel == EQ for _, rel, _ in rows)
        shared += isinstance(out, Infeasible) and sum(b < 0 for _, _, b in lp.constraints) >= 2
        why = lp_disagreement(lp, out, None if kind == "wide" else rows)
        if why is not None:
            bad += 1
            print(f"[lp {i} {kind}] {why}")

    deep = instances // 5
    tampered_answers = reduced = drops = 0
    for i in range(deep):
        # Four or five sets make the picking tree deep enough for prefixes
        # to settle whole subtrees below the first level.
        space = default_space(rng.randint(1, 3))
        sets = [
            random_gamble_set(rng, space, rng.randint(1, 3), BOUND)
            for _ in range(rng.randint(4, 5))
        ]
        assessment = Assessment.build(space, sets)
        candidate = random_gamble_set(rng, space, rng.randint(0, 2), BOUND)
        answers = {
            "engine": ext_contains(assessment, candidate),
            "split": ext_contains_split(assessment, candidate),
            "indicator": ext_contains_indicator(assessment, candidate),
        }
        a, b, c = (answer.member for answer in answers.values())
        d = brute_ext_contains(assessment, candidate)
        if not (a == b == c == d):
            bad += 1
            print(f"[ext-deep {i}] split={b} indicator={c} exhaustive={d} engine={a}")
        bad += strict_disagrees(f"ext-deep {i}", assessment, candidate)
        for name, answer in answers.items():
            if not verify_ext_answer(answer, candidate):
                bad += 1
                print(f"[ext-deep {i}] {name} answer (member={answer.member}) "
                      f"fails verify_ext_answer")
            forgeries = []
            if answer.member and answer.cover:
                forgeries = tampered(answer, i % space.size)
            elif not answer.member:
                forgeries = negative_forgeries(answer, space)
            for forgery, forged in forgeries:
                tampered_answers += 1
                if verify_ext_answer(forged, candidate):
                    bad += 1
                    print(f"[ext-deep {i}] {name} answer with {forgery} "
                          f"passes verify_ext_answer")
            drops += len(answer.reduction)
            for forgery, forged in reduction_forgeries(answer) if answer.member else ():
                reduced += 1
                if verify_ext_answer(forged, candidate):
                    bad += 1
                    print(f"[ext-deep {i}] {name} answer with {forgery} "
                          f"passes verify_ext_answer")

    derived = 0
    for i in range(30):
        space = default_space(rng.randint(1, 3))
        sets = [
            random_gamble_set(rng, space, rng.randint(1, 2), BOUND)
            for _ in range(rng.randint(1, 3))
        ]
        comb = {}
        for seq in itertools.product(*(s.members for s in sets)):
            coeffs = [Fraction(rng.randint(0, 2)) for _ in seq]
            coeffs[rng.randrange(len(seq))] += 1  # a positive combination
            comb[seq] = combination(coeffs, seq, space)
        target = GambleSet.build(space, comb.values())
        try:
            trace = addpair_derive(sets, comb)
            verify_trace(trace, sets, target=target, posi_check=fm_posi_check)
        except ValueError as exc:  # a TraceError is one
            bad += 1
            print(f"[derive {i}] {exc}")
        else:
            derived += 1

    represented = 0
    for i in range(60):
        # Two or three sets of two or three gambles: several pickings, most
        # assessments consistent, so "every picking's cone" is tested.
        space = default_space(rng.randint(1, 3))
        sets = [
            random_gamble_set(rng, space, rng.randint(2, 3), BOUND)
            for _ in range(rng.randint(2, 3))
        ]
        assessment = Assessment.build(space, sets)
        if not is_consistent(assessment):
            continue
        represented += 1
        candidate = random_gamble_set(rng, space, rng.randint(1, 2), BOUND)
        if not representation_agrees(assessment, candidate):
            bad += 1
            print(f"[repr {i}] family evaluation disagrees with the extension")

    elapsed = time.time() - start
    print(f"checked {instances} cone ({refuted} refuted) + {instances // 2} extension + "
          f"{instances} lp ({wide} wide, {scaled} stored over a scale > 1, "
          f"{rays} equality rays, {shared} rays over 2+ negative rows) + "
          f"{deep} deep extension instances ({tampered_answers} forged answers) + "
          f"{reduced} reduction_forgeries ({drops} drops) + "
          f"{derived} derivation traces + {represented} representation comparisons in "
          f"{elapsed:.1f}s, disagreements: {bad}")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--instances", type=int, default=300)
    args = parser.parse_args()
    return 1 if sweep(args.seed, args.instances) else 0


if __name__ == "__main__":
    sys.exit(main())
