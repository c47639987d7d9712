#!/usr/bin/env python3
"""Seeded differential sweep: engine versus elimination oracle at scale.

The forgeries and judges it applies live in ``tests/differential.py``,
which tier-1 calls too; this script draws its own instances, more of them.
It compares the simplex-backed cone tests against Fourier-Motzkin
(``cone_disagreements``: every fifth cone query asks for the zero gamble,
every "yes" must carry a certificate that passes substitution, and every
weak "no" over generators a refutation that does, counted in the summary);
the four ways to decide extension membership (the walk, weak and strict,
and the split and indicator formulations) against exhaustive list search,
re-verifying each answer; and the exact simplex against Fourier-Motzkin
and its own witness checker (``lp_disagreement``). Every program's outcome
carries a full certificate that substitution checks, also where equality
rows are drawn, which the program stores as ``<=`` rows; elimination sees
the rows as drawn, so it checks that form too. Every fourth program is
wide: 8-12 variables and as many ``<=`` rows, too wide for elimination, so
its outcome is checked by substitution alone. The sweep prints how many
wide programs it drew, how many programs were stored over a scale above 1
(rational rows, which ``LinearProgram`` turns into integer rows over their
least common denominator), how many programs with equality rows came out
infeasible, their Farkas rays checked, and how many programs with two or
more negative right-hand sides did, whose rays phase 1 reads off one
auxiliary column shared by those rows.

A deep section repeats the extension comparison on deeper picking trees
(four or five assessment sets) and forges every answer of all four ways,
positive or negative, weak or strict, with ``forgeries``; the verifier must
reject each forgery. It prints how many forgeries it made of each kind
(``forged by kind``), how many of them forge a reduction, and over how many
drops. Two more sections check the derivation engine and the
representation, at a fixed size whatever ``--instances`` is: 30 random
addition instances, whose ``addpair_derive`` traces must pass
``verify_trace`` with every pair step decided by Fourier-Motzkin, and, on
the consistent ones of 60 nonempty assessments, the cone-family verdict
``k_family_contains`` against extension membership; the sweep prints how
many of each it checked.
Any disagreement, rejected answer or certificate, or accepted forgery is
printed and counted; exit status 1 signals at least one.
"""

import argparse
import itertools
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from gamblesets import (
    Assessment,
    ConeGenerators,
    DFamilySpec,
    GambleSet,
    Infeasible,
    LinearProgram,
    addpair_derive,
    brute_ext_contains,
    desext_contains,
    ext_contains,
    is_consistent,
    k_family_contains,
    lp_solve,
    verify_ext_answer,
    verify_trace,
    zero,
    zero_in_desext,
)
from gamblesets.gambles import combination, random_gamble
from gamblesets.oracle import default_space, random_gamble_set
from gamblesets.ratlp import EQ, LEQ

# The forgeries and judges live with the tests, which call them too.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from differential import (  # noqa: E402
    FORMULATIONS,
    KINDS,
    REDUCTION_KINDS,
    cone_disagreements,
    fm_posi_check,
    forgeries,
    lp_disagreement,
)

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


def checked_answers(where: str, assessment: Assessment, candidate: GambleSet) -> tuple[dict, int]:
    """The answer of every formulation, by name, and how many of them decide
    otherwise than exhaustive search, weak or strict, or fail
    ``verify_ext_answer``; each is printed."""
    answers = {name: decide(assessment, candidate) for name, decide in FORMULATIONS.items()}
    exhaustive = {strict: brute_ext_contains(assessment, candidate, strict=strict)
                  for strict in (False, True)}
    bad = 0
    for name, answer in answers.items():
        if answer.member != exhaustive[answer.strict]:
            bad += 1
            print(f"[{where}] {name} answer {answer.member}, exhaustive search "
                  f"{exhaustive[answer.strict]}")
        elif not verify_ext_answer(answer, candidate):
            bad += 1
            print(f"[{where}] {name} answer (member={answer.member}) fails verify_ext_answer")
    return answers, bad


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
        for why in cone_disagreements(E, f):
            bad += 1
            print(f"[{i}] {why}")
        if gens:
            refuted += (desext_contains(E, f) is None) + (zero_in_desext(E) is None)

    for i in range(instances // 2):
        space = default_space(rng.randint(1, 3))
        sets = [
            random_gamble_set(rng, space, rng.randint(1, 2), BOUND)
            for _ in range(rng.randint(1, 3))
        ]
        assessment = Assessment.build(space, sets)
        candidate = random_gamble_set(rng, space, rng.randint(0, 2), BOUND)
        bad += checked_answers(f"ext {i}", assessment, candidate)[1]

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
    forged = dict.fromkeys(KINDS, 0)
    drops = 0
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
        answers, wrong = checked_answers(f"ext-deep {i}", assessment, candidate)
        bad += wrong
        for name, answer in answers.items():
            drops += len(answer.reduction)
            for kind, forgery in forgeries(answer, candidate, i % space.size):
                forged[kind] += 1
                if verify_ext_answer(forgery, candidate):
                    bad += 1
                    print(f"[ext-deep {i}] {name} answer forged ({kind}) "
                          f"passes verify_ext_answer")
    reduced = sum(forged[kind] for kind in REDUCTION_KINDS)

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
        family = k_family_contains(DFamilySpec(assessment.sets), candidate)
        if family != ext_contains(assessment, candidate).member:
            bad += 1
            print(f"[repr {i}] family evaluation disagrees with the extension")

    elapsed = time.time() - start
    print("forged by kind: " + " ".join(f"{kind}={n}" for kind, n in forged.items()))
    print(f"checked {instances} cone ({refuted} refuted) + {instances // 2} extension + "
          f"{instances} lp ({wide} wide, {scaled} stored over a scale > 1, "
          f"{rays} equality rays, {shared} rays over 2+ negative rows) + "
          f"{deep} deep extension instances ({sum(forged.values()) - reduced} forged answers) + "
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
