#!/usr/bin/env python3
"""Seeded differential sweep: engine versus elimination oracle at scale.

A loop over the drivers of ``tests/differential.py``, which tier-1 calls
too, each once, at a fixed count; here one generator seeded by ``--seed``
feeds them all in turn, at counts set by ``--instances`` (N):

- N cone queries against Fourier-Motzkin (``cone_check``): every fifth asks
  for the zero gamble, every "yes" must carry a certificate that passes
  substitution, and every weak "no" over generators a refutation that does,
  counted in the summary. Each is held to its LP budgets: the strict test
  solves at most two LPs, and reading a weak "no"'s refutation none. Then
  4N queries over one generator, where no test, weak or strict, solves an
  LP. The sweep prints the strict tests by the LPs they solved, the
  refutations read by form and the one-generator answers by shape
  (``cone budgets:``);
- 5N extension queries, each decided four ways (the walk, weak and strict,
  and the split and indicator formulations) and held to exhaustive search
  in its mode with every answer re-verified (``extension_check``); N // 5
  of them have four or five sets, whose exhaustive search costs the most;
- N // 5 draws on which the natural extension, weak and strict, every
  answer re-verified, must act as a closure (``closure_check``): zero
  padding changes no answer, the extension is monotone and idempotent in
  the assessment and holds every assessment set, and an inconsistent
  assessment takes every set. The sweep prints, per mode, the draws, the
  members added back, and the inconsistent assessments with the probes
  they absorbed (``closure:``);
- N programs for the exact simplex against Fourier-Motzkin and its own
  witness checker (``program_check``), of five kinds in turn. The summary
  counts the wide ones, with 8-12 variables and too wide for elimination;
  those stored over a scale above 1 (rational rows, which
  ``LinearProgram`` turns into integer rows over their least common
  denominator); and the infeasible ones, their Farkas rays checked, with
  equality rows or with two or more negative right-hand sides, whose rays
  phase 1 reads off one auxiliary column shared by those rows;
- N // 2 extension queries, half of them over four or five sets, whose
  answers in all four ways, positive or negative, weak or strict, are
  forged every way ``forgeries`` can (``forgery_check``); the verifier
  must reject each forgery. A "no" records no cover, and a weak one moved
  to another failing picking must verify. The sweep prints how many
  forgeries it made of each kind (``forged by kind``), how many of them
  forge a reduction, and over how many drops;
- N // 10 addition and as many dominator instances, whose traces must pass
  ``verify_trace`` with every pair step decided by Fourier-Motzkin
  (``derivation_check``);
- N // 5 consistent assessments on which the cone-family verdict
  ``k_family_contains`` must agree with extension membership, N // 10
  triples for the downward closure of cone families, and N // 10 instances
  each of their upward closure in the cone, of acceptance as quantification
  over the family's cones, and of cone acceptance closed under addition
  (``representation_check``);
- N extension queries whose walk, weak and strict, must repeat the
  reference walks without its shortcuts, settle each cover node at the
  first prefix that settles, lift a valid certificate onto every full
  picking of a "yes", name the first failing picking of a "no", and make
  fewer picking tests than the walk without refutations (``walk_check``).
  The sweep prints, per mode, the members, those with a reduction and its
  drops, the full pickings whose certificate moved a coefficient onto a
  dropped member, the non-members, and the picking tests with and without
  the refutation flow (``walk:``).

Every fault a driver finds (a disagreement, a rejected answer or
certificate, an accepted forgery) is printed and counted; exit status 1
signals at least one.
"""

import argparse
import random
import sys
import time
from pathlib import Path

# The drivers live with the tests, which call them too.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from differential import (  # noqa: E402
    KINDS,
    ONE_GENERATOR_SHAPES,
    REDUCTION_KINDS,
    closure_check,
    cone_check,
    derivation_check,
    extension_check,
    forgery_check,
    program_check,
    representation_check,
    walk_check,
)


def sweep(seed: int, instances: int) -> int:
    rng = random.Random(seed)
    start = time.time()
    checks = (
        (cone_check, instances),
        (extension_check, 5 * instances),
        (closure_check, instances // 5),
        (program_check, instances),
        (forgery_check, instances // 2),
        (derivation_check, instances // 10),
        (representation_check, instances // 5),
        (walk_check, instances),
    )
    faults, counts = [], {}
    for check, count in checks:
        found, counts[check.__name__] = check(rng, count)
        faults += found
    for why in faults:
        print(why)

    lp = counts["program_check"]
    traces = counts["derivation_check"]
    forged = {kind: sum(by_kind[kind] for by_kind in counts["forgery_check"]["forged"].values())
              for kind in KINDS}
    reduced = sum(forged[kind] for kind in REDUCTION_KINDS)
    print("forged by kind: " + " ".join(f"{kind}={n}" for kind, n in forged.items()))
    cone = counts["cone_check"]
    budgets = [(f"strict-{n}-lps", cone["strict_lps"][n]) for n in range(3)]
    budgets += [(f"read-{form}", n) for form, n in cone["forms"].items()]
    budgets += [(f"one-generator-{shape}", cone["shapes"][shape]) for shape in ONE_GENERATOR_SHAPES]
    print("cone budgets: " + " ".join(f"{name}={n}" for name, n in budgets))
    print("closure: " + "; ".join(
        f"{mode} {c['draws']} draws ({c['members']} members added), "
        f"{c['inconsistent']} inconsistent absorbing {c['absorbed']} probes"
        for mode, c in counts["closure_check"].items()
    ))
    print("walk: " + "; ".join(
        f"{mode} {c['members']} members ({c['lifted']} lifted, {c['drops']} drops, "
        f"{c['moved']} moved coefficients), {c['negatives']} negatives, {c['flow']} picking "
        f"tests with the refutation flow, {c['plain']} without"
        for mode, c in counts["walk_check"].items()
    ))
    print(f"checked {instances} cone ({cone['refuted']} refuted) + "
          f"{4 * instances} one-generator cone + {5 * instances} extension + "
          f"{instances // 5} closure draws + "
          f"{instances} lp ({lp['wide']} wide, {lp['scaled']} stored over a scale > 1, "
          f"{lp['rays']} equality rays, {lp['shared']} rays over 2+ negative rows) + "
          f"{instances // 2} deep extension instances "
          f"({sum(forged.values()) - reduced} forged answers) + "
          f"{reduced} reduction_forgeries "
          f"({sum(counts['forgery_check']['drops'].values())} drops) + "
          f"{traces['addition'] + traces['dominators']} derivation traces + "
          f"{counts['representation_check']['compared']} representation comparisons + "
          f"{instances} walk queries in "
          f"{time.time() - start:.1f}s, disagreements: {len(faults)}")
    return len(faults)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--instances", type=int, default=300)
    args = parser.parse_args()
    return 1 if sweep(args.seed, args.instances) else 0


if __name__ == "__main__":
    sys.exit(main())
