#!/usr/bin/env python3
"""Walk through the two-outcome worked example end to end.

Builds the assessment {{g1, 0}, {g2, 0}} with g1 = (1, -1), g2 = (-1, 2),
asks whether {g1 + g2} belongs to its natural extension, and prints the
per-picking evidence plus the cross-checks of the other two formulations and
the exhaustive oracle, then the evidence in the ``"sequences"`` form that
``in-ext`` writes.
"""

import json

from gamblesets import (
    Assessment,
    DFamilySpec,
    GambleSet,
    brute_ext_contains,
    ext_contains,
    ext_contains_indicator,
    ext_contains_split,
    gamble,
    is_consistent,
    k_family_contains,
    verify_ext_answer,
    zero,
)
from gamblesets.cli import _evidence_entries
from gamblesets.gambles import PossibilitySpace


def main() -> None:
    space = PossibilitySpace(("heads", "tails"))
    g1 = gamble(space, ["1", "-1"])
    g2 = gamble(space, ["-1", "2"])
    z = zero(space)
    assessment = Assessment.build(
        space, [GambleSet.build(space, (g1, z)), GambleSet.build(space, (g2, z))]
    )
    candidate = GambleSet.build(space, (g1 + g2,))

    print(f"assessment consistent: {is_consistent(assessment)}")
    answer = ext_contains(assessment, candidate)
    print(f"{candidate.serialized()} in the natural extension: {answer.member}")
    for seq, evidence in answer.per_sequence.items():
        picked = [x.serialized() for x in seq]
        if evidence.gamble is not None:
            print(f"  picking {picked}: hit via {evidence.gamble.serialized()}")
        else:
            print(f"  picking {picked}: skipped (mutually incompatible)")
    print(f"certificates verify: {verify_ext_answer(answer, candidate)}")

    print("cross-checks:")
    print(f"  split formulation:     {ext_contains_split(assessment, candidate).member}")
    print(f"  indicator formulation: {ext_contains_indicator(assessment, candidate).member}")
    print(f"  exhaustive search:     {brute_ext_contains(assessment, candidate)}")
    family = k_family_contains(DFamilySpec(assessment.sets), candidate)
    print(f"  cone-family semantics: {family == answer.member}")

    payload = {"sequences": _evidence_entries(answer.per_sequence.items())}
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main()
