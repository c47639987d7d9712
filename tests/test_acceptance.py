"""The release criteria, one test each.

The sampled criteria assert on the tier-1 runs of the drivers of
``tests/differential.py`` (``tier1_run``), which the test modules of each
property share, so no criterion draws instances of its own; the others
check the paper's worked instances. Expected values labelled "derived" in
comments were computed with the elimination oracle (`fm_*`), never with the
engine under test.
"""

from fractions import Fraction

from conftest import AB, G1, G2, WORKED, Z, gset
from differential import (
    AXIOMS,
    MODES,
    axiom_check,
    closure_check,
    cone_check,
    derivation_check,
    extension_check,
    representation_check,
    tagged,
    tier1_run,
)
from gamblesets import (
    ConeGenerators,
    certificate_valid,
    ext_contains,
    gamble,
    verify_ext_answer,
    zero_in_desext,
)


def test_criterion_1_cone_engine_matches_elimination_oracle():
    # 500 queries over 1-5 atoms and 0-5 generators (differential.cone_check).
    faults, counts = tier1_run(cone_check)
    assert faults == []
    assert counts["seconds"] < 60, f"cone sweep took {counts['seconds']:.1f}s"


def test_criterion_2_natural_extension_of_the_worked_pair():
    candidate = gset(G1 + G2)
    answer = ext_contains(WORKED, candidate)
    assert answer.member
    assert verify_ext_answer(answer, candidate)
    evidence = answer.per_sequence
    hits = {seq: ev for seq, ev in evidence.items() if ev.gamble is not None}
    skips = {seq: ev for seq, ev in evidence.items() if ev.gamble is None}
    # G1 + G2 = (0, 1) is weakly positive: the empty prefix settles all four
    # pickings with one hit.
    assert tuple(sorted((G1, G2), key=lambda x: x.values)) in hits
    assert set(hits) == set(evidence) and len(hits) == 4
    assert len(skips) == 0
    assert all(Z in seq for seq in skips)
    for seq, ev in skips.items():
        assert certificate_valid(ev.certificate, ConeGenerators.build(AB, seq), Z)
    for seq, ev in hits.items():
        assert certificate_valid(ev.certificate, ConeGenerators.build(AB, seq), ev.gamble)
    padded = gset(Z, G1 + G2)
    assert ext_contains(WORKED, padded).member


def test_criterion_3_figure_pair_forces_zero_into_the_cone():
    pair = (gamble(AB, ["-17/10", "4/5"]), gamble(AB, ["1", "-11/10"]))
    E = ConeGenerators.build(AB, pair)
    cert = zero_in_desext(E)
    assert cert is not None
    assert certificate_valid(cert, E, Z)
    # The optimal vertex of the normalised zero LP, as coprime integers:
    # 11 a1 + 8 c2 = (-107/10, 0).
    assert cert.lambdas == (Fraction(11), Fraction(8))


def test_criterion_4_extension_satisfies_all_six_axioms():
    # 100 assessments x 6 axioms x 20 trials (differential.axiom_check); the
    # drop-zero axiom yields two sets a trial.
    faults, counts = tier1_run(axiom_check)
    assert faults == []
    assert all(counts["sets"][axiom] >= 2000 for axiom in AXIOMS), counts["sets"]
    assert counts["seconds"] < 300, f"axiom sweep took {counts['seconds']:.1f}s"


def test_criterion_5_full_list_decision_matches_exhaustive_search():
    # The engine against exhaustive search on 300 queries, some of them over
    # no sets (differential.extension_check).
    faults, counts = tier1_run(extension_check)
    assert tagged(faults, "weak") == [] and counts["no_sets"] > 0


def test_criterion_6_three_formulations_agree():
    faults, _ = tier1_run(extension_check)
    assert [why for name in ("weak", "split", "indicator") for why in tagged(faults, name)] == []


def test_criterion_7_representation_at_finitary_scale():
    # 200 agreements and 100 downward-closure triples
    # (differential.representation_check).
    faults, counts = tier1_run(representation_check)
    assert faults == [] and counts["compared"] == 200 and counts["triples"] == 100


def test_criterion_8_derivation_engines_produce_verified_traces():
    # 50 + 50 machine-verified traces (differential.derivation_check).
    faults, counts = tier1_run(derivation_check)
    assert faults == [] and counts["addition"] == counts["dominators"] == 50


def test_criterion_9_inconsistency_absorbs_every_set():
    # The closure run's inconsistent assessments, at least 50 in each mode,
    # take the empty set and each of 10 candidate sets: each draw's
    # assessment with a weakly nonpositive singleton planted, and the drawn
    # assessment itself where it is inconsistent (differential.closure_check).
    faults, counts = tier1_run(closure_check)
    assert tagged(faults, "absorbs") == [] and tagged(faults, "verify") == []
    assert all(counts[mode]["inconsistent"] >= 50 for mode in MODES), counts


def test_criterion_10_strict_mode_matches_its_oracle():
    # Strict membership against elimination, and each strict member a weak
    # member, on the cone run (differential.cone_check).
    faults, counts = tier1_run(cone_check)
    assert faults == [] and counts["strict"] > 0
