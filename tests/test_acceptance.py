"""End-to-end acceptance suite.

Each test covers one release criterion at full scale and prints a PASS line;
run with ``pytest -s tests/test_acceptance.py`` to see the report. Expected
values labelled "derived" in comments were computed with the elimination
oracle (`fm_*`), never with the engine under test.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import AB, G1, G2, WORKED, Z, axiom_sets, family_contains, gset, seeded_assessment
from differential import cone_disagreements, fm_posi_check
from gamblesets import (
    Assessment,
    ConeGenerators,
    DFamilySpec,
    FinGenD,
    GambleSet,
    addpair_derive,
    brute_ext_contains,
    certificate_valid,
    d_coherent,
    desext_contains,
    desext_contains_strict,
    dom_from_add_check,
    ext_contains,
    ext_contains_indicator,
    ext_contains_split,
    gamble,
    is_consistent,
    k_family_contains,
    verify_ext_answer,
    verify_trace,
    zero_in_desext,
)
from gamblesets.gambles import combination, random_gamble
from gamblesets.oracle import default_space, random_gamble_set


def _report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_cone_engine_matches_elimination_oracle():
    rng = random.Random(10001)
    start = time.time()
    disagreements = 0
    for _ in range(500):
        space = default_space(rng.randint(1, 4))
        gens = tuple(random_gamble(rng, space, 3) for _ in range(rng.randint(0, 4)))
        f = random_gamble(rng, space, 3)
        disagreements += len(cone_disagreements(ConeGenerators.build(space, gens), f))
    elapsed = time.time() - start
    assert disagreements == 0
    assert elapsed < 60, f"cone sweep took {elapsed:.1f}s"
    _report("1 oracle equivalence (500 instances, %.1fs)" % elapsed)


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
    _report("2 worked natural-extension instance")


def test_criterion_3_figure_pair_forces_zero_into_the_cone():
    pair = (gamble(AB, ["-17/10", "4/5"]), gamble(AB, ["1", "-11/10"]))
    E = ConeGenerators.build(AB, pair)
    cert = zero_in_desext(E)
    assert cert is not None
    assert certificate_valid(cert, E, Z)
    # The optimal vertex of the normalised zero LP, as coprime integers:
    # 11 a1 + 8 c2 = (-107/10, 0).
    assert cert.lambdas == (Fraction(11), Fraction(8))
    _report("3 figure coordinates collapse to inconsistency, certificate verified")


def test_criterion_4_extension_satisfies_all_six_axioms():
    rng = random.Random(10004)
    start = time.time()
    assessments = []
    while len(assessments) < 100:
        space = default_space(rng.randint(1, 3))
        assessment = seeded_assessment(rng, space, 3, 3, 2)
        if is_consistent(assessment):
            assessments.append(assessment)
    failures = []
    for i, assessment in enumerate(assessments):
        for axiom in ("no-empty-set", "drop-zero", "weak-positive", "superset", "dominators",
                      "addition"):
            for s in axiom_sets(assessment, axiom, seed=i, trials=20):
                if ext_contains(assessment, s).member is (axiom == "no-empty-set"):
                    failures.append((i, axiom, s.serialized()))
    elapsed = time.time() - start
    assert not failures, failures
    assert elapsed < 300, f"axiom sweep took {elapsed:.1f}s"
    _report(
        "4 coherence axioms (100 assessments x 6 axioms x 20 trials, %.1fs)" % elapsed
    )


def test_criterion_5_full_list_decision_matches_exhaustive_search():
    rng = random.Random(10005)
    disagreements = 0
    for _ in range(200):
        space = default_space(rng.randint(1, 3))
        if rng.random() < 0.05:
            assessment = Assessment.build(space, [])
        else:
            assessment = seeded_assessment(rng, space, 3, 2, 2)
        candidate = random_gamble_set(rng, space, rng.randint(0, 2), 2)
        engine = ext_contains(assessment, candidate).member
        exhaustive = brute_ext_contains(assessment, candidate)
        if engine != exhaustive:
            disagreements += 1
    assert disagreements == 0
    _report("5 full-list sufficiency gate (200 instances)")


def test_criterion_6_three_formulations_agree():
    rng = random.Random(10006)
    disagreements = 0
    for _ in range(300):
        space = default_space(rng.randint(1, 3))
        if rng.random() < 0.05:
            assessment = Assessment.build(space, [])
        else:
            assessment = seeded_assessment(rng, space, 3, 3, 2)
        candidate = random_gamble_set(rng, space, rng.randint(0, 3), 2)
        a = ext_contains(assessment, candidate).member
        b = ext_contains_split(assessment, candidate).member
        c = ext_contains_indicator(assessment, candidate).member
        if not (a == b == c):
            disagreements += 1
    assert disagreements == 0
    _report("6 three-formulation agreement (300 instances)")


def _sample_cone(rng, space, max_gens=3) -> FinGenD:
    while True:
        gens = [random_gamble(rng, space, 2) for _ in range(rng.randint(0, max_gens))]
        E = ConeGenerators.build(space, gens)
        if d_coherent(E):
            return FinGenD(E)


def test_criterion_7_representation_at_finitary_scale():
    rng = random.Random(10007)
    found = 0
    while found < 200:
        space = default_space(rng.randint(1, 3))
        assessment = seeded_assessment(rng, space, 3, 2, 2)
        if not is_consistent(assessment):
            continue
        found += 1
        candidate = random_gamble_set(rng, space, rng.randint(0, 2), 2)
        family = k_family_contains(DFamilySpec(assessment.sets), candidate)
        assert family == ext_contains(assessment, candidate).member, candidate.serialized()

    triples = 0
    while triples < 100:
        space = default_space(rng.randint(1, 2))
        fams = []
        for _ in range(2):
            sets = tuple(
                random_gamble_set(rng, space, rng.randint(1, 2), 2)
                for _ in range(rng.randint(1, 2))
            )
            if any(s.is_empty for s in sets):
                break
            fams.append(DFamilySpec(sets))
        if len(fams) < 2:
            continue
        triples += 1
        D = _sample_cone(rng, space)
        if family_contains(DFamilySpec(fams[0].sets + fams[1].sets), D):
            assert family_contains(fams[0], D) and family_contains(fams[1], D)
    _report("7 representation agreement (200) and downward closure (100)")


def test_criterion_8_derivation_engines_produce_verified_traces():
    rng = random.Random(10008)
    for _ in range(50):
        space = default_space(rng.randint(1, 3))
        sets = []
        for _ in range(rng.randint(1, 3)):
            members = [random_gamble(rng, space, 2) for _ in range(rng.randint(1, 3))]
            sets.append(GambleSet.build(space, members))
        comb = {}
        for seq in itertools.product(*(s.members for s in sets)):
            while True:
                coeffs = tuple(Fraction(rng.randint(0, 2)) for _ in seq)
                if any(coeffs):
                    break
            comb[seq] = combination(coeffs, seq, space)
        trace = addpair_derive(sets, comb)
        target = GambleSet.build(space, comb.values())
        verify_trace(trace, sets, target=target, posi_check=fm_posi_check)

    for _ in range(50):
        space = default_space(rng.randint(1, 3))
        members = [random_gamble(rng, space, 2) for _ in range(rng.randint(1, 3))]
        A = GambleSet.build(space, members)
        lifts = {}
        for m in A.members:
            bump = tuple(Fraction(rng.randint(0, 2)) for _ in space.labels)
            lifts[m] = m + gamble(space, bump)
        instance = dom_from_add_check(A, lifts)
        instance.validate(posi_check=fm_posi_check)
        trace = instance.to_trace()
        verify_trace(
            trace, list(instance.sets), target=instance.conclusion, posi_check=fm_posi_check
        )
    _report("8 derivation engines (50 + 50 machine-verified traces)")


def test_criterion_9_inconsistency_absorbs_every_set():
    rng = random.Random(10009)
    found = 0
    while found < 50:
        space = default_space(rng.randint(1, 3))
        if rng.random() < 0.5:
            # plant a nonpositive singleton, which skips every picking
            values = tuple(Fraction(-rng.randint(0, 2)) for _ in space.labels)
            planted = GambleSet.build(space, (gamble(space, values),))
            base = seeded_assessment(rng, space, 2, 2, 2)
            assessment = Assessment.build(space, base.sets + (planted,))
        else:
            assessment = seeded_assessment(rng, space, 3, 2, 2)
        if is_consistent(assessment):
            continue
        found += 1
        assert ext_contains(assessment, GambleSet.build(space, ())).member
        for _ in range(10):
            candidate = random_gamble_set(rng, space, rng.randint(0, 3), 2)
            assert ext_contains(assessment, candidate).member
    _report("9 inconsistency semantics (50 assessments x 11 memberships)")


def test_criterion_10_strict_mode_matches_its_oracle():
    rng = random.Random(10010)
    disagreements = 0
    for _ in range(200):
        space = default_space(rng.randint(1, 3))
        gens = tuple(random_gamble(rng, space, 3) for _ in range(rng.randint(0, 3)))
        f = random_gamble(rng, space, 3)
        E = ConeGenerators.build(space, gens)
        disagreements += len(cone_disagreements(E, f))
        if desext_contains_strict(E, f) is not None and desext_contains(E, f) is None:
            disagreements += 1
    assert disagreements == 0
    _report("10 strict mode vs oracle, strict implies weak (200 instances)")


def test_criterion_11_cli_output_is_byte_identical(tmp_path):
    instance = {
        "schema": "desir/1",
        "omega": ["a", "b"],
        "gambles": {
            "g1": ["1", "-1"],
            "g2": ["-1", "2"],
            "zero": [0, 0],
            "sum": ["0", "1"],
            "a1": ["-17/10", "4/5"],
            "c2": ["1", "-11/10"],
        },
        "assessment": [["g1", "zero"], ["g2", "zero"]],
        "query": {
            "kind": "in-extension",
            "set": ["sum"],
            "generators": ["a1", "c2"],
            "gamble": "sum",
        },
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance), encoding="utf-8")

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "gamblesets", *args], capture_output=True, timeout=300
        )

    commands = [
        ["consistency", str(path)],
        ["in-ext", str(path)],
        ["in-ext", str(path), "--strict"],
        ["in-desext", str(path)],
        ["zero-in-desext", str(path)],
        ["coherent-d", str(path)],
        ["equiv", str(path)],
        ["repr", str(path)],
        ["gen", "--seed", "21"],
        ["selftest", "--seed", "9", "--trials", "10"],
    ]
    for args in commands:
        first, second = run(args), run(args)
        assert first.returncode == 0 and second.returncode == 0, (args, first.stderr)
        assert first.stdout == second.stdout and first.stdout, args
    _report("11 deterministic command-line output")
