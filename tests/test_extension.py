import random
from fractions import Fraction

import pytest

from conftest import AB, G1, G2, WORKED, Z, g, gset
from differential import (
    ANSWER_KINDS,
    FORMULATIONS,
    MODES,
    REDUCTION_KINDS,
    REFUTATION_KINDS,
    closure_check,
    counted_walk,
    counting,
    extension_check,
    forgeries,
    forgery_check,
    tagged,
    tier1_run,
    walk_check,
)
from gamblesets import (
    Assessment,
    CapExceeded,
    ConeGenerators,
    DimensionMismatch,
    Gamble,
    GambleSet,
    closure_holds,
    desext_contains,
    ext_contains,
    ext_contains_indicator,
    ext_contains_split,
    extension,
    is_consistent,
    proofs,
    verify_ext_answer,
    zero_in_desext,
)
from gamblesets.oracle import (
    InstanceGenConfig,
    default_space,
    gen_instance,
    random_gamble_set,
)


class TestClosureHolds:
    def test_skip_and_hit_mix(self):
        answer = closure_holds([gset(G1, Z), gset(G2, Z)], gset(g(0, 1)))
        assert answer.member
        kinds = {
            frozenset(seq): ev.gamble for seq, ev in answer.per_sequence.items()
        }
        assert kinds[frozenset((G1, G2))] == g(0, 1)
        skips = [k for k, v in kinds.items() if v is None]
        # (0, 1) is weakly positive, so the empty prefix hits every picking.
        assert len(kinds) == 4 and set(kinds.values()) == {g(0, 1)}
        assert len(skips) == 0 and all(Z in k for k in skips)

    def test_candidate_equal_to_the_single_choice(self):
        answer = closure_holds([gset(g(0, 1))], gset(g(0, 1)))
        assert answer.member
        (ev,) = answer.per_sequence.values()
        assert ev.gamble == g(0, 1)

    def test_all_skip_against_empty_candidate(self):
        answer = closure_holds([gset(g(-1, -1))], gset())
        assert answer.member
        (ev,) = answer.per_sequence.values()
        assert ev.gamble is None

    def test_empty_member_set_is_vacuous(self):
        answer = closure_holds([gset()], gset())
        assert answer.member and not answer.per_sequence

    def test_needs_a_set(self):
        with pytest.raises(ValueError):
            closure_holds([], gset())


class TestExtContains:
    def test_empty_assessment_weakly_positive(self):
        empty = Assessment.build(AB, [])
        assert ext_contains(empty, gset(g(1, 0))).member
        assert not ext_contains(empty, gset(g(-1, 1))).member
        assert not ext_contains(empty, gset()).member

    def test_worked_instance(self):
        answer = ext_contains(WORKED, gset(g(0, 1)))
        assert answer.member
        assert verify_ext_answer(answer, gset(g(0, 1)))

    def test_nonmember_with_failing_sequence(self):
        assessment = Assessment.build(AB, [gset(G1)])
        answer = ext_contains(assessment, gset(g(-1, 1)))
        assert not answer.member
        assert answer.failed_sequence == (G1,)

    def test_dimension_mismatch(self):
        other = default_space(3)
        with pytest.raises(DimensionMismatch):
            ext_contains(WORKED, GambleSet.build(other, ()))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            ext_contains(WORKED, gset(g(0, 1)), cap=3)


class TestConsistency:
    def test_examples(self):
        assert is_consistent(Assessment.build(AB, []))
        assert not is_consistent(Assessment.build(AB, [gset(g(-1, -1))]))
        assert not is_consistent(Assessment.build(AB, [gset()]))
        assert is_consistent(WORKED)


class TestStrictMode:
    def test_empty_assessment(self):
        empty = Assessment.build(AB, [])
        assert not ext_contains(empty, gset(g(1, 0)), strict=True).member
        assert ext_contains(empty, gset(g(1, 1)), strict=True).member

    def test_worked_instance_strict(self):
        from gamblesets import fm_desext_contains_strict

        answer = ext_contains(WORKED, gset(g(0, 1)), strict=True)
        # derived per picking from the elimination oracle
        for seq, ev in answer.per_sequence.items():
            if ev.gamble is not None:
                assert fm_desext_contains_strict(tuple(set(seq)), ev.gamble)
            else:
                assert fm_desext_contains_strict(tuple(set(seq)), Z)
        assert answer.member
        assert verify_ext_answer(answer, gset(g(0, 1)))


def test_worked_instance_with_zero_added():
    candidate = gset(Z, g(0, 1))
    answer = ext_contains(WORKED, candidate)
    assert answer.member and verify_ext_answer(answer, candidate)


# The natural extension is a closure, weak and strict, every answer verified,
# on one run (differential.closure_check).


def assert_closure(checks, **floors):
    """The closure run has no fault of ``checks``, nor an answer that fails
    to verify, in either mode, and each count meets its floor in both."""
    faults, counts = tier1_run(closure_check)
    assert [why for check in (*checks, "verify") for why in tagged(faults, check)] == []
    for mode in MODES:
        assert all(counts[mode][key] >= floor for key, floor in floors.items()), counts[mode]


def test_candidate_zero_padding_never_changes_the_answer():
    # A hit on the zero gamble can only stand where a skip already applies,
    # and skips are preferred, so zero never appears as a hit witness.
    assert_closure(["padding"], draws=40)


def test_membership_invariant_under_input_order():
    sets = [gset(G1, Z), gset(G2, Z)]
    candidate = gset(g(0, 1))
    forward = closure_holds(sets, candidate)
    backward = closure_holds(list(reversed(sets)), candidate)
    assert forward.member == backward.member
    reshuffled = [GambleSet.build(AB, reversed(s.members)) for s in sets]
    assert closure_holds(reshuffled, candidate).member == forward.member


def test_duplicate_sets_collapse():
    s = gset(G1, Z)
    once = Assessment.build(AB, [s])
    twice = Assessment.build(AB, [s, s, GambleSet.build(AB, reversed(s.members))])
    assert once == twice


def test_extension_is_monotone_in_the_assessment():
    assert_closure(["monotone"], draws=40)


def test_adding_a_member_never_changes_the_extension():
    # Idempotence: each of 25 members of a consistent assessment's extension,
    # added to the assessment, changes the answer for none of the draw's 10
    # probes.
    assert_closure(["idempotent"], members=25)


def test_assessment_members_always_belong():
    assert_closure(["belongs"], draws=25)


def test_skip_evidence_matches_direct_zero_test():
    answer = ext_contains(WORKED, gset(g(0, 1)))
    for seq, ev in answer.per_sequence.items():
        E = ConeGenerators.build(AB, seq)
        if ev.gamble is None:
            assert zero_in_desext(E) is not None
        else:
            assert desext_contains(E, ev.gamble) is not None


# Prefix-tree enumeration: a prefix that skips or hits settles its subtree.


def test_prefix_hit_settles_its_subtree():
    # (2, -1) dominates G1, so the prefix (G1,) hits both of its pickings,
    # including (G1, Z), which also skips; (Z,) skips both of its own.
    answer = closure_holds([gset(G1, Z), gset(G2, Z)], gset(g(2, -1)))
    assert answer.member
    evidence = answer.per_sequence
    kinds = {seq: ev.gamble for seq, ev in evidence.items()}
    hit = g(2, -1)
    assert kinds == {(Z, G2): None, (Z, Z): None, (G1, G2): hit, (G1, Z): hit}
    lifted = evidence[(G1, Z)].certificate
    assert lifted.lambdas[1:] == (0,) and lifted.lambdas[0] > 0
    assert verify_ext_answer(answer, gset(g(2, -1)))


def _dominators_instances(rng, count):
    """Consistent assessments of four sets of three gambles over three atoms,
    each with a candidate that dominates its first set."""
    space = default_space(3)
    found = 0
    while found < count:
        sets = [random_gamble_set(rng, space, 3, 2) for _ in range(4)]
        assessment = Assessment.build(space, sets)
        if {len(s.members) for s in assessment.sets} != {3} or not is_consistent(assessment):
            continue
        candidate = GambleSet.build(
            space,
            (f + Gamble(space, tuple(Fraction(rng.randint(0, 1)) for _ in space.labels))
             for f in assessment.sets[0].members),
        )
        found += 1
        yield assessment, candidate


def test_dominators_candidate_settles_at_the_first_level():
    rng = random.Random(31)
    for assessment, candidate in _dominators_instances(rng, 5):
        first = assessment.sets[0]
        answer, calls = counted_walk(assessment, candidate)
        pickings = 3 ** 4
        assert answer.member and len(answer.per_sequence) == pickings
        # The root and the first level only: one skip test and at most one
        # hit test per candidate member at each.
        assert calls <= (1 + len(first.members)) * (1 + len(candidate.members))
        assert calls < pickings
        assert verify_ext_answer(answer, candidate)


# The walk's shortcuts (dropped members, refutations passed down the tree,
# nodes that are the first prefix to settle, certificates lifted onto every
# full picking) against the reference walks without them, in both modes, on
# one run (differential.walk_check).


def assert_walk(modes, checks, **floors):
    """The walk run has no fault of ``checks`` in ``modes``, and each count
    meets its floor in each mode."""
    faults, counts = tier1_run(walk_check)
    assert [why for mode in modes for check in checks for why in tagged(faults, mode, check)] == []
    for mode in modes:
        assert all(counts[mode][key] >= floor for key, floor in floors.items()), counts[mode]


@pytest.mark.parametrize("strict", [False, True])
def test_reduction_keeps_every_decision(strict):
    # The walk over the kept sets decides as the walk over the full sets, and
    # its answer verifies.
    assert_walk([("weak", "strict")[strict]], ("decision", "verify"), reduced=150)


def test_a_cover_node_is_the_first_prefix_that_settles():
    # The walk tests every prefix it reaches, so the prefix just above a node
    # neither skips nor hits: a node settles where the walk first could.
    assert_walk(("weak", "strict"), ("first",), members=125)


def test_failed_sequence_is_the_first_failing_picking_of_the_kept_members():
    # A "no" records no cover, reduction or evidence: its failed picking, the
    # first of the kept members that fails by elimination, is its whole
    # proof. Dropped members come first in some pickings, so the walk over
    # the full sets stops earlier there.
    assert_walk(["weak"], ("failed",), negatives=25, failed_moved=3)


def test_refutations_flow_without_changing_answers():
    # A failed test's dual vector flows down the tree and settles the
    # children's failing tests without a cone call. Only failing tests are
    # left out, so the answer, its cover and failed picking are the plain
    # walk's, with fewer tests; a weak "no" carries refutations that refute.
    assert_walk(["weak"], ("reference", "failed", "tests"), negatives=20)


def test_strict_walk_leaves_out_the_tests_weak_refutations_fail():
    # Every strict member is a weak member, so a weak refutation fails the
    # strict test too. The strict walk hands the weak refutations down, makes
    # the same decisions as a walk without them, and records none.
    assert_walk(["strict"], ("reference", "failed", "tests"), negatives=20)


@pytest.mark.parametrize("strict", [False, True])
def test_lifted_certificates_hold_over_every_full_picking(strict):
    # A "yes" lists every full picking in canonical order, each with a
    # certificate valid in its mode; a coefficient on a dropped member was
    # moved there from its keeper.
    assert_walk([("weak", "strict")[strict]], ("lifted",), lifted=20, moved=20)


def test_strict_lifted_certificates_verify():
    # Most pickings are settled at a prefix, so most certificates are lifted.
    assert_walk(["strict"], ("lifted", "verify"), fewer=20)


def test_verify_checks_negative_answers_of_every_formulation():
    # A "no" records no cover. A weak "no" stands on its failed picking
    # alone: each other picking that fails by elimination, with the engine's
    # refutations there, proves it too (differential.forgery_check).
    faults, counts = tier1_run(forgery_check)
    assert tagged(faults, "honest") == [] and tagged(faults, "negative") == []
    assert min(counts["negatives"].values()) >= 10 and sum(counts["moved"].values()) >= 10


def test_formulations_match_exhaustive_search_in_both_modes():
    # The walk, weak and strict, and the split and indicator formulations
    # against exhaustive search in each mode, every answer verified
    # (differential.extension_check), over assessments of 1-3 sets, of four
    # or five sets, and of none.
    faults, counts = tier1_run(extension_check)
    assert faults == [] and counts["deep"] == 12 and counts["no_sets"] > 0


# The verifier checks a "yes" cover node by node: the nodes' intervals of the
# canonical product must follow each other from the first picking to the
# end, and each certificate is substituted once. A "no" records no cover.


@pytest.mark.parametrize("formulation", sorted(FORMULATIONS))
def test_tampered_covers_are_rejected(formulation):
    # Every answer of the formulation on the forgery run, and the same answer
    # in the leaf form in-ext writes, forged every way
    # differential.forgeries can (differential.forgery_check). Only the
    # engine's own walk reduces the sets first, and only a weak "no" records
    # refutations.
    faults, counts = tier1_run(forgery_check)
    assert tagged(faults, formulation) == []
    forged = counts["forged"][formulation]
    names = ANSWER_KINDS
    if formulation in ("weak", "strict"):
        names += REDUCTION_KINDS
        # Every drop is forged at least four ways: its keeper made the
        # dropped member itself, and a keeper, dropped member and set out
        # of range.
        drops = counts["drops"][formulation]
        assert drops >= 5 and sum(forged[name] for name in REDUCTION_KINDS) >= 4 * drops
    if formulation != "strict":
        names += REFUTATION_KINDS
    assert min(forged[name] for name in names) >= 5, forged
    # Evidence borrowed from a node of another length whose coefficients sum
    # alike over the borrower's gambles: a check that does not count the
    # gambles would accept it. Leaves below one node share its evidence,
    # lifted to each picking's length, so the leaf form makes most of them.
    assert counts["other_length"][formulation] >= 5


# The reduction: a member b whose cone holds another kept member a is dropped
# before the walk, and a "yes" lifts its certificates back onto every
# picking with b, by substituting a = lambda b + w.


@pytest.mark.parametrize("strict", [False, True])
def test_evidence_without_a_certificate_proves_no_yes(strict):
    # With neither certificate nor refutation, evidence reads as a cone "no",
    # which holds in strict mode and over no generators; a node or a drop
    # without a certificate proves nothing (``uncertified``, which forges
    # every node and every drop of a "yes": differential.forgery_check).
    mode = ("weak", "strict")[strict]
    faults, counts = tier1_run(forgery_check)
    assert tagged(faults, mode, "honest") == [] and tagged(faults, mode, "uncertified") == []
    assert counts["forged"][mode]["uncertified"] >= 5 and counts["drops"][mode] >= 5


def test_reduction_keeps_the_first_of_equivalent_members():
    # (1, -1) and (2, -2) lie in each other's cone: the earlier is kept. A
    # weakly positive member lies in every cone, so its set keeps only it.
    half, double = g(1, -1), g(2, -2)
    sets = (gset(double, half), gset(g(-1, 2), g(1, 0), g(0, 1)))
    kept, drops = extension._reduction(sets, False)
    assert [s.members for s in kept] == [(half,), (g(0, 1),)]
    assert [(d, b, a, c.lambdas) for d, b, a, c in drops] == [
        (0, 1, 0, (Fraction(1, 2),)), (1, 0, 1, (0,)), (1, 2, 1, (0,))
    ]
    # In strict mode (0, 1) is not positive, so (1, 0) stays; (-1, 2) goes,
    # as (0, 1) = lambda (-1, 2) + w with w > 0 for a small lambda > 0.
    kept, _ = extension._reduction(sets, True)
    assert [s.members for s in kept] == [(half,), (g(0, 1), g(1, 0))]


def test_reduction_keeps_a_set_whole_past_the_full_product(monkeypatch):
    # 40 members cost 40 * 39 cone tests, more than the 80 pickings of the
    # whole product, so the set is kept whole; the pair costs 2 and is reduced.
    rng = random.Random(18)
    space = default_space(4)
    big = random_gamble_set(rng, space, 60, 3)
    big = GambleSet(space, big.members[:40])
    pair = GambleSet.build(space, [Gamble(space, (1, -1, 0, 0)), Gamble(space, (2, -2, 0, 0))])
    assessment = Assessment.build(space, [big, pair])
    tested = []

    def counted(E, f):
        tested.append(E.generators)
        return desext_contains(E, f)

    monkeypatch.setattr(extension.cones, "desext_contains", counted)
    extension._reduction.cache_clear()
    kept, drops = extension._reduction(assessment.sets, False)
    monkeypatch.undo()
    extension._reduction.cache_clear()
    assert len(big.members) == 40 and big in kept
    assert not any(b in big for (b,) in tested) and len(tested) == 2
    assert [(d, b, a) for d, b, a, _ in drops] == [(assessment.sets.index(pair), 1, 0)]
    for candidate in (GambleSet.build(space, ()), GambleSet.build(space, [big.members[0]])):
        answer = ext_contains(assessment, candidate)
        full = extension.settle_pickings(space, assessment.sets, candidate, *MODES["weak"][:2])
        assert answer.member == full.member
        assert verify_ext_answer(answer, candidate)


def test_cap_bounds_the_full_product():
    # {(1, 1), G1} keeps only (1, 1), so the walk has 2 pickings of 4.
    assessment = Assessment.build(AB, [gset(g(1, 1), G1), gset(G2, Z)])
    candidate = gset(g(0, 1))
    kept, _ = extension._reduction(assessment.sets, False)
    assert sorted(len(s.members) for s in kept) == [1, 2]
    with pytest.raises(CapExceeded, match="4 pickings exceed the cap of 3"):
        ext_contains(assessment, candidate, cap=3)
    answer = ext_contains(assessment, candidate, cap=4)
    assert answer.member and len(answer.per_sequence) == 4


def test_member_decides_and_verifies_without_expanding(monkeypatch):
    # ω=6, ten sets of three: 59,049 pickings, settled by a handful of nodes.
    def expanded(*args):
        raise AssertionError("a picking was expanded")

    monkeypatch.setattr(proofs, "_lift", expanded)
    for seed in range(3):
        assessment, _ = gen_instance(
            InstanceGenConfig(seed, omega_size=6, num_sets=10, set_size=3, coeff_range=3)
        )
        first, second = assessment.sets[:2]
        candidate = GambleSet.build(
            assessment.space, (f + g for f in first.members for g in second.members)
        )
        answer = ext_contains(assessment, candidate)
        assert answer.member and verify_ext_answer(answer, candidate)
        assert len(answer.cover) < 20
    monkeypatch.undo()
    assert len(answer.per_sequence) == 3**10


def test_verifier_substitutes_shared_certificates_once(monkeypatch):
    rng = random.Random(31)
    for assessment, candidate in _dominators_instances(rng, 5):
        answer = ext_contains(assessment, candidate)
        calls = [0]
        monkeypatch.setattr(proofs, "certificate_valid", counting(calls, proofs.certificate_valid))
        assert verify_ext_answer(answer, candidate)
        monkeypatch.undo()
        # Each drop is one more certificate, over its one-gamble cone.
        assert calls[0] == len(answer.cover) + len(answer.reduction)
        assert len(answer.cover) < len(answer.per_sequence)


def test_forged_refutations_are_rejected():
    # Every weak "no" at a picking has its refutations forged, and
    # refutations where none are needed are rejected too, so that every
    # refutation an answer records is checked. A strict "no" is forged with
    # refutations that refute its failed picking, so that valid refutations
    # are rejected where none are needed, not only made-up ones
    # (differential.forgery_check).
    faults, counts = tier1_run(forgery_check)
    kinds = ("honest", *REFUTATION_KINDS, "needless-refutations")
    assert [why for kind in kinds for why in tagged(faults, kind)] == []
    # The weak "no"s at a picking: each is forged as it is and in leaf form.
    assert counts["forged"]["weak"]["refutation-dropped"] >= 2 * 20
    assert counts["refuting"]["strict"] >= 15


def test_a_member_answer_names_no_failed_picking():
    candidate = gset(G1 + G2)
    for decide in (ext_contains, ext_contains_split, ext_contains_indicator):
        answer = decide(WORKED, candidate)
        assert answer.member and verify_ext_answer(answer, candidate)
        named = [f for kind, f in forgeries(answer, candidate, 0)
                 if kind in ("failed", "failed-empty")]
        assert len(named) == 2
        assert not any(verify_ext_answer(forgery, candidate) for forgery in named)


def test_the_empty_picking_fails_only_without_a_positive_member():
    # With no sets the only picking is the empty one. A "no" there needs no
    # refutations, so only a positive member of the query set, which lies in
    # every cone, tells a forged "no" from an honest one (positive-member).
    empty = Assessment.build(AB, [])
    made = set()
    for strict, candidate, member in (
        (False, gset(g(1, 0)), True),
        (False, gset(g(-1, 1), Z), False),
        (True, gset(g(1, 1)), True),
        (True, gset(g(1, 0)), False),
    ):
        answer = ext_contains(empty, candidate, strict=strict)
        assert answer.member == member and answer.refutations == ()
        assert verify_ext_answer(answer, candidate)
        for kind, forged in forgeries(answer, candidate, 0):
            assert not verify_ext_answer(forged, candidate), kind
            made.add((strict, kind))
    assert {(False, "positive-member"), (True, "positive-member")} <= made
