import pytest

from conftest import AB, g, gset
from differential import derivation_check, fm_posi_check, tagged, tier1_run
from gamblesets import (
    DerivationTrace,
    DominanceError,
    TraceError,
    addpair_derive,
    dom_from_add_check,
    verify_trace,
)
from gamblesets.axioms import DerivationStep, PairWitness


class TestAddpairDerive:
    def test_single_set_doubling(self):
        a = g(1, 0)
        trace = addpair_derive([gset(a)], {(a,): g(2, 0)})
        verify_trace(trace, [gset(a)], target=gset(g(2, 0)), posi_check=fm_posi_check)
        assert [s.rule for s in trace.steps] == ["given", "pair-add"]

    def test_two_singletons_summed(self):
        a, b = g(1, 0), g(0, 1)
        trace = addpair_derive([gset(a), gset(b)], {(a, b): g(1, 1)})
        verify_trace(
            trace, [gset(a), gset(b)], target=gset(g(1, 1)), posi_check=fm_posi_check
        )

    def test_mixed_sets(self):
        g1, h, g2 = g(1, -1), g(0, 1), g(-1, 2)
        comb = {(g1, g2): g1 + g2, (h, g2): h + g2}
        trace = addpair_derive([gset(g1, h), gset(g2)], comb)
        verify_trace(
            trace,
            [gset(g1, h), gset(g2)],
            target=gset(g(0, 1), g(-1, 3)),
            posi_check=fm_posi_check,
        )

    def test_rejects_values_outside_the_hull(self):
        a = g(1, 0)
        with pytest.raises(ValueError):
            addpair_derive([gset(a)], {(a,): g(0, 1)})

    def test_rejects_partial_combination_maps(self):
        a, b = g(1, 0), g(0, 1)
        with pytest.raises(ValueError):
            addpair_derive([gset(a, b)], {(a,): a})

    def test_verifier_catches_tampering(self):
        a = g(1, 0)
        trace = addpair_derive([gset(a)], {(a,): g(2, 0)})
        tampered = trace.steps[-1].pairs[0]
        object.__setattr__(tampered, "result", g(0, 5))
        with pytest.raises(TraceError):
            verify_trace(trace, [gset(a)], posi_check=fm_posi_check)


class TestDomFromAdd:
    def test_identity_dominator_needs_no_singletons(self):
        a = g(1, -1)
        inst = dom_from_add_check(gset(a), {a: a})
        assert inst.sets == (gset(a),)
        assert inst.conclusion == gset(a)
        inst.validate(posi_check=fm_posi_check)

    def test_single_lift(self):
        a = g(1, -1)
        inst = dom_from_add_check(gset(a), {a: g(1, 0)})
        assert gset(g(0, 1)) in inst.sets
        inst.validate(posi_check=fm_posi_check)
        trace = inst.to_trace()
        verify_trace(trace, list(inst.sets), target=inst.conclusion, posi_check=fm_posi_check)

    def test_two_lifts(self):
        a, b = g(1, -1), g(-1, 2)
        inst = dom_from_add_check(gset(a, b), {a: g(2, -1), b: g(-1, 3)})
        assert gset(g(1, 0)) in inst.sets and gset(g(0, 1)) in inst.sets
        assert inst.conclusion == gset(g(2, -1), g(-1, 3))
        inst.validate(posi_check=fm_posi_check)
        trace = inst.to_trace()
        verify_trace(trace, list(inst.sets), target=inst.conclusion, posi_check=fm_posi_check)

    def test_rejects_nondominating_maps(self):
        a = g(1, -1)
        with pytest.raises(DominanceError):
            dom_from_add_check(gset(a), {a: g(0, -2)})
        with pytest.raises(ValueError):
            dom_from_add_check(gset(a), {g(0, 0): g(1, 1)})


# The derivation run checks every trace with elimination deciding each pair
# step (differential.derivation_check).


def test_seeded_addition_traces_verify_end_to_end():
    faults, counts = tier1_run(derivation_check)
    assert tagged(faults, "addition") == [] and counts["addition"] == 50


def test_seeded_dominator_instances_verify():
    # Each instance is one that dom_from_add_check rewrites as an addition
    # instance.
    faults, counts = tier1_run(derivation_check)
    assert tagged(faults, "dominators") == [] and counts["dominators"] == 50


# Traces that break one rule each, over S = (a, b) with {(1, 0)} given (a
# pair outside its hull is caught above). The two "cites itself" traces
# derive a set outside every coherent extension: Python reads step -1 as
# the last step, which is the step itself.
A = g(1, 0)
GIVEN = DerivationStep("given", gset(A))
DOUBLE = PairWitness(A, A, g(2, 0))
BROKEN_TRACES = [
    pytest.param([DerivationStep("given", gset(g(0, 1)))], None, "never given", id="not-given"),
    pytest.param(
        [GIVEN, DerivationStep("superset", gset(g(-5, -5)), parent=-1)],
        gset(g(-5, -5)), "parent must be earlier", id="superset-cites-itself",
    ),
    pytest.param(
        [GIVEN, DerivationStep("superset", gset(A), parent=1)],
        None, "parent must be earlier", id="superset-cites-a-later-step",
    ),
    pytest.param(
        [GIVEN, DerivationStep("superset", gset(A))],
        None, "parent must be earlier", id="superset-without-parent",
    ),
    pytest.param(
        [GIVEN, DerivationStep("superset", gset(g(0, 1)), parent=0)],
        None, "not a superset", id="not-a-superset",
    ),
    pytest.param(
        [
            GIVEN,
            DerivationStep(
                "pair-add", gset(g(-1, -1)), left=-1, right=-1,
                pairs=(PairWitness(g(-1, -1), g(-1, -1), g(-1, -1)),),
            ),
        ],
        gset(g(-1, -1)), "inputs must be earlier steps", id="pair-add-cites-itself",
    ),
    pytest.param(
        [GIVEN, DerivationStep("pair-add", gset(g(2, 0)), left=0, right=1, pairs=(DOUBLE,))],
        None, "inputs must be earlier steps", id="pair-add-cites-a-later-step",
    ),
    pytest.param(
        [GIVEN, DerivationStep("pair-add", gset(g(2, 0)), left=0, pairs=(DOUBLE,))],
        None, "inputs must be earlier steps", id="pair-add-without-right",
    ),
    pytest.param(
        [GIVEN, DerivationStep("pair-add", gset(), left=0, right=0)],
        None, "do not cover the product", id="pairs-miss-the-product",
    ),
    pytest.param(
        [GIVEN, DerivationStep("pair-add", gset(g(3, 0)), left=0, right=0, pairs=(DOUBLE,))],
        None, "mismatches its pairs", id="result-mismatch",
    ),
    pytest.param(
        [GIVEN, DerivationStep("negate", gset(g(-1, 0)), parent=0)],
        None, "unknown rule", id="unknown-rule",
    ),
    pytest.param(
        [GIVEN, DerivationStep("pair-add", gset(g(2, 0)), left=0, right=0, pairs=(DOUBLE,))],
        gset(g(3, 0)), "does not end at the expected set", id="wrong-target",
    ),
    pytest.param([], gset(A), "does not end at the expected set", id="no-steps-with-a-target"),
]


@pytest.mark.parametrize("steps, target, message", BROKEN_TRACES)
def test_verify_trace_rejects_each_broken_rule(steps, target, message):
    trace = DerivationTrace(AB, steps)
    with pytest.raises(TraceError, match=message):
        verify_trace(trace, [gset(A)], target=target, posi_check=fm_posi_check)


def test_verify_trace_accepts_a_superset_step_onto_the_same_set():
    # Every set is a superset of itself, so a superset step may restate its
    # parent; a verifier that asks for a proper superset rejects this trace.
    trace = DerivationTrace(AB, [GIVEN, DerivationStep("superset", gset(A), parent=0)])
    verify_trace(trace, [gset(A)], target=gset(A), posi_check=fm_posi_check)
