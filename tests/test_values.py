"""Value semantics of the engine's plain value classes: equality and hashing
by field within one class, no assignment after construction, and the
exceptions the classes declare (multipliers outside LP outcome equality,
mutable and unhashable parsed instances, derivation traces and addition
instances)."""

import copy
import pickle
from fractions import Fraction

import pytest

from gamblesets.axioms import DerivationStep, DerivationTrace, KAddInstance, PairWitness
from gamblesets.cli import Instance
from gamblesets.cones import Certificate, ConeGenerators, Refutation
from gamblesets.extension import Assessment, Evidence, ExtAnswer, GambleSet
from gamblesets.gambles import Gamble, PossibilitySpace, zero
from gamblesets.oracle import InstanceGenConfig
from gamblesets.ratlp import LEQ, Infeasible, LinearProgram, Optimal, Unbounded
from gamblesets.representation import DFamilySpec, FinGenD


def space():
    return PossibilitySpace(("a", "b"))


def g(*values):
    return Gamble(space(), values)


def gset(*gambles):
    return GambleSet.build(space(), gambles)


def cert(*lambdas):
    return Certificate(tuple(map(Fraction, lambdas)), zero(space()))


# For each class, a function that builds a fresh instance from its arguments,
# and two argument tuples that differ in one compared field. Every call
# builds new field objects, so equality is never by identity.
FROZEN = {
    "LinearProgram": (
        lambda b: LinearProgram.build([1, 1], [([1, 1], LEQ, b)]), (2,), (3,),
    ),
    "Optimal": (lambda v: Optimal(Fraction(v), (Fraction(v),)), (1,), (2,)),
    "Unbounded": (lambda v: Unbounded((Fraction(0),), (Fraction(v),)), (1,), (2,)),
    "Infeasible": (lambda: Infeasible(), (), None),
    "PossibilitySpace": (lambda *labels: PossibilitySpace(labels), ("a", "b"), ("a", "c")),
    "Gamble": (g, (1, -1), (1, 1)),
    "ConeGenerators": (lambda v: ConeGenerators.build(space(), [g(v, -1)]), (1,), (2,)),
    "Certificate": (cert, (1, 2), (1, 3)),
    "Refutation": (lambda form: Refutation(form, (Fraction(1),) * 2), ("sum",), ("empty",)),
    "GambleSet": (lambda v: gset(g(v, -1), g(-1, 2)), (1,), (2,)),
    "Assessment": (lambda v: Assessment.build(space(), [gset(g(v, -1))]), (1,), (2,)),
    "Evidence": (lambda v: Evidence(None if v is None else g(0, v), cert(1)), (None,), (1,)),
    "InstanceGenConfig": (lambda seed: InstanceGenConfig(seed, num_sets=3), (1,), (2,)),
    "ExtAnswer": (lambda member: ExtAnswer(member, (gset(g(1, -1)),), ()), (True,), (False,)),
    "FinGenD": (lambda v: FinGenD(ConeGenerators.build(space(), [g(v, -1)])), (1,), (2,)),
    "DFamilySpec": (lambda v: DFamilySpec((gset(g(v, -1)), gset(g(0, 1)))), (1,), (2,)),
    "PairWitness": (lambda v: PairWitness(g(1, 0), g(0, 1), g(v, 1)), (1,), (2,)),
    "DerivationStep": (lambda v: DerivationStep("superset", gset(g(v, -1)), parent=0), (1,), (2,)),
}

# Parsed instances, derivation traces and addition instances can be assigned
# to, like the dicts and lists they hold, so they are not hashable.
MUTABLE = {
    "Instance": (
        lambda name: Instance(space(), {name: g(1, 0)}, Assessment.build(space(), []), {}),
        ("f",),
        ("h",),
    ),
    "DerivationTrace": (
        lambda v: DerivationTrace(space(), [DerivationStep("given", gset(g(v, -1)))]), (1,), (2,),
    ),
    "KAddInstance": (
        lambda v: KAddInstance((gset(g(1, 0)),), {(g(1, 0),): g(v, 0)}, gset(g(v, 0))), (2,), (3,),
    ),
}

ALL = {**FROZEN, **MUTABLE}


@pytest.mark.parametrize("name", sorted(ALL))
def test_equal_fields_give_equal_values(name):
    make, args, other = ALL[name]
    first, second = make(*args), make(*args)
    assert type(first).__name__ == name
    assert first == second and not first != second
    if other is not None:
        assert first != make(*other)
    assert repr(first) == repr(second) and repr(first).startswith(f"{name}(")


@pytest.mark.parametrize("name", sorted(ALL))
def test_copies_and_pickles_are_equal(name):
    make, args, _ = ALL[name]
    value = make(*args)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value


@pytest.mark.parametrize("name", sorted(ALL))
def test_another_class_with_the_same_fields_is_never_equal(name):
    make, args, _ = ALL[name]
    value = make(*args)
    twin = object.__new__(type("Twin", (type(value),), {"__slots__": ()}))
    # Every slot is copied, so a field stored in another form (a gamble's
    # direction and denominator, its cached hash) is the same too.
    for slot in {slot for cls in type(value).__mro__ for slot in getattr(cls, "__slots__", ())}:
        object.__setattr__(twin, slot, getattr(value, slot))
    assert value != twin and twin != value
    assert value != tuple(getattr(value, field) for field in value._fields)


def test_same_values_in_different_classes_are_not_equal():
    members = (g(1, -1), g(-1, 2))
    assert GambleSet(space(), members) != ConeGenerators(space(), members)
    assert Optimal(Fraction(0), ()) != Unbounded(Fraction(0), ())


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_values_hash_by_field_and_refuse_assignment(name):
    make, args, _ = FROZEN[name]
    value = make(*args)
    assert hash(value) == hash(make(*args))
    assert len({value, make(*args)}) == 1
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_answers_and_instances_are_unhashable(name):
    make, args, other = MUTABLE[name]
    value = make(*args)
    with pytest.raises(TypeError):
        hash(value)
    changed = make(*other)
    for field in value._fields:
        setattr(value, field, getattr(changed, field))
    assert value == changed


def test_multipliers_take_no_part_in_outcome_equality():
    y, z = (Fraction(1),), (Fraction(2),)
    one, two = Fraction(1), (Fraction(1),)
    assert Optimal(one, two, y) == Optimal(one, two, z) == Optimal(one, two)
    assert hash(Optimal(one, two, y)) == hash(Optimal(one, two, z))
    assert Infeasible(y) == Infeasible(z) == Infeasible()
    assert hash(Infeasible(y)) == hash(Infeasible(z))
    assert Optimal(one, two, y).multipliers == y and Infeasible(z).multipliers == z
    assert repr(Infeasible(y)) == "Infeasible(multipliers=(Fraction(1, 1),))"


def test_gamble_caches_survive_equality():
    first, second = g(1, -1), g(1, -1)
    # A gamble hashes by its space, its denominator and its direction.
    assert hash(first) == hash(second) == hash((("a", "b"), 1, (1, -1)))
    assert first.direction == second.direction == (1, -1)
    assert first == second
    assert repr(first) == (
        "Gamble(space=PossibilitySpace(labels=('a', 'b')), "
        "values=(Fraction(1, 1), Fraction(-1, 1)))"
    )
