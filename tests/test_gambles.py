from fractions import Fraction

import pytest
from hypothesis import given

from conftest import space_of, space_with_gambles
from gamblesets import (
    DimensionMismatch,
    Gamble,
    PossibilitySpace,
    add,
    gamble,
    geq,
    gt,
    in_cone_geq0,
    in_cone_gt0,
    in_cone_wd0,
    indicator,
    scale,
    wgeq,
    zero,
)
from gamblesets.gambles import dot

AB = space_of(2)


def g(*values):
    return gamble(AB, values)


def test_componentwise_order_examples():
    assert geq(g(1, 0), g(1, 0))
    assert geq(g(2, 1), g(1, 1))
    assert not geq(g(1, -1), g(0, 0))


def test_strict_dominance_examples():
    assert gt(g(2, 1), g(1, 0))
    assert not gt(g(1, 0), g(0, 0))
    assert not gt(g(0, 0), g(0, 0))


def test_weak_dominance_examples():
    assert wgeq(g(1, 0), g(0, 0))
    assert not wgeq(g(0, 0), g(0, 0))
    assert not wgeq(g(1, -1), g(0, 0))


def test_zero_cone_classification():
    assert in_cone_wd0(g(0, 1)) and not in_cone_gt0(g(0, 1))
    assert in_cone_gt0(g(1, 1))
    z = zero(AB)
    assert in_cone_geq0(z) and not in_cone_wd0(z) and not in_cone_gt0(z)


def test_vector_operations():
    assert add(g(1, -1), g(-1, 2)) == g(0, 1)
    assert scale(2, g(1, 0)) == g(2, 0)
    assert indicator(AB, "b") == g(0, 1)
    with pytest.raises(ValueError):
        scale(0, g(1, 0))
    with pytest.raises(ValueError):
        scale(-1, g(1, 0))
    with pytest.raises(ValueError):
        indicator(AB, "nope")


def test_dimension_mismatch_raises():
    other = PossibilitySpace(("x",))
    with pytest.raises(DimensionMismatch):
        geq(g(1, 0), gamble(other, [1]))
    with pytest.raises(DimensionMismatch):
        Gamble(AB, (Fraction(1),))


def test_space_validation():
    with pytest.raises(ValueError):
        PossibilitySpace(())
    with pytest.raises(ValueError):
        PossibilitySpace(("a", "a"))
    # A label that is not a string is reported as such, even unhashable.
    for labels in ((["a"], "b"), ("a", 5), ("a", "")):
        with pytest.raises(ValueError, match="nonempty strings"):
            PossibilitySpace(labels)


def test_serialization_round_trip():
    f = gamble(AB, ["-17/10", "4/5"])
    assert f.serialized() == ["-17/10", "4/5"]
    assert gamble(AB, f.serialized()) == f


def test_floats_rejected():
    with pytest.raises(TypeError):
        gamble(AB, [0.5, 1])


@given(space_with_gambles(2))
def test_orders_are_consistent(data):
    space, (f, h) = data
    if gt(f, h):
        assert wgeq(f, h)
    if wgeq(f, h):
        assert geq(f, h)
    assert wgeq(f, h) == (geq(f, h) and not geq(h, f))


@given(space_with_gambles(1))
def test_weak_positivity_matches_weak_dominance_of_zero(data):
    space, (f,) = data
    assert in_cone_wd0(f) == wgeq(f, zero(space))
    if in_cone_gt0(f):
        assert in_cone_wd0(f)


@given(space_with_gambles(2))
def test_addition_and_scaling_preserve_dimension(data):
    space, (f, h) = data
    assert (f + h).space == space
    assert scale(Fraction(1), f) == f
    assert scale(2, f) == f + f


@given(space_with_gambles(2))
def test_integer_directions_keep_the_sign_of_dot_products(data):
    space, (f, h) = data
    assert all(isinstance(v, int) for v in f.direction)
    assert f.direction is f.direction  # computed once
    product = sum(a * b for a, b in zip(f.values, h.values))
    assert (dot(f.direction, h.direction) > 0) == (product > 0)
    assert (dot(f.direction, h.direction) == 0) == (product == 0)
    assert gamble(AB, ["-17/10", "4/5"]).direction == (-17, 8)
