import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

from gamblesets import (
    Assessment,
    Gamble,
    GambleSet,
    PossibilitySpace,
    gamble,
    zero,
)

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

LABELS = ("a", "b", "c", "d")


def space_of(n: int) -> PossibilitySpace:
    return PossibilitySpace(LABELS[:n])


# The worked instance over two atoms, the sets {G1, 0} and {G2, 0}, and the
# helpers that build gambles and sets over its space.
AB = space_of(2)


def g(*values):
    return gamble(AB, values)


def gset(*gambles):
    return GambleSet.build(AB, gambles)


G1, G2 = g(1, -1), g(-1, 2)
Z = zero(AB)
WORKED = Assessment.build(AB, [gset(G1, Z), gset(G2, Z)])

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def spaces(max_size: int = 3):
    return st.integers(1, max_size).map(space_of)


@st.composite
def gambles_on(draw, space, bound=small_rationals):
    return Gamble(space, tuple(draw(bound) for _ in space.labels))


@st.composite
def space_with_gambles(draw, count: int, max_size: int = 3):
    space = draw(spaces(max_size))
    gs = [draw(gambles_on(space)) for _ in range(count)]
    return space, gs


@pytest.fixture
def two_space() -> PossibilitySpace:
    return space_of(2)
