import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

from gamblesets import Assessment, Gamble, PossibilitySpace
from gamblesets.oracle import random_gamble_set

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


# Seeded helper shared by the differential suites; single gambles and sets
# are drawn with gamblesets.gambles.random_gamble and
# gamblesets.oracle.random_gamble_set.


def seeded_assessment(
    rng: random.Random,
    space: PossibilitySpace,
    max_sets: int,
    max_size: int,
    bound: int,
) -> Assessment:
    sets = [
        random_gamble_set(rng, space, rng.randint(1, max_size), bound)
        for _ in range(rng.randint(1, max_sets))
    ]
    return Assessment.build(space, sets)


@pytest.fixture
def two_space() -> PossibilitySpace:
    return space_of(2)
