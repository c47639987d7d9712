import itertools
import random
from typing import Iterator

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

from gamblesets import (
    Assessment,
    ConeGenerators,
    DFamilySpec,
    FinGenD,
    Gamble,
    GambleSet,
    PossibilitySpace,
    desext_contains,
    ext_contains,
    gamble,
    zero,
    zero_in_desext,
)
from gamblesets.gambles import combination, random_gamble
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


# Seeded helpers shared by the differential suites; single gambles and sets
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


def axiom_sets(
    assessment: Assessment, axiom: str, seed: int, trials: int = 20
) -> Iterator[GambleSet]:
    """The sets that one coherence axiom puts in the extension of a
    consistent assessment, over ``trials`` instances of the axiom drawn from
    ``random.Random(f"{axiom}:{seed}")``; for ``no-empty-set``, the empty set
    it keeps out. The axioms are ``no-empty-set``, ``drop-zero`` (a member
    with zero added, and that set without zero), ``weak-positive``,
    ``superset``, ``dominators`` and ``addition``. Their premises come from
    a pool of up to 8 members: the assessment's sets, two weakly positive
    singletons, and those of 40 sampled sets that the extension holds."""
    rng = random.Random(f"{axiom}:{seed}")
    space = assessment.space
    atoms = len(space.labels)

    def draw(n: int) -> tuple[int, ...]:
        return tuple(rng.randint(0, 2) for _ in range(n))

    def nonzero(n: int) -> tuple[int, ...]:
        while True:
            values = draw(n)
            if any(values):
                return values

    pool = list(assessment.sets)
    pool += [GambleSet.build(space, (Gamble(space, nonzero(atoms)),)) for _ in range(2)]
    for _ in range(40):
        if len(pool) >= 8:
            break
        sampled = GambleSet.build(
            space, [random_gamble(rng, space, 2) for _ in range(rng.randint(1, 2))]
        )
        if ext_contains(assessment, sampled).member:
            pool.append(sampled)
    z = zero(space)
    for _ in range(trials):
        if axiom == "no-empty-set":
            yield GambleSet.build(space, ())
        elif axiom == "drop-zero":
            members = rng.choice(pool).members
            yield GambleSet.build(space, members + (z,))
            yield GambleSet.build(space, (g for g in members if g != z))
        elif axiom == "weak-positive":
            yield GambleSet.build(space, (Gamble(space, nonzero(atoms)),))
        elif axiom == "superset":
            members = rng.choice(pool).members
            extra = [random_gamble(rng, space, 2) for _ in range(rng.randint(1, 2))]
            yield GambleSet.build(space, members + tuple(extra))
        elif axiom == "dominators":
            members = rng.choice(pool).members
            yield GambleSet.build(space, [g + Gamble(space, draw(atoms)) for g in members])
        else:  # addition
            chosen = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
            yield GambleSet.build(space, [
                combination(nonzero(len(seq)), seq, space)
                for seq in itertools.product(*(s.members for s in chosen))
            ])


def family_contains(fam: DFamilySpec, D: FinGenD) -> bool:
    """Whether the cone D belongs to the family that ``fam`` describes: some
    picking across its sets has a coherent hull inside D. The hull is the
    smallest coherent cone around the picked gambles, so D holds it when it
    holds them."""
    return any(
        zero_in_desext(ConeGenerators.build(fam.space, seq)) is None
        and all(desext_contains(D.generators, g) is not None for g in seq)
        for seq in itertools.product(*(s.members for s in fam.sets))
    )


@pytest.fixture
def two_space() -> PossibilitySpace:
    return space_of(2)
