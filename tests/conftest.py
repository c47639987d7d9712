from gamblesets import (
    Assessment,
    GambleSet,
    PossibilitySpace,
    gamble,
    zero,
)

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
