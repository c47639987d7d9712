"""Independent ground truth for differential testing.

Everything here decides cone questions through Fourier-Motzkin elimination
(``fm_*`` functions) and decides extension membership by literally searching
over explicit lists of assessment sets with repetition
(:func:`brute_ext_contains`), so it shares no decision logic with the
simplex-backed engine. Also home to the seeded instance generators used by
the test suites and the command line.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from .extension import Assessment, GambleSet
from .gambles import Gamble, PossibilitySpace, gt, random_gamble, wgeq, zero
from .ratlp import EQ, LEQ, LT, Value, fm_feasible

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fm_feasible(gens: Sequence[Gamble], rel: str, bounds, tail: list, slack: tuple = ()) -> bool:
    """Whether Fourier-Motzkin finds a point of the system with one sign row
    (x >= 0) per variable, the generators' coefficients and then one per
    ``slack`` entry; one row per atom, the generators' values there and then
    ``slack``, ``rel`` that atom's bound; and the ``tail`` rows. Without
    generators there is none."""
    if not gens:
        return False
    n = len(gens) + len(slack)
    rows = [(tuple(-_ONE if i == j else _ZERO for i in range(n)), LEQ, _ZERO) for j in range(n)]
    cols = zip(*(g.values for g in gens))
    rows += [(col + slack, rel, b) for col, b in zip(cols, bounds)]
    return fm_feasible(rows + tail)


def fm_posi_contains(generators: Sequence[Gamble], f: Gamble) -> bool:
    """f is a nonnegative combination of the generators with positive total."""
    gens = list(dict.fromkeys(generators))
    # positive total, as a strict row
    return _fm_feasible(gens, EQ, f.values, [((-_ONE,) * len(gens), LT, _ZERO)])


def fm_zero_in_desext(generators: Sequence[Gamble]) -> bool:
    """Zero lies below a positive combination of the generators. The system
    is homogeneous, so the total is normalized to one instead of using a
    strict row."""
    gens = list(dict.fromkeys(generators))
    return _fm_feasible(gens, LEQ, itertools.repeat(_ZERO), [((_ONE,) * len(gens), EQ, _ONE)])


def fm_desext_contains(generators: Sequence[Gamble], f: Gamble) -> bool:
    """Weak-background membership: f weakly dominates zero, or f dominates a
    positive combination of the generators."""
    if wgeq(f, zero(f.space)):
        return True
    gens = list(dict.fromkeys(generators))
    return _fm_feasible(gens, LEQ, f.values, [((-_ONE,) * len(gens), LT, _ZERO)])


def fm_desext_contains_strict(generators: Sequence[Gamble], f: Gamble) -> bool:
    """Strict-background membership, decided over the three-branch split:
    f strictly dominates zero, or f is exactly a positive combination, or a
    positive combination plus uniform positive slack stays below f."""
    if gt(f, zero(f.space)):
        return True
    gens = list(dict.fromkeys(generators))
    if fm_posi_contains(gens, f):
        return True
    k = len(gens)
    tail = [
        ((-_ONE,) * k + (_ZERO,), LT, _ZERO),  # positive coefficient total
        ((_ZERO,) * k + (-_ONE,), LT, _ZERO),  # positive slack
    ]
    return _fm_feasible(gens, LEQ, f.values, tail, slack=(_ONE,))


class BruteCapExceeded(RuntimeError):
    pass


def brute_ext_contains(
    assessment: Assessment,
    candidate: GambleSet,
    cap: int = 10**6,
    strict: bool = False,
) -> bool:
    """Literal search for extension membership: try every list of assessment
    sets with repetition up to one past the number of distinct sets, and
    test the closure condition with Fourier-Motzkin deciders only. The
    condition depends only on which sets a list holds and how often, so
    each multiset of sets is tried once, in one order.
    With ``strict``, the skip and hit tests are those of the strict
    background, and an empty assessment needs a strictly positive member."""
    z = zero(assessment.space)
    if assessment.is_empty:
        return any((gt if strict else wgeq)(f, z) for f in candidate.members)
    hits = fm_desext_contains_strict if strict else fm_desext_contains
    sets = assessment.sets
    skip_memo: dict[frozenset, bool] = {}
    hit_memo: dict[tuple[frozenset, Gamble], bool] = {}
    budget = cap
    for length in range(1, len(sets) + 2):
        for chosen in itertools.combinations_with_replacement(sets, length):
            count = 1
            for s in chosen:
                count *= len(s.members)
            budget -= count
            if budget < 0:
                raise BruteCapExceeded(f"brute-force search exceeded the cap of {cap}")
            good = True
            for seq in itertools.product(*(s.members for s in chosen)):
                key = frozenset(seq)
                skip = skip_memo.get(key)
                if skip is None:
                    gens = tuple(key)
                    skip = hits(gens, z) if strict else fm_zero_in_desext(gens)
                    skip_memo[key] = skip
                if skip:
                    continue
                hit = False
                for f in candidate.members:
                    hkey = (key, f)
                    h = hit_memo.get(hkey)
                    if h is None:
                        h = hits(tuple(key), f)
                        hit_memo[hkey] = h
                    if h:
                        hit = True
                        break
                if not hit:
                    good = False
                    break
            if good:
                return True
    return False


# ---------------------------------------------------------------------------
# Seeded instance generation
# ---------------------------------------------------------------------------


class InstanceGenConfig(Value):
    __slots__ = _fields = ("seed", "omega_size", "num_sets", "set_size", "coeff_range")

    def __init__(self, seed: int, omega_size: int = 2, num_sets: int = 2, set_size: int = 2,
                 coeff_range: int = 2) -> None:
        values = (seed, omega_size, num_sets, set_size, coeff_range)
        for name, value in zip(self._fields, values):
            if name != "seed" and value < 1:
                raise ValueError(f"{name} must be at least 1")
            object.__setattr__(self, name, value)


def default_space(size: int) -> PossibilitySpace:
    return PossibilitySpace(tuple(f"w{i + 1}" for i in range(size)))


def random_gamble_set(
    rng: random.Random, space: PossibilitySpace, size: int, bound: int
) -> GambleSet:
    return GambleSet.build(space, (random_gamble(rng, space, bound) for _ in range(size)))


def gen_instance(cfg: InstanceGenConfig) -> tuple[Assessment, GambleSet]:
    """Deterministic assessment plus query set for a seed. Entries are small
    integers; duplicates inside sets collapse, so sets may come out smaller
    than ``set_size``."""
    rng = random.Random(cfg.seed)
    space = default_space(cfg.omega_size)
    sets = [
        random_gamble_set(rng, space, cfg.set_size, cfg.coeff_range)
        for _ in range(cfg.num_sets)
    ]
    candidate = random_gamble_set(rng, space, cfg.set_size, cfg.coeff_range)
    return Assessment.build(space, sets), candidate
