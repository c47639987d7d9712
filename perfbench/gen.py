"""Seeded inputs for the gamblesets benchmark.

Everything here is plain integer vectors, drawn with ``random.Random`` seeded
by strings (hashed with SHA-512, so independent of ``PYTHONHASHSEED``). The
engine's own generators (``oracle.gen_instance``, ``gamblesets gen``, the
axiom harness) are never used, so refactoring them cannot silently change a
workload. The one exception is ``gamblesets selftest`` in ``cli-cold``,
which draws its own instances; ``answers.json`` records the oracle calls
each selftest seed makes, so a change to those draws is caught (``run.py``).

Each workload draws from a fixed corpus whose answers are recorded once in
``answers.json`` (see ``record.py``); the workload seed chooses which corpus
entries a run uses, which candidate sets go with them and in which order.
"""

from __future__ import annotations

import hashlib
import json
import random

# Corpus sizes. A run never uses more entries than its corpus holds.
CONE_QUERIES = 1500
LIB_ASSESSMENTS = 8
LIB_CANDIDATES = 32
LIB_PER_ASSESSMENT = 20
LIB_MEMBERS = 15
CLI_FILES = 96
CLI_SELFTEST_SEEDS = 16
CLI_SELFTEST_TRIALS = 12

# Run sizes per second of --seconds, calibrated on a 2-core x86-64 machine
# with Python 3.11 so that one run of the engine as first benchmarked takes
# about --seconds. They are fixed, so a run's query list depends only on the
# seed and --seconds, and the work counters repeat exactly.
CONE_PER_SECOND = 26
LIB_SECONDS_PER_ASSESSMENT = 3.0
CLI_FILES_PER_SECOND = 2
CLI_SELFTESTS = 3


def cone_queries(seconds: float) -> int:
    return max(1, round(seconds * CONE_PER_SECOND))


def lib_assessments(seconds: float) -> int:
    return max(1, round(seconds / LIB_SECONDS_PER_ASSESSMENT))


def cli_files(seconds: float) -> int:
    return max(1, round(seconds * CLI_FILES_PER_SECOND))

CONE_KINDS = ("desext", "zero", "strict")
CANDIDATE_KINDS = ("random", "dominators", "sums", "shifted")


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def fingerprint(obj) -> str:
    """Short content hash of a generated input, recorded next to its answer
    so that a changed generator is caught instead of compared blindly."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _vec(rng: random.Random, n: int, lo: int = -3, hi: int = 3) -> tuple[int, ...]:
    return tuple(rng.randint(lo, hi) for _ in range(n))


def _distinct(rng: random.Random, n: int, k: int, lo: int = -3, hi: int = 3) -> list:
    out: list[tuple[int, ...]] = []
    while len(out) < k:
        v = _vec(rng, n, lo, hi)
        if v not in out:
            out.append(v)
    return sorted(out)


def _candidate(rng: random.Random, n: int, sets: list, kind: str) -> list:
    """A query set of one of four shapes. Dominators of an assessment set and
    pairwise sums of two assessment sets are members by the dominators and
    addition axioms; random and shifted-down sets are mostly not."""
    if kind == "random":
        return _distinct(rng, n, rng.randint(1, 3))
    if kind == "dominators":
        s = rng.choice(sets)
        out = [tuple(a + b for a, b in zip(g, _vec(rng, n, 0, 1))) for g in s]
    elif kind == "sums" and len(sets) > 1:
        a, b = rng.sample(sets, 2)
        out = [tuple(x + y for x, y in zip(g, h)) for g in a for h in b]
    else:
        s = rng.choice(sets)
        out = [tuple(a - b for a, b in zip(g, _vec(rng, n, 0, 1))) for g in s]
    return sorted(set(out))


# ---------------------------------------------------------------------------
# cone-lp: single cone queries, ten to twelve atoms, as many generators
# ---------------------------------------------------------------------------


def cone_query(i: int) -> dict:
    rng = _rng("cone-lp", i)
    kind = CONE_KINDS[i % len(CONE_KINDS)]
    n = 10 + (i // len(CONE_KINDS)) % 3
    gens = _distinct(rng, n, n)
    rng.shuffle(gens)
    f = None if kind == "zero" else _vec(rng, n)
    return {"kind": kind, "omega": n, "generators": gens, "gamble": f}


def cone_plan(seed: int, count: int) -> list[int]:
    """Distinct corpus indices, so no generator list repeats in a run."""
    return _rng("cone-lp-plan", seed).sample(range(CONE_QUERIES), min(count, CONE_QUERIES))


# ---------------------------------------------------------------------------
# lib-session: assessments at four atoms with five sets of three
# ---------------------------------------------------------------------------


def lib_assessment(i: int) -> list:
    rng = _rng("lib-session", "assessment", i)
    return [_distinct(rng, 4, 3) for _ in range(5)]


def lib_candidate(i: int, j: int) -> list:
    rng = _rng("lib-session", "candidate", i, j)
    return _candidate(rng, 4, lib_assessment(i), CANDIDATE_KINDS[j % len(CANDIDATE_KINDS)])


def lib_plan(seed: int, assessments: int, recorded: list) -> list[tuple[int, list]]:
    """(assessment index, query list) pairs. A query is a candidate index,
    or None for the consistency question, at a seeded position.

    The candidates are drawn per assessment as LIB_MEMBERS recorded members
    and the rest recorded non-members (``recorded`` is the lib-session part
    of answers.json). A non-member fails at an early picking and costs about
    2 ms, a member about 70 ms, so an unstratified draw moves the median
    latency by a quarter from seed to seed. Each assessment opens with a
    member, which pays for the cold enumeration in one query; a non-member
    first would split that cost between two queries by chance."""
    rng = _rng("lib-session-plan", seed)
    plan = []
    for a in rng.sample(range(LIB_ASSESSMENTS), min(assessments, LIB_ASSESSMENTS)):
        answers = [member for _, member in recorded[a]["candidates"]]
        members = [j for j, m in enumerate(answers) if m]
        others = [j for j, m in enumerate(answers) if not m]
        chosen = rng.sample(members, LIB_MEMBERS)
        rest: list = chosen[1:] + rng.sample(others, LIB_PER_ASSESSMENT - LIB_MEMBERS)
        rng.shuffle(rest)
        rest.insert(rng.randint(0, len(rest)), None)
        plan.append((a, chosen[:1] + rest))
    return plan


# ---------------------------------------------------------------------------
# cli-cold: desir/1 instance files
# ---------------------------------------------------------------------------


def cli_instance(i: int) -> dict:
    """An instance file with three to five atoms and four to six sets of at
    most three gambles. At most 48 pickings keep a query near 0.1 s, so a
    25-second run holds more than 100 cold queries."""
    rng = _rng("cli-cold", i)
    n = rng.randint(3, 5)
    while True:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(4, 6))]
        product = 1
        for s in sizes:
            product *= s
        if product <= 48:
            break
    # Entries lean positive: at three atoms, symmetric entries make about a
    # third of the assessments inconsistent, and then every query is a member.
    sets = [_distinct(rng, n, s, -2, 4) for s in sizes]
    query = _candidate(rng, n, sets, CANDIDATE_KINDS[i % len(CANDIDATE_KINDS)])
    names: dict[tuple, str] = {}
    for g in [g for s in sets for g in s] + query:
        names.setdefault(g, f"g{len(names)}")
    return {
        "schema": "desir/1",
        "omega": [f"w{k + 1}" for k in range(n)],
        "gambles": {name: list(g) for g, name in names.items()},
        "assessment": [[names[g] for g in s] for s in sets],
        "query": {"kind": "in-extension", "set": [names[g] for g in query]},
    }


def pickings(instance: dict) -> int:
    count = 1
    for row in instance["assessment"]:
        count *= len(set(row))
    return count


def cli_plan(seed: int, files: int, selftests: int) -> list[tuple]:
    """Operations in order: ("in-ext"|"consistency"|"equiv", file index) or
    ("selftest", selftest seed below CLI_SELFTEST_SEEDS). Every file gets in-ext and consistency; the
    quarter with the fewest pickings also gets equiv."""
    rng = _rng("cli-cold-plan", seed)
    chosen = rng.sample(range(CLI_FILES), min(files, CLI_FILES))
    by_size = sorted(chosen, key=lambda i: (pickings(cli_instance(i)), i))
    small = set(by_size[: len(by_size) // 4])
    ops: list[tuple] = []
    for i in chosen:
        ops.append(("in-ext", i))
        ops.append(("consistency", i))
        if i in small:
            ops.append(("equiv", i))
    for seed in rng.sample(range(CLI_SELFTEST_SEEDS), selftests):
        ops.append(("selftest", seed))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Engine objects, for the processes that import the engine
# ---------------------------------------------------------------------------


def space(n: int):
    import gamblesets as gs

    return gs.PossibilitySpace(tuple(f"w{k + 1}" for k in range(n)))


def gamble_set(space, vectors):
    import gamblesets as gs

    return gs.GambleSet.build(space, [gs.gamble(space, v) for v in vectors])
