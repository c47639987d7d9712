"""Answer checks that do not trust the engine's decision code.

Certificates are re-checked by exact substitution over plain tuples of
``Fraction``; nothing here calls the engine's verifiers. Negative answers are
refuted by a dual vector ``y`` that is checked by substitution too: the
engine's simplex may be used to *find* ``y`` (see :func:`refute`), but a
wrong ``y`` cannot pass :func:`refutation_ok`, so a wrong "no" cannot be
recorded.

Cone semantics checked here, for generators g_1..g_k and a gamble f:

* weak: f is weakly positive, or sum(l_j g_j) <= f for some l >= 0 with
  sum(l) > 0;
* strict: f is strictly positive, or f = sum(l_j g_j) with l >= 0 and
  sum(l) > 0, or sum(l_j g_j) + e <= f with additionally e > 0.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Optional, Sequence

Vec = tuple[Fraction, ...]


def vec(values) -> Vec:
    return tuple(Fraction(v) for v in values)


def dedup(gambles: Sequence[Vec]) -> list[Vec]:
    """Order-preserving deduplication: the generator list a picking spans."""
    return list(dict.fromkeys(gambles))


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def cert_ok(lambdas: Vec, remainder: Vec, gens: Sequence[Vec], target: Vec, strict: bool) -> bool:
    """A membership certificate: target = sum(l_j g_j) + remainder, with the
    remainder conditions of the weak or strict cone."""
    if len(lambdas) != len(gens) or len(remainder) != len(target):
        return False
    if any(l < 0 for l in lambdas):
        return False
    for i, t in enumerate(target):
        if _dot(lambdas, [g[i] for g in gens]) + remainder[i] != t:
            return False
    if sum(lambdas) > 0:
        if strict:
            return all(r > 0 for r in remainder) or not any(remainder)
        return all(r >= 0 for r in remainder)
    if strict:
        return all(r > 0 for r in remainder)
    return all(r >= 0 for r in remainder) and any(remainder)


def ext_entries(per_sequence) -> dict:
    """Plain entries for :func:`ext_evidence_ok` from an engine answer's
    ``per_sequence`` evidence (a hit names its gamble, a skip does not)."""
    entries = {}
    for seq, ev in per_sequence.items():
        key = tuple(vec(g.values) for g in seq)
        lam, rem = vec(ev.certificate.lambdas), vec(ev.certificate.remainder.values)
        gamble = getattr(ev, "gamble", None)
        entries[key] = ("skip", lam, rem) if gamble is None else ("hit", vec(gamble.values), lam, rem)
    return entries


def ext_evidence_ok(sets: Sequence[Sequence[Vec]], candidate: Sequence[Vec], entries) -> bool:
    """A positive natural-extension answer: ``entries`` maps every picking of
    ``sets`` (one gamble per set, in order) to ``("skip", lambdas,
    remainder)`` or ``("hit", gamble, lambdas, remainder)``, and each entry's
    certificate checks out over the picking's generators."""
    expected = set(itertools.product(*sets))
    if set(entries) != expected:
        return False
    space = len(candidate[0]) if candidate else len(sets[0][0])
    zero = (Fraction(0),) * space
    wanted = set(candidate)
    for seq, ev in entries.items():
        gens = dedup(seq)
        if ev[0] == "skip":
            if not cert_ok(ev[1], ev[2], gens, zero, False):
                return False
        elif ev[1] not in wanted or not cert_ok(ev[2], ev[3], gens, ev[1], False):
            return False
    return True


# ---------------------------------------------------------------------------
# Refutations of negative cone answers
# ---------------------------------------------------------------------------
#
# Each refutation is (form, y). With G the matrix whose columns are the
# generators:
#   "sum":   y >= 0, G^T y >= 1, y.f <= 0       no feasible l has sum(l) > 0
#   "empty": y >= 0, G^T y >= 0, y.f < 0        no l >= 0 has G l <= f
#   "eps":   y >= 0, G^T y >= 0, 1.y >= 1, y.f <= 0   (strict) every feasible
#            (l, e) with G l + e <= f has e <= 0
#   "posi-sum" / "posi-empty": as "sum" / "empty" with y free, refuting
#            G l = f instead of G l <= f (strict mode's exact branch).
# A strict refutation is a pair: one for the exact branch, one for the
# mixed branch.


def _form_ok(form: str, y: Vec, gens: Sequence[Vec], f: Vec) -> bool:
    if len(y) != len(f):
        return False
    if not form.startswith("posi-") and any(v < 0 for v in y):
        return False
    col = [_dot(y, g) for g in gens]
    yf = _dot(y, f)
    if form in ("sum", "posi-sum"):
        return all(c >= 1 for c in col) and yf <= 0
    if form in ("empty", "posi-empty"):
        return all(c >= 0 for c in col) and yf < 0
    if form == "eps":
        return all(c >= 0 for c in col) and sum(y) >= 1 and yf <= 0
    return False


def refutation_ok(refutation, gens: Sequence[Vec], f: Vec, strict: bool) -> bool:
    """Exact substitution check that ``f`` lies outside the weak cone, or,
    with ``strict``, outside the strict cone (a pair of refutations)."""
    if not gens:
        return False
    if strict:
        exact, mixed = refutation
        return (
            not all(v > 0 for v in f)
            and exact[0] in ("posi-sum", "posi-empty")
            and mixed[0] in ("sum", "eps")
            and _form_ok(*exact, gens, f)
            and _form_ok(*mixed, gens, f)
        )
    form, y = refutation
    weakly_positive = all(v >= 0 for v in f) and any(f)
    return form in ("sum", "empty") and not weakly_positive and _form_ok(form, y, gens, f)


def refute(
    gens: Sequence[Vec], f: Vec, strict: bool, feasible_point: Callable
) -> Optional[object]:
    """Search for a refutation of f's membership and return it only if
    :func:`refutation_ok` accepts it. ``feasible_point(rows, num_vars)``
    returns some x >= 0 satisfying rows ``(coeffs, "<=", bound)``, or None."""
    n = len(f)

    def find(form: str):
        free = form.startswith("posi-")
        width = 2 * n if free else n

        def row(coeffs, bound):
            c = list(coeffs) + [-v for v in coeffs] if free else list(coeffs)
            return (c, "<=", bound)

        base = form.removeprefix("posi-")
        rows = []
        for g in gens:
            rows.append(row([-v for v in g], -1 if base == "sum" else 0))
        if base == "eps":
            rows.append(row([-1] * n, -1))
        rows.append(row(list(f), -1 if base == "empty" else 0))
        x = feasible_point(rows, width)
        if x is None:
            return None
        y = tuple(x[i] - x[n + i] for i in range(n)) if free else tuple(x)
        return (form, y)

    if strict:
        exact = find("posi-sum") or find("posi-empty")
        mixed = find("sum") or find("eps")
        candidate = [exact, mixed] if exact and mixed else None
    else:
        candidate = find("sum") or find("empty")
    if candidate is not None and refutation_ok(candidate, gens, f, strict):
        return candidate
    return None
