"""Per-layer tracing of the engine from outside.

:meth:`Tracer.install` replaces each layer's public functions, in every
``gamblesets`` module that binds them, with a wrapper that times the call and
counts what it returned. Nothing under ``src/`` changes. Because a wrapper is
installed per binding, a call is also attributed to the module it came from:
``zero_in_desext`` called through ``gamblesets.extension`` is a skip test of
the picking enumeration.

A layer's self time is the time inside its calls minus the time inside the
wrapped calls they make. Spans are folded into per-layer totals as they close,
so a long session does not keep every span in memory.

A function that is not where a layer expects it is a missing patch point: it
is listed in ``absent`` and every metric that depends on it is left out of the
report instead of being reported as zero.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# (home module, span name, public functions). Calls into these are the layer
# boundaries. ``gambles`` is leaf arithmetic and is not traced;
# ``representation`` and ``render`` are left out on purpose.
LAYERS = (
    ("ratlp", "ratlp.lp_solve", ("lp_solve",)),
    ("ratlp", "ratlp.fm_feasible", ("fm_feasible",)),
    ("cones", "cones", (
        "posi_contains", "desext_contains", "desext_contains_strict",
        "zero_in_desext", "zero_in_desext_strict",
    )),
    ("cones", "cones.verify", ("certificate_valid", "certificate_valid_strict")),
    ("extension", "extension", ("ext_contains", "is_consistent", "closure_holds")),
    ("extension", "extension.verify", ("verify_ext_answer",)),
    ("formulations", "formulations", (
        "ext_contains_split", "ext_contains_indicator", "formulations_agree",
    )),
    ("oracle", "oracle", (
        "brute_ext_contains", "fm_posi_contains", "fm_zero_in_desext",
        "fm_desext_contains", "fm_desext_contains_strict",
    )),
    ("cli", "cli", ("main",)),
    ("cli", "cli.load_instance", ("load_instance",)),
)

# Calls made by the picking enumeration, identified by binding module.
SKIP_TESTS = (("extension", "zero_in_desext"), ("extension", "zero_in_desext_strict"))
HIT_TESTS = (("extension", "desext_contains"), ("extension", "desext_contains_strict"))

_EXT_ANSWERS = {"ext_contains", "closure_holds"}


class Tracer:
    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [child seconds, made an LP]

    def install(self) -> None:
        for name in ("cli", "formulations", "oracle"):
            try:
                importlib.import_module(f"gamblesets.{name}")
            except ModuleNotFoundError:
                pass  # its functions are reported absent below
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("gamblesets.") and mod is not None
        }
        for home, span, names in LAYERS:
            for fn_name in names:
                original = getattr(modules.get(home), fn_name, None)
                if not callable(original):
                    self.absent.append(f"{home}.{fn_name}")
                    continue
                for binding, mod in modules.items():
                    if mod.__dict__.get(fn_name) is original:
                        setattr(mod, fn_name, self._wrap(span, fn_name, binding, original))
                pkg = sys.modules["gamblesets"]
                if pkg.__dict__.get(fn_name) is original:
                    setattr(pkg, fn_name, self._wrap(span, fn_name, "gamblesets", original))
        for binding, fn_name in SKIP_TESTS + HIT_TESTS:
            if not hasattr(modules.get(binding), fn_name):
                self.absent.append(f"{binding}.{fn_name}")

    def _wrap(self, span: str, fn_name: str, binding: str, fn):
        stack = self._stack
        counts = self.counts
        self_s = self.self_s
        key = f"{binding}.{fn_name}"

        def traced(*args, **kwargs):
            frame = [0.0, False]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[span] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                counts[f"calls:{key}"] += 1
            if span == "ratlp.lp_solve":
                for open_frame in stack:
                    open_frame[1] = True
                lp = args[0] if args else kwargs["lp"]
                counts["lp_cells"] += len(lp.constraints) * lp.num_vars
                counts["lp_infeasible"] += type(result).__name__ == "Infeasible"
            elif span == "cones":
                counts["cone_calls"] += 1
                counts["cone_lp_free"] += not frame[1]
                counts["cone_certified"] += result is not None
                counts[f"certified:{key}"] += result is not None
            elif fn_name in _EXT_ANSWERS:
                counts["evidence_entries"] += len(result.per_sequence)
                total = 1
                for s in result.witness_list:
                    total *= len(s.members)
                counts["pickings_total"] += total
            return result

        traced.__wrapped__ = fn
        return traced

    def raw(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts), "absent": self.absent}

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(self.raw(), **extra), fh)


def merge(raws) -> dict:
    """Sum the raw totals of several traced processes."""
    self_s: Counter = Counter()
    counts: Counter = Counter()
    absent: set[str] = set()
    for r in raws:
        self_s.update(r["self_s"])
        counts.update(r["counts"])
        absent.update(r["absent"])
    return {"self_s": self_s, "counts": counts, "absent": sorted(absent)}


def oracle_calls(raw: dict) -> dict[str, int]:
    """Calls into the Fourier-Motzkin reference code (``fm_*`` and
    ``brute_*``), per binding. The engine's performance work does not touch
    that code, so for ``gamblesets selftest`` these counts depend only on the
    instances the selftest draws."""
    return {
        k: v for k, v in sorted(raw["counts"].items())
        if k.startswith("calls:") and k.rpartition(".")[2].startswith(("fm_", "brute_"))
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metric values from merged raw totals. Metrics whose patch
    points are absent are left out."""
    s, c, absent = raw["self_s"], raw["counts"], set(raw["absent"])

    def calls(*keys) -> int:
        return sum(c.get(f"calls:{b}.{f}", 0) for b, f in keys)

    skip_tests = calls(*SKIP_TESTS)
    skipped = sum(c.get(f"certified:{b}.{f}", 0) for b, f in SKIP_TESTS)
    m = {
        "extension.skip_tests": skip_tests,
        "extension.hit_tests": calls(*HIT_TESTS),
        "extension.evidence_entries": c.get("evidence_entries", 0),
        "extension.pickings_total": c.get("pickings_total", 0),
        "extension.skip_frac": _ratio(skipped, skip_tests),
        "extension.self_s": s.get("extension", 0.0),
        "extension.verify.self_s": s.get("extension.verify", 0.0),
        "ratlp.lp_solve.calls": sum(v for k, v in c.items() if k.startswith("calls:") and k.endswith(".lp_solve")),
        "ratlp.lp_solve.cells": c.get("lp_cells", 0),
        "ratlp.lp_solve.infeasible": c.get("lp_infeasible", 0),
        "ratlp.lp_solve.self_s": s.get("ratlp.lp_solve", 0.0),
        "ratlp.fm_feasible.calls": sum(v for k, v in c.items() if k.startswith("calls:") and k.endswith(".fm_feasible")),
        "ratlp.fm_feasible.self_s": s.get("ratlp.fm_feasible", 0.0),
        "cones.calls": c.get("cone_calls", 0),
        "cones.lp_free_frac": _ratio(c.get("cone_lp_free", 0), c.get("cone_calls", 0)),
        "cones.certified_frac": _ratio(c.get("cone_certified", 0), c.get("cone_calls", 0)),
        "cones.self_s": s.get("cones", 0.0),
        "cones.verify.self_s": s.get("cones.verify", 0.0),
        "formulations.self_s": s.get("formulations", 0.0),
        "oracle.self_s": s.get("oracle", 0.0),
        "cli.load_instance.self_s": s.get("cli.load_instance", 0.0),
        "cli.self_s": s.get("cli", 0.0),
    }
    spans = {span for _, span, _ in LAYERS}
    absent_spans = {
        span for home, span, fns in LAYERS for f in fns if f"{home}.{f}" in absent
    }
    for name in list(m):
        span = max((sp for sp in spans if name.startswith(sp + ".")), key=len)
        deps = SKIP_TESTS if "skip" in name else HIT_TESTS if "hit_tests" in name else ()
        if span in absent_spans or any(f"{b}.{f}" in absent for b, f in deps):
            del m[name]
    return m
