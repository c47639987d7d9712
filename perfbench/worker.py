"""One library process of the benchmark: a ``lib-session`` or ``cone-lp``
query list, or a set-up probe (for ``cli-cold``, writing the instance files
next to OUT).

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT [--head N] [--setup]

Imports the engine, builds the workload's inputs, then answers the query list
in this one process. OUT gets JSON lines as the run goes: first the planned
queries (``{"plan": [[op, key], ...]}``), then each query's record as it
completes (``{"record": ...}``), and last the full report
(``{"report": ...}``): one record per query (answer, latency, verification
time, independent certificate check; times scaled as described in
``speed.py``) and, with TRACE=1, the layer totals. If the process is killed
or crashes, ``run.py`` counts every planned query without a record as
failed.
``--head N`` keeps only the first N units of the list (assessments or cone
queries); ``--setup`` stops once the inputs are built.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import check
import gen
from speed import Scaler

start = time.perf_counter()
import gamblesets as gs  # noqa: E402

IMPORT_S = time.perf_counter() - start


def lib_inputs(seed: int, seconds: float, head):
    space = gen.space(4)
    recorded = json.loads((Path(__file__).parent / "answers.json").read_text())["lib-session"]
    units = []
    for a, queries in gen.lib_plan(seed, gen.lib_assessments(seconds), recorded)[:head]:
        sets = gen.lib_assessment(a)
        assessment = gs.Assessment.build(space, [gen.gamble_set(space, s) for s in sets])
        plain_sets = [[check.vec(g.values) for g in s.members] for s in assessment.sets]
        items = []
        for j in queries:
            if j is None:
                items.append((j, gen.fingerprint(sets), None, None))
            else:
                cand = gen.lib_candidate(a, j)
                items.append((j, gen.fingerprint([sets, cand]), gen.gamble_set(space, cand), [check.vec(v) for v in cand]))
        units.append((a, assessment, plain_sets, items))
    return units


def lib_plan(units) -> list:
    return [["consistency" if j is None else "in-ext", [a, j]]
            for a, _, _, items in units for j, *_ in items]


def run_lib(units, emit, scaler: Scaler) -> None:
    for a, assessment, plain_sets, items in units:
        for j, fp, cand, plain_cand in items:
            rec = {"op": "consistency" if j is None else "in-ext", "key": [a, j], "fp": fp}
            try:
                if j is None:
                    t = time.perf_counter()
                    rec["answer"] = gs.is_consistent(assessment)
                    scaler.record(rec, "latency_s", time.perf_counter() - t)
                    continue
                t = time.perf_counter()
                answer = gs.ext_contains(assessment, cand)
                scaler.record(rec, "latency_s", time.perf_counter() - t)
                rec["answer"] = answer.member
                if answer.member:
                    t = time.perf_counter()
                    rec["verified"] = gs.verify_ext_answer(answer, cand)
                    scaler.record(rec, "verify_s", time.perf_counter() - t)
                    rec["own_check"] = check.ext_evidence_ok(
                        plain_sets, plain_cand, check.ext_entries(answer.per_sequence))
            except Exception as exc:  # a failed operation, reported and counted
                rec["error"] = f"{type(exc).__name__}: {exc}"
            finally:
                emit(rec)


_CONE = {
    "desext": ("desext_contains", "certificate_valid", False),
    "zero": ("zero_in_desext", "certificate_valid", False),
    "strict": ("desext_contains_strict", "certificate_valid_strict", True),
}


def cone_inputs(seed: int, seconds: float, head):
    units = []
    for i in gen.cone_plan(seed, gen.cone_queries(seconds))[:head]:
        q = gen.cone_query(i)
        space = gen.space(q["omega"])
        gens = gs.ConeGenerators.build(space, [gs.gamble(space, v) for v in q["generators"]])
        target = q["gamble"] or (0,) * q["omega"]
        units.append((i, q["kind"], gen.fingerprint(q), gens, gs.gamble(space, target),
                      [check.vec(v) for v in q["generators"]], check.vec(target)))
    return units


def cone_plan(units) -> list:
    return [[kind, i] for i, kind, *_ in units]


def run_cone(units, emit, scaler: Scaler) -> None:
    for i, kind, fp, gens, f, plain_gens, plain_f in units:
        decide, valid, strict = _CONE[kind]
        rec = {"op": kind, "key": i, "fp": fp}
        try:
            t = time.perf_counter()
            cert = getattr(gs, decide)(gens) if kind == "zero" else getattr(gs, decide)(gens, f)
            scaler.record(rec, "latency_s", time.perf_counter() - t)
            rec["answer"] = cert is not None
            if cert is not None:
                t = time.perf_counter()
                rec["verified"] = getattr(gs, valid)(cert, gens, f)
                scaler.record(rec, "verify_s", time.perf_counter() - t)
                rec["own_check"] = check.cert_ok(
                    check.vec(cert.lambdas), check.vec(cert.remainder.values),
                    plain_gens, plain_f, strict,
                )
        except Exception as exc:  # a failed operation, reported and counted
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            emit(rec)


def write_cli_inputs(seed: int, seconds: float, directory: Path) -> list:
    """The cli-cold inputs are instance files; the queries run elsewhere."""
    plan = gen.cli_plan(seed, gen.cli_files(seconds), gen.CLI_SELFTESTS)
    files = sorted({arg for op, arg in plan if op != "selftest"})
    for i in files:
        text = json.dumps(gen.cli_instance(i), indent=1)
        (directory / f"cli-{i}.json").write_text(text, encoding="utf-8")
    return files


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, out = argv[:5]
    head = int(argv[argv.index("--head") + 1]) if "--head" in argv else None
    with open(out, "w", encoding="utf-8") as fh:

        def line(**obj) -> None:
            fh.write(json.dumps(obj) + "\n")
            fh.flush()

        if workload == "cli-cold":
            units = write_cli_inputs(int(seed), float(seconds), Path(out).parent)
            line(report={"import_s": IMPORT_S, "units": len(units)})
            return 0
        inputs, plan, run = {
            "lib-session": (lib_inputs, lib_plan, run_lib),
            "cone-lp": (cone_inputs, cone_plan, run_cone),
        }[workload]
        units = inputs(int(seed), float(seconds), head)
        report: dict = {"import_s": IMPORT_S, "units": len(units)}
        if "--setup" not in argv:
            line(plan=plan(units))
            tracer = None
            if trace == "1":
                from tracing import Tracer

                tracer = Tracer()
                tracer.install()
            records: list[dict] = []

            def emit(rec: dict) -> None:
                records.append(rec)
                line(record=rec)

            scaler = Scaler()
            run(units, emit, scaler)
            scaler.finish()
            report["records"] = records
            report["probes"] = scaler.probes
            if tracer is not None:
                report["trace"] = tracer.raw()
        line(report=report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
