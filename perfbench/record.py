"""Record the answers every benchmark run is checked against.

    PYTHONPATH=src PYTHONHASHSEED=0 python perfbench/record.py

Answers every corpus entry of every workload with the engine and refuses to
record one that no independent path confirms:

* a "yes" must carry certificates that pass the substitution checks of
  ``check.py``;
* a "no" must come with refutations that pass ``check.refutation_ok``: for a
  cone query, of the query itself; for a natural-extension query, of the
  failed picking (zero and every candidate lie outside its cone);
* natural-extension answers must also agree with ``ext_contains_indicator``
  and ``ext_contains_split``, and, where its search stays under a small cap,
  with the Fourier-Motzkin brute force ``brute_ext_contains``.

Writes ``perfbench/answers.json`` afresh, with a fingerprint of each input
and a tally of the checks that confirmed the answers. For each ``cli-cold``
selftest seed it records the calls into the reference code that a traced
``gamblesets selftest`` makes (``tracing.oracle_calls``); the selftest's
answer is its own cross-check of the engine against that code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import check
import gen
import tracing
import gamblesets as gs
from gamblesets.oracle import BruteCapExceeded

ANSWERS = Path(__file__).with_name("answers.json")
BRUTE_CAP = 2_000


class Unconfirmed(RuntimeError):
    pass


def feasible_point(rows, num_vars):
    lp = gs.LinearProgram.build([0] * num_vars, rows)
    outcome = gs.lp_solve(lp)
    return outcome.assignment if isinstance(outcome, gs.Optimal) else None


def _confirm_no(gens, f, strict, tally, what):
    if check.refute(gens, f, strict, feasible_point) is None:
        raise Unconfirmed(f"{what}: no refutation found for a negative answer")
    tally["refutation"] += 1


def confirm_ext(assessment, candidate, tally, what) -> bool:
    """Engine answer for one natural-extension query, confirmed or raised."""
    answer = gs.ext_contains(assessment, candidate)
    sets = [[check.vec(g.values) for g in s.members] for s in assessment.sets]
    cand = [check.vec(g.values) for g in candidate.members]
    if answer.member:
        if not check.ext_evidence_ok(sets, cand, check.ext_entries(answer.per_sequence)):
            raise Unconfirmed(f"{what}: certificates fail substitution")
        tally["certificate"] += 1
    else:
        seq = [check.vec(g.values) for g in answer.failed_sequence]
        if len(seq) != len(sets) or any(g not in s for g, s in zip(seq, sets)):
            raise Unconfirmed(f"{what}: failed sequence is not a picking")
        gens = check.dedup(seq)
        zero = (Fraction(0),) * assessment.space.size
        for f in [zero] + cand:
            _confirm_no(gens, f, False, tally, what)
    for name in ("ext_contains_indicator", "ext_contains_split"):
        if getattr(gs, name)(assessment, candidate).member != answer.member:
            raise Unconfirmed(f"{what}: {name} disagrees")
        tally[name] += 1
    try:
        brute = gs.brute_ext_contains(assessment, candidate, cap=BRUTE_CAP)
    except BruteCapExceeded:
        pass
    else:
        if brute != answer.member:
            raise Unconfirmed(f"{what}: brute_ext_contains disagrees")
        tally["brute_ext_contains"] += 1
    return answer.member


def record_cone(tally) -> list:
    out = []
    seen = set()
    for i in range(gen.CONE_QUERIES):
        q = gen.cone_query(i)
        key = tuple(q["generators"])
        if key in seen:
            raise Unconfirmed(f"cone-lp {i}: generator list repeats")
        seen.add(key)
        space = gen.space(q["omega"])
        E = gs.ConeGenerators.build(space, [gs.gamble(space, v) for v in q["generators"]])
        target = q["gamble"] or (0,) * q["omega"]
        f = gs.gamble(space, target)
        strict = q["kind"] == "strict"
        if q["kind"] == "zero":
            cert = gs.zero_in_desext(E)
        else:
            cert = (gs.desext_contains_strict if strict else gs.desext_contains)(E, f)
        gens = [check.vec(v) for v in q["generators"]]
        if cert is not None:
            if not check.cert_ok(check.vec(cert.lambdas), check.vec(cert.remainder.values),
                                 gens, check.vec(target), strict):
                raise Unconfirmed(f"cone-lp {i}: certificate fails substitution")
            tally["certificate"] += 1
        else:
            _confirm_no(gens, check.vec(target), strict, tally, f"cone-lp {i}")
        out.append([gen.fingerprint(q), cert is not None])
    return out


def record_lib(tally) -> list:
    out = []
    space = gen.space(4)
    for a in range(gen.LIB_ASSESSMENTS):
        sets = gen.lib_assessment(a)
        assessment = gs.Assessment.build(space, [gen.gamble_set(space, s) for s in sets])
        empty = gen.gamble_set(space, ())
        consistent = not confirm_ext(assessment, empty, tally, f"lib-session {a}")
        cands = []
        for j in range(gen.LIB_CANDIDATES):
            cand = gen.lib_candidate(a, j)
            B = gen.gamble_set(space, cand)
            member = confirm_ext(assessment, B, tally, f"lib-session {a}:{j}")
            cands.append([gen.fingerprint([sets, cand]), member])
        out.append({"fp": gen.fingerprint(sets), "consistent": consistent, "candidates": cands})
        print(f"lib-session {a} recorded", file=sys.stderr)
    return out


def record_cli(tally) -> list:
    out = []
    for i in range(gen.CLI_FILES):
        inst = gen.cli_instance(i)
        space = gen.space(len(inst["omega"]))

        def gset(names):
            return gen.gamble_set(space, [inst["gambles"][n] for n in names])

        assessment = gs.Assessment.build(space, [gset(row) for row in inst["assessment"]])
        member = confirm_ext(assessment, gset(inst["query"]["set"]), tally, f"cli-cold {i}")
        consistent = not confirm_ext(assessment, gset(()), tally, f"cli-cold {i} consistency")
        out.append([gen.fingerprint(inst), member, consistent])
    return out


def record_selftest(tally) -> list:
    out = []
    bench = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(bench.parent / "src"), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.json"
        for seed in range(gen.CLI_SELFTEST_SEEDS):
            argv = [sys.executable, str(bench / "shim.py"), str(trace), "selftest",
                    "--seed", str(seed), "--trials", str(gen.CLI_SELFTEST_TRIALS)]
            run = subprocess.run(argv, env=env, capture_output=True, text=True)
            if run.returncode != 0 or json.loads(run.stdout)["answer"] is not True:
                raise Unconfirmed(f"selftest {seed}: the engine disagrees with the reference code")
            tally["selftest"] += 1
            out.append(tracing.oracle_calls(json.loads(trace.read_text())))
    return out


RECORDERS = {
    "cone-lp": record_cone,
    "lib-session": record_lib,
    "cli-cold": record_cli,
    "cli-selftest": record_selftest,
}


def main() -> int:
    data: dict = {"checks": {}}
    for name, recorder in RECORDERS.items():
        tally: Counter = Counter()
        data[name] = recorder(tally)
        data["checks"][name] = dict(sorted(tally.items()))
        print(f"{name}: {data['checks'][name]}", file=sys.stderr)
    ANSWERS.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
