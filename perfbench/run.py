"""The gamblesets benchmark.

    python3 perfbench/run.py --workload {cli-cold,lib-session,cone-lp} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the engine is imported from
``src/`` and nothing is installed. Every process the benchmark starts gets
``PYTHONPATH=src`` and ``PYTHONHASHSEED=0``, and all of them run on one CPU.
Scratch files go to ``.perfbench_work/`` in the checkout and are removed at
the end. Times are scaled to a fixed machine speed (see ``speed.py``).

Prints a human-readable table, then, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Every answer is compared with ``answers.json``; every positive
answer's certificates are re-verified, by the engine's verifier (timed) and
by the substitution checks in ``check.py`` (untimed). Negative answers are
only compared with the recorded answers: the engine emits no evidence for
them that could be re-verified. See README.md for why each workload and
metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from speed import Scaler  # noqa: E402

WORKLOADS = ("cli-cold", "lib-session", "cone-lp")
SETUP_PROBES = 7
RUN_BUDGET_S = 170  # every run must end within 180 s
CLI_TIMEOUT_S = 60


class Runner:
    """Starts, times and reaps the benchmark's child processes."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.scaler = Scaler()

    def spawn(self, argv: list[str], stdout: Path, timeout: float) -> dict:
        """Run one process to completion. Returns its exit code (None on
        timeout), wall time scaled as in ``speed.py``, peak resident memory
        and stderr."""
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0:
            return {"code": None, "rss_mb": 0.0, "stderr": "run budget exhausted"}
        err_path = self.work / "stderr.txt"
        killed = threading.Event()
        with open(stdout, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def kill() -> None:
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        code = None if killed.is_set() else proc.returncode
        result = {"code": code, "rss_mb": usage.ru_maxrss / 1024, "stderr": stderr}
        self.scaler.record(result, "time_s", wall)
        return result


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _worker(runner: Runner, args, trace: int, name: str, *extra: str) -> dict:
    """Run worker.py and return its report. If the worker is killed at the
    run budget or crashes, every planned query it left without a record is
    a failed operation; if it planned none, this raises."""
    out = runner.work / f"{name}.jsonl"
    argv = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
            str(args.seconds), str(trace), str(out), *extra]
    result = runner.spawn(argv, runner.work / f"{name}.out", RUN_BUDGET_S)
    lines = []
    if out.exists():
        for text in out.read_text(encoding="utf-8").splitlines():
            try:
                lines.append(json.loads(text))
            except ValueError:  # the line being written when it was killed
                break
    if result["code"] == 0 and lines and "report" in lines[-1]:
        report = lines[-1]["report"]
    else:
        why = ("timed out at the run budget" if result["code"] is None
               else f"worker exited with {result['code']}: {result['stderr'][-500:]}")
        plan = lines[0]["plan"] if lines and "plan" in lines[0] else []
        if not plan:
            raise RuntimeError(why)
        done = {json.dumps(x["record"]["key"]): x["record"] for x in lines if "record" in x}
        report = {"records": [done.get(json.dumps(key)) or {"op": op, "key": key, "error": why}
                              for op, key in plan],
                  "units": None, "probes": runner.scaler.probes, "import_s": None}
    report["process"] = result
    return report


def setup(runner: Runner, args) -> float:
    """Median time of fresh processes that import the engine and build the
    workload's inputs (for cli-cold, write its instance files)."""
    reports = [_worker(runner, args, 0, "setup", "--setup") for _ in range(SETUP_PROBES)]
    runner.scaler.finish()
    return statistics.median(r["process"]["time_s"] for r in reports)


def run_library(runner: Runner, args, trace: int, head=None) -> dict:
    extra = ["--head", str(head)] if head is not None else []
    report = _worker(runner, args, trace, "session", *extra)
    return {"records": report["records"], "rss_mb": report["process"]["rss_mb"],
            "units": report["units"], "trace": report.get("trace"),
            "import_s": report["import_s"], "probes": report["probes"]}


def _plain_payload_entries(payload: dict) -> dict:
    entries = {}
    for e in payload["sequences"]:
        key = tuple(check.vec(g) for g in e["sequence"])
        cert = e["certificate"]
        lam, rem = check.vec(cert["lambdas"]), check.vec(cert["remainder"])
        entries[key] = ("skip", lam, rem) if e["kind"] == "skip" else (
            "hit", check.vec(e["gamble"]), lam, rem)
    return entries


def _own_check_cli(payload: dict, instance: dict, candidate: bool) -> bool:
    """Substitution check of a positive CLI answer against the instance file:
    the witness list must be the instance's assessment, and every picking of
    it must carry a valid certificate."""
    named = {k: check.vec(v) for k, v in instance["gambles"].items()}
    wanted = {frozenset(named[n] for n in row) for row in instance["assessment"]}
    witness = [[check.vec(g) for g in s] for s in payload["witness_list"]]
    if {frozenset(s) for s in witness} != wanted or len(witness) != len(wanted):
        return False
    cand = sorted({named[n] for n in instance["query"]["set"]}) if candidate else []
    return check.ext_evidence_ok(witness, cand, _plain_payload_entries(payload))


def _gamblesets(runner: Runner, trace: int, *cli_args: str) -> list[str]:
    if trace:
        return [sys.executable, str(BENCH / "shim.py"), str(runner.work / "trace.json"), *cli_args]
    return [sys.executable, "-m", "gamblesets", *cli_args]


def cli_op(runner: Runner, trace: int, op: str, arg: int, traces: list) -> dict:
    """One cold CLI query, plus ``selftest --verify`` of every in-ext answer."""
    rec: dict = {"op": op, "key": arg, "procs": []}
    if op == "selftest":
        argv = _gamblesets(runner, trace, "selftest", "--seed", str(arg), "--trials", str(gen.CLI_SELFTEST_TRIALS))
    else:
        path = runner.work / f"cli-{arg}.json"
        argv = _gamblesets(runner, trace, op, str(path))
    out = runner.work / "answer.json"

    def run(argv, stdout: Path = out) -> dict:
        (runner.work / "trace.json").unlink(missing_ok=True)
        result = runner.spawn(argv, stdout, CLI_TIMEOUT_S)
        rec["procs"].append(result)
        if trace and result["code"] is not None:
            traces.append(json.loads((runner.work / "trace.json").read_text(encoding="utf-8")))
        if result["code"] != 0:
            raise RuntimeError(f"{' '.join(argv[-3:])} exited with {result['code']}: {result['stderr'][-500:]}")
        return json.loads(stdout.read_text(encoding="utf-8"))

    try:
        payload = run(argv)
        if op == "selftest":
            # The selftest draws its own instances; traced, its calls into
            # the reference code show whether they are the recorded ones.
            rec["fp"] = tracing.oracle_calls(traces[-1]) if trace else None
            rec["answer"] = payload["answer"]
            return rec
        instance = gen.cli_instance(arg)
        rec["fp"] = gen.fingerprint(instance)
        rec["answer"] = payload["answer"]
        if op == "equiv" and not payload["agree"]:
            raise RuntimeError("equiv: formulations disagree")
        member = payload["answer"] if op != "consistency" else not payload["answer"]
        if member:
            rec["own_check"] = _own_check_cli(payload, instance, op != "consistency")
        if op == "in-ext":
            rec["answer_bytes"] = out.stat().st_size
            verdict = run(_gamblesets(runner, trace, "selftest", "--verify", str(out)),
                          runner.work / "verdict.json")
            rec["verified"] = (
                verdict["answer"] is True
                and verdict["certificates_checked"] == len(payload["sequences"])
            )
    except Exception as exc:  # a failed operation, reported and counted
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def run_cli(runner: Runner, args, trace: int, head=None) -> dict:
    plan = gen.cli_plan(args.seed, gen.cli_files(args.seconds), gen.CLI_SELFTESTS)[:head]
    traces: list = []
    records = [cli_op(runner, trace, op, arg, traces) for op, arg in plan]
    runner.scaler.finish()
    for r in records:
        if "error" not in r:
            r["latency_s"] = r["procs"][0]["time_s"]
            if r["op"] == "in-ext":
                r["verify_s"] = r["procs"][1]["time_s"]
    rss = [p["rss_mb"] for r in records for p in r["procs"]]
    return {"records": records, "rss_mb": max(rss, default=0.0), "units": len(plan),
            "trace": tracing.merge(traces) if trace else None,
            "import_s": statistics.median(t["startup_s"] for t in traces) if traces else None,
            "probes": runner.scaler.probes}


# ---------------------------------------------------------------------------
# Correctness and metrics
# ---------------------------------------------------------------------------


def expected_answer(workload: str, rec: dict, answers: dict):
    """(fingerprint, answer) recorded for one operation."""
    if workload == "cone-lp":
        return tuple(answers["cone-lp"][rec["key"]])
    if workload == "lib-session":
        a, j = rec["key"]
        entry = answers["lib-session"][a]
        return (entry["fp"], entry["consistent"]) if j is None else tuple(entry["candidates"][j])
    if rec["op"] == "selftest":
        return answers["cli-selftest"][rec["key"]], True
    fp, member, consistent = answers["cli-cold"][rec["key"]]
    return fp, consistent if rec["op"] == "consistency" else member


def failure(workload: str, rec: dict, answers: dict):
    if "error" in rec:
        return rec["error"]
    fp, expected = expected_answer(workload, rec, answers)
    if rec["op"] == "selftest":
        if rec["fp"] is not None and rec["fp"] != fp:
            return ("selftest drew other instances than recorded: the engine's random "
                    "helpers changed; re-run record.py")
    elif rec["fp"] != fp:
        return "input differs from the recorded corpus; re-run record.py"
    if rec["answer"] != expected:
        return f"answer {rec['answer']} differs from the recorded {expected}"
    if rec.get("verified") is False:
        return "the engine's verifier rejected the certificates"
    if rec.get("own_check") is False:
        return "certificates fail the independent substitution check"
    return None


def end_to_end(records: list, rss_mb: float, setup_s: float) -> dict:
    """The end-to-end metrics. Latencies are left out when too few queries
    completed to give them (a failed run)."""
    lat = [r["latency_s"] for r in records if "latency_s" in r]
    ver = [r["verify_s"] for r in records if "verify_s" in r]
    metrics = {"setup_s": (setup_s, "s")}
    if len(lat) >= 2:
        q = statistics.quantiles(lat, n=100, method="inclusive")
        metrics["queries_per_s"] = (len(lat) / sum(lat), "1/s")
        metrics["query_p50_ms"] = (q[49] * 1000, "ms")
        metrics["query_p90_ms"] = (q[89] * 1000, "ms")
    if ver:
        metrics["verify_p50_ms"] = (statistics.median(ver) * 1000, "ms")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics


def _op_seconds(rec: dict) -> float:
    if "procs" in rec:
        return sum(p.get("time_s", 0.0) for p in rec["procs"])
    return rec.get("latency_s", 0.0) + rec.get("verify_s", 0.0)


def per_layer(result: dict, replay: dict) -> dict:
    """The per-layer metrics; the layer totals are missing when the traced
    worker did not finish (a failed run)."""
    raw = result["trace"]
    values = tracing.layer_metrics(raw) if raw is not None else {}
    units = {k: ("count" if isinstance(v, int) else "ratio" if k.endswith("_frac") else "s")
             for k, v in values.items()}
    metrics = {k: (v, units[k]) for k, v in values.items()}
    metrics["cli.answer_bytes"] = (sum(r.get("answer_bytes", 0) for r in result["records"]), "bytes")
    if result["import_s"] is not None:
        metrics["cli.startup_ms"] = (result["import_s"] * 1000, "ms")
    if replay is not None:
        traced = sum(_op_seconds(r) for r in result["records"][: len(replay["records"])])
        untraced = sum(_op_seconds(r) for r in replay["records"])
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.overhead_frac"] = ((traced - untraced) / untraced if untraced else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gamblesets" / "__init__.py").is_file():
        print(f"benchmark: no engine sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    answers = json.loads((BENCH / "answers.json").read_text(encoding="utf-8"))

    # One core for the benchmark and every process it starts, so that the
    # speed probes run where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, time.monotonic() + RUN_BUDGET_S)
        setup_s = setup(runner, args)
        run = run_cli if args.workload == "cli-cold" else run_library
        result = run(runner, args, args.trace)
        records = list(result["records"])
        replay = None
        if args.trace and result["units"] is not None:
            # The same first quarter of the list again, untraced, in fresh
            # processes: the difference is the tracing overhead.
            replay = run(runner, args, 0, head=max(1, result["units"] // 4))
            records += replay["records"]
    except Exception as exc:  # no query could be planned, e.g. the engine fails to import
        print(f"benchmark: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failures = [(r, failure(args.workload, r, answers)) for r in records]
    failures = [(r, why) for r, why in failures if why]
    for r, why in failures[:10]:
        print(f"FAILED {r['op']} {r['key']}: {why}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(result, replay)
    else:
        metrics = end_to_end(result["records"], result["rss_mb"], setup_s)

    verifies = sum(1 for r in result["records"] if "verify_s" in r)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(result['records'])} decision queries, "
          f"{verifies} verifications; failed {len(failures)} of {len(records)} operations "
          f"(failed_frac {len(failures) / len(records):.4f}); "
          f"speed probe median {statistics.median(result['probes']) * 1000:.3f} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
