"""One-off comparison with the baseline table in ROADMAP.md.

    PYTHONPATH=src PYTHONHASHSEED=0 python perfbench/baseline_check.py

Times one cold library ``ext_contains`` per instance at four atoms with five
sets of three, each in a fresh process, raw and scaled as in ``speed.py``:

* ``roadmap``: the instances the ROADMAP baseline used,
  ``gen_instance(seed, omega_size=4, num_sets=5, set_size=3,
  coeff_range=3)`` for seeds 0-4 (262 ms per query there);
* ``lib-session``: the same size drawn by this benchmark's own generator,
  one candidate of each of the four kinds for each corpus assessment.

``oracle.gen_instance`` is used here only to reproduce the ROADMAP numbers;
no workload uses it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

import gen
from speed import NOMINAL_S

_ONE = """
import sys, time
sys.path.insert(0, {bench!r})
import gamblesets as gs
from gamblesets.oracle import InstanceGenConfig, gen_instance
import gen
from speed import probe
kind, i = sys.argv[1], int(sys.argv[2])
if kind == "roadmap":
    assessment, candidate = gen_instance(InstanceGenConfig(i, 4, 5, 3, 3))
else:
    space = gen.space(4)
    a, j = divmod(i, len(gen.CANDIDATE_KINDS))
    assessment = gs.Assessment.build(space, [gen.gamble_set(space, s) for s in gen.lib_assessment(a)])
    candidate = gen.gamble_set(space, gen.lib_candidate(a, j))
probes = [probe() for _ in range(3)]
start = time.perf_counter()
gs.ext_contains(assessment, candidate)
elapsed = time.perf_counter() - start
probes += [probe() for _ in range(3)]
print(elapsed, sorted(probes)[3])
"""


def cold_ms(kind: str, i: int) -> tuple[float, float]:
    """Raw and scaled (see speed.py) time of one cold query, in ms."""
    bench = str(Path(__file__).resolve().parent)
    out = subprocess.run(
        [sys.executable, "-c", _ONE.format(bench=bench), kind, str(i)],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    elapsed, speed = (float(v) for v in out.stdout.split())
    return elapsed * 1000, elapsed * NOMINAL_S / speed * 1000


def main() -> int:
    lib = range(gen.LIB_ASSESSMENTS * len(gen.CANDIDATE_KINDS))
    for kind, indices in (("roadmap", range(5)), ("lib-session", lib)):
        raw, scaled = zip(*(cold_ms(kind, i) for i in indices))
        print(f"{kind:<12} n={len(raw):<3} mean raw {statistics.mean(raw):6.1f} ms, "
              f"scaled {statistics.mean(scaled):6.1f} ms; "
              f"range raw {min(raw):.1f}-{max(raw):.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
