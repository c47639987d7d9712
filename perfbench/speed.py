"""Scaling measured times to a fixed machine speed.

On a shared host the speed of one core can change by a factor of up to two
within seconds, as other tenants' load comes and goes; on the 2-core machine
this benchmark was calibrated on, the same loop alternated between about 42
and 77 ms. Unscaled, that noise alone spreads a 25-second run's medians by
more than the benchmark's bounds.

So every timed operation is followed by a probe: a fixed piece of
exact-rational arithmetic, the kind of work the engine does, run on the same
core (``run.py`` pins the benchmark and its children to one CPU). An
operation's time is scaled by ``NOMINAL_S`` over the probe time measured
around it. A change to the engine cannot change the probe, so a slower
engine still reports slower times.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# The probe's time at the speed times are reported at: about the probe's
# time on an uncontended core of the calibration machine.
NOMINAL_S = 0.001


def probe() -> float:
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 500):
        total += Fraction(1, i % 7 + 1)
    return perf_counter() - start


class Scaler:
    """Scales each operation's time by the probes around it.

    The probe after each operation is recorded; an operation's factor uses
    the median of the three probes before it and the three after it, since
    one 1-ms probe is itself noisy.
    """

    def __init__(self) -> None:
        self.probes: list[float] = [probe()]
        self._pending: list[tuple[dict, str, float, int]] = []

    def record(self, target: dict, key: str, raw_s: float) -> None:
        """Call right after an operation that took ``raw_s`` seconds;
        :meth:`finish` stores its scaled time as ``target[key]``."""
        self.probes.append(probe())
        self._pending.append((target, key, raw_s, len(self.probes) - 1))

    def finish(self) -> None:
        for target, key, raw_s, after in self._pending:
            window = self.probes[max(0, after - 3): after + 3]
            target[key] = raw_s * NOMINAL_S / statistics.median(window)
        self._pending.clear()
