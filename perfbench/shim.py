"""Traced entry point for one cold CLI query.

    python perfbench/shim.py TRACE_OUT <gamblesets arguments...>

Behaves like ``python -m gamblesets <arguments>`` (same stdout, stderr and
exit code) but installs the layer wrappers first and writes the layer totals
and the cold import time to TRACE_OUT on exit, so each query stays a fresh
process.
"""

import sys
import time

start = time.perf_counter()
import gamblesets.cli  # noqa: E402  (the import is what is timed)

startup_s = time.perf_counter() - start

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
try:
    code = gamblesets.cli.main(sys.argv[2:])
finally:
    sys.stdout.flush()
    tracer.dump(sys.argv[1], startup_s=startup_s)
sys.exit(code)
