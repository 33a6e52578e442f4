"""``python3 -m hsdual`` with tracing, for the traced run of cli-cold.

Usage: cli_shim.py <spans.npz> <hsdual arguments...>

Times ``import hsdual`` in this fresh interpreter, installs the tracer, runs
``hsdual.cli.main`` on the arguments (its stdout is the CLI's, unchanged),
records the duality cache counters at exit, writes the spans and exits with
the CLI's code.
"""

import sys
import time

t0 = time.perf_counter()
import hsdual  # noqa: E402

import_s = time.perf_counter() - t0

import hsdual.cli  # noqa: E402
import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.install()
tracer.op = 0
try:
    code = hsdual.cli.main(sys.argv[2:])
finally:
    sys.stdout.flush()
    tracer.count("cli.processes")
    tracer.count("cli.import_s", import_s)
    for key, stats in tracing.cache_snapshot().items():
        for stat, value in stats.items():
            tracer.count(f"cache.{key}.{stat}", value)
    tracer.dump(sys.argv[1])
sys.exit(code)
