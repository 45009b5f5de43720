"""Child program for the traced cli_cold run.

Runs ``padicdyn.cli.main(argv)`` as ``python -m padicdyn.cli`` would,
timing the import of ``padicdyn.cli`` and the call to ``main`` apart and
recording the library spans under ``main``.  The CLI's stdout is left
untouched; the span summary is written as the last line of stderr.

    python perfbench/cli_child.py roots --poly x^2 --prime 7 --target 2
"""

import json
import sys
import time

start = time.perf_counter()
import padicdyn.cli as cli  # noqa: E402

import_s = time.perf_counter() - start

import spans  # noqa: E402

tracer = spans.Tracer()
tracer.install()
code = tracer.span("cli.main", cli.main, sys.argv[1:])
sys.stdout.flush()
summary = tracer.summary()
summary["self"]["cli.import"] = [1, import_s]
_, main_start, main_end, _ = tracer.spans[0]
summary["main_s"] = main_end - main_start
print(json.dumps(summary), file=sys.stderr)
sys.exit(code)
