"""One benchmark process: set up a workload, then measure it.

    python perfbench/worker.py --workload tree_smallp --seed 1 --part 0 --seconds 4 --trace 0

Set-up is ``import padicdyn``, input generation and untimed warm-up; its
wall time is ``setup_s``.  The timed loop then calls the workload in a
closed loop until ``--seconds`` have passed and checks every output
outside the timed region.  Part ``n`` of a run uses inputs no other part
uses.  With ``--trace 1`` every other pair of calls runs with the span
wrappers installed: per-layer figures come from those, and the other
calls give the untraced base that the tracing overhead is measured
against.  Prints one JSON object with the raw samples; ``run.py`` turns
the parts of a run into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def measure(wl, seconds: float, trace: bool) -> dict:
    import spans

    tracer = spans.Tracer()
    base: list[float] = []  # untraced calls that passed their check
    traced: list[float] = []
    interp: list[float] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        inp = wl.input(attempted)
        on = trace and (attempted // 2) % 2 == 1
        attempted += 1
        out = None
        if on:
            tracer.install()
        start = time.perf_counter()
        try:
            out = tracer.span("call", wl.call, inp, True) if on else wl.call(inp)
        except Exception:
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if on:
            tracer.uninstall()
            traced.append(elapsed)
        try:
            ok = out is not None and wl.check(inp, out)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            failed += 1
            print(f"{wl.name}: call {attempted - 1} failed", file=sys.stderr)
        elif not on:
            base.append(elapsed)
        if on and wl.name == "cli_cold":
            start = time.perf_counter()
            wl.interp_probe()
            interp.append(time.perf_counter() - start)

    summary = tracer.summary()
    for child in getattr(wl, "child_stats", ()):
        spans.merge(summary, child)
    # For cli_cold the calls run in child processes: report the largest.
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
    return {
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "base": base,
        "traced": traced,
        "interp": interp,
        "summary": summary,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import padicdyn

    if Path(padicdyn.__file__).resolve().parent != SRC / "padicdyn":
        print(f"padicdyn imported from {padicdyn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.part)
    wl.warmup()
    result = {"setup_s": time.perf_counter() - start}
    result.update(measure(wl, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
