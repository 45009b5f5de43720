"""padicdyn benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload tree_smallp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; padicdyn is imported from its ``src/``.
A run is ``PARTS`` fresh worker processes, one after another, each of
which sets up the workload (``import padicdyn``, input generation,
untimed warm-up) and then measures it for an equal share of
``--seconds`` on inputs of its own.  Pooling the calls of several
processes averages out what one process's memory layout does to its
speed; ``setup_s`` is the median of their set-up times.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The lines before it give every figure with its unit,
including ``fail_frac`` and which percentile ``call_ms_tail`` is.
``--workload all`` prints those lines for every workload and no JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tree_smallp", "step_largep", "oracle_scan", "cli_cold")
PARTS = 5
WORKER_TIMEOUT_S = 120

# A tail percentile over a whole run moves with how many short bursts
# from other tenants the run happened to catch, so the tail is taken per
# window of consecutive calls and the median over windows is reported.
TAIL_WINDOW = 200


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, windows): in each window of at least
    TAIL_WINDOW consecutive calls (one window if there are fewer), the
    highest percentile with at least 10 samples beyond it, i.e. the 11th
    largest call; the median of those over the windows."""
    windows = max(1, len(samples) // TAIL_WINDOW)
    size = len(samples) // windows
    values = []
    for w in range(windows):
        chunk = sorted(samples[w * size : (w + 1) * size if w < windows - 1 else None])
        idx = max(len(chunk) - 11, 0)
        values.append(chunk[idx])
    return statistics.median(values), 100.0 * (idx + 1) / len(chunk), windows


def per_layer(summary: dict, traced: list[float], base: list[float],
              interp: list[float]) -> dict:
    """Per-layer figures, each per traced top-level call."""
    calls = len(traced)
    selfs, counts, sizes = summary["self"], summary["counts"], summary["sizes"]
    out = {}
    for name, _, _ in spans.TIMED:
        n, self_s = selfs.get(name, (0, 0.0))
        out[f"{name}.calls"] = n / calls
        out[f"{name}.self_ms"] = self_s * 1e3 / calls
    for name, _, _ in spans.COUNTED:
        out[f"{name}.calls"] = counts.get(name, 0) / calls
    for name, (unit, _) in spans.SIZES.items():
        out[f"{name}.{unit}"] = sizes.get(name, 0) / calls
    roots_calls = selfs.get("congruence.roots_mod_p", (0, 0.0))[0]
    out["congruence.roots_mod_p.distinct_key_frac"] = (
        summary["root_keys"] / roots_calls if roots_calls else 0.0)
    out["cli.interp_ms"] = statistics.fmean(interp) * 1e3 if interp else 0.0
    out["cli.import_ms"] = selfs.get("cli.import", (0, 0.0))[1] * 1e3 / calls
    out["cli.main_ms"] = summary["main_s"] * 1e3 / calls
    # The self times of all spans add up to the top-level span; the
    # benchmark's share is the part no layer span covers (for cli_cold:
    # process start-up).
    top_ms = statistics.fmean(traced) * 1e3
    layers_ms = sum(v[1] for k, v in selfs.items() if k != "call") * 1e3 / calls
    out["bench.call.self_ms"] = top_ms - layers_ms
    out["trace.top_ms"] = top_ms
    out["trace.base_throughput"] = len(base) / sum(base)
    out["trace.overhead_frac"] = top_ms / (statistics.fmean(base) * 1e3) - 1
    return out


def worker(args: argparse.Namespace, workload: str, part: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--part", str(part),
           "--seconds", str(args.seconds / PARTS), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run(args: argparse.Namespace, workload: str, spec: dict) -> dict:
    parts = [worker(args, workload, part) for part in range(PARTS)]
    base = [t for p in parts for t in p["base"]]
    traced = [t for p in parts for t in p["traced"]]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    if not base or (args.trace and not traced):
        raise RuntimeError(f"{workload}: no call passed its check")

    value, pct, windows = tail(base)
    setups = [p["setup_s"] for p in parts]
    figures = {
        "throughput": len(base) / sum(base),
        "call_ms_p50": statistics.median(base) * 1e3,
        "call_ms_tail": value * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "fail_frac": failed / attempted,
    }
    if args.trace:
        summary = parts[0]["summary"]
        for p in parts[1:]:
            spans.merge(summary, p["summary"])
        interp = [t for p in parts for t in p["interp"]]
        figures.update(per_layer(summary, traced, base, interp))

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_frac"] = "frac"
    for name, value in figures.items():
        print(f"{workload:12s} {name:48s} {value:14.6g} {units.get(name, '')}")
    print(f"{workload:12s} call_ms_tail is p{pct:.2f}, median over {windows} "
          f"window(s) of {len(base)} untraced calls; {failed}/{attempted} calls "
          f"failed; set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "padicdyn" / "__init__.py").is_file():
        print(f"no padicdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.workload == "all":
            for w in spec["workloads"]:
                run(args, w["name"], spec)
            return 0
        result = run(args, args.workload, spec)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
