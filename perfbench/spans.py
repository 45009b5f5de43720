"""In-memory spans around padicdyn's public functions.

The tracer replaces each traced function at every module attribute that
refers to it (``backward.roots_mod_p`` and ``congruence.roots_mod_p`` are
the same function, looked up by different callers), so nothing inside
``src/`` changes.  A span is ``(name, start, end, parent)`` with
``parent`` the index of the enclosing span or -1.  Spans stay in memory
until ``summary()``; self time is a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# Modules whose attributes callers look functions up through.
MODULES = (
    "padicdyn",
    "padicdyn.backward",
    "padicdyn.congruence",
    "padicdyn.hensel",
    "padicdyn.parsing",
    "padicdyn.polynomial",
    "padicdyn.cli",
)

# (layer name, owner, attribute); owner is a module or "module:Class".
TIMED = (
    ("congruence.roots_mod_p", "padicdyn.congruence", "roots_mod_p"),
    ("congruence.solve_congruence_bruteforce", "padicdyn.congruence",
     "solve_congruence_bruteforce"),
    ("polynomial.FpPoly.roots", "padicdyn.polynomial:FpPoly", "roots"),
    ("hensel.hensel_lift", "padicdyn.hensel", "hensel_lift"),
    ("backward.preimages", "padicdyn.backward", "preimages"),
    ("backward.backward_tree", "padicdyn.backward", "backward_tree"),
    ("backward.to_json", "padicdyn.backward:BackwardTree", "to_json"),
    ("backward.to_dot", "padicdyn.backward:BackwardTree", "to_dot"),
    ("parsing.parse_poly", "padicdyn.parsing", "parse_poly"),
)
# hensel_step runs k - 1 times per lift: counted, never timed.
COUNTED = (("hensel.hensel_step", "padicdyn.hensel", "hensel_step"),)


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


# Work done per call, summed per layer as "<layer>.<unit>": nodes built,
# bytes written, residues scanned, levels lifted.
SIZES = {
    "backward.backward_tree": ("nodes", lambda args, kwargs, out: len(out)),
    "backward.to_json": ("bytes", lambda args, kwargs, out: len(out.encode())),
    "backward.to_dot": ("bytes", lambda args, kwargs, out: len(out.encode())),
    "congruence.solve_congruence_bruteforce":
        ("residues", lambda args, kwargs, out: _arg(args, kwargs, 2, "m")),
    "hensel.hensel_lift":
        ("levels", lambda args, kwargs, out: _arg(args, kwargs, 2, "k") - 1),
}


def self_times(spans) -> dict[str, list]:
    """Per span name: [count, total self seconds], where a span's self
    time is its duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, _) in enumerate(spans):
        entry = out[name]
        entry[0] += 1
        entry[1] += end - start - child_time[i]
    return dict(out)


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Records spans and counters while installed; a no-op otherwise."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, int] = defaultdict(int)
        self.root_keys: set = set()
        self._stack = [-1]
        self._patches: list[tuple] = []

    # Span recording -------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        parent = self._stack[-1]
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _timed(self, name: str, fn):
        span = self.span
        _, size = SIZES.get(name, (None, None))
        if name == "congruence.roots_mod_p":
            keys = self.root_keys

            def wrapper(f, target, p, *args, **kwargs):
                q = int(p)
                keys.add((f.coeffs, q, target % q))
                return span(name, fn, f, target, p, *args, **kwargs)
        elif size is not None:
            sizes = self.sizes

            def wrapper(*args, **kwargs):
                out = span(name, fn, *args, **kwargs)
                sizes[name] += size(args, kwargs, out)
                return out
        else:
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # Installation ----------------------------------------------------

    def install(self) -> None:
        """Replace every traced function wherever callers look it up."""
        if self._patches:
            return
        owners = [sys.modules[m] for m in MODULES if m in sys.modules]
        for specs, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for name, spec, attr in specs:
                owner = _owner(spec)
                original = getattr(owner, attr)
                wrapper = make(name, original)
                targets = [owner] if ":" in spec else owners
                for target in targets:
                    if getattr(target, attr, None) is original:
                        self._patches.append((target, attr, original))
                        setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # Results ----------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready aggregate: self times and counts per layer."""
        return {
            "self": self_times(self.spans),
            "counts": dict(self.counts),
            "sizes": dict(self.sizes),
            "root_keys": len(self.root_keys),
            "main_s": 0.0,
        }


def merge(total: dict, part: dict) -> dict:
    """Add one summary (another process's, say) into `total`."""
    for name, (n, self_s) in part["self"].items():
        entry = total["self"].setdefault(name, [0, 0.0])
        entry[0] += n
        entry[1] += self_s
    for key in ("counts", "sizes"):
        for name, v in part[key].items():
            total[key][name] = total[key].get(name, 0) + v
    total["root_keys"] += part["root_keys"]
    total["main_s"] += part["main_s"]
    return total
