"""The four benchmark workloads: seeded inputs, the timed call, and the
correctness check applied to each call's output outside the timed region.

Every workload is a closed loop with one caller.  Input ``i`` of a run is
a pure function of ``(seed, i)``, so the same seed gives the same inputs.
Part ``n`` of a run (one worker process) starts at index
``n * PART_STRIDE`` and warms up on negative indices, so no input repeats
within a run and the timed loop never meets a warm-up input.  Parameters
that set a call's cost are spread over their range by a golden-ratio
sequence with a seeded offset rather than drawn independently, so every
run sees the same cost mix and run-to-run differences come from the
program, not from the draw.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from padicdyn import IntPoly, backward, congruence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "cli_child.py"

# Hold-out seed: never used while tuning the benchmark, so a claimed gain
# can be re-checked on inputs the change was not written against.
HOLDOUT_SEED = 104729

_PHI = (5**0.5 - 1) / 2
PART_STRIDE = 1_000_000


def rng_for(seed: int, i: int) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"padicdyn-bench/{seed}/{i}")


def spread(seed: int, i: int) -> float:
    """Low-discrepancy point in [0, 1) for input i of a run."""
    return (random.Random(seed).random() + i * _PHI) % 1.0


@cache
def primes_between(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for n in range(2, int(hi**0.5) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytearray(len(range(n * n, hi + 1, n)))
    return [n for n in range(lo, hi + 1) if sieve[n]]


def eval_mod(f: IntPoly, x: int, m: int) -> int:
    """f(x) mod m by Horner's rule; the checks use this, not the library's."""
    total = 0
    for c in reversed(f.coeffs):
        total = (total * x + c) % m
    return total


def translated_power(a: int, e: int) -> IntPoly:
    """(x + a)^e - a: conjugate to y^e by y = x + a, so its preimage
    tree from 1 - a has the shape of y^e's tree from 1."""
    return IntPoly((a, 1)) ** e - a


class Workload:
    name = ""
    pool_size = 0
    warmup_calls = 0

    def __init__(self, seed: int, part: int = 0):
        self.seed = seed
        self.offset = part * PART_STRIDE
        self._pool = [self.generate(self.offset + i) for i in range(self.pool_size)]

    def input(self, i: int):
        """The i-th timed input of this part."""
        return self._pool[i] if i < len(self._pool) else self.generate(self.offset + i)

    def warmup(self) -> None:
        for j in range(1, self.warmup_calls + 1):
            inp = self.generate(-self.offset - j)
            if not self.check(inp, self.call(inp)):
                raise RuntimeError(f"{self.name}: warm-up call {-j} failed its check")

    def generate(self, i: int):
        raise NotImplementedError

    def call(self, inp, traced: bool = False):
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError


class TreeSmallP(Workload):
    """backward_tree + to_json + to_dot on translated power maps mod 257^3."""

    name = "tree_smallp"
    pool_size = 80
    warmup_calls = 4
    P, K = 257, 3
    # exponent -> (depth, node count of y^e's tree from 1)
    SHAPES = {2: (9, 767), 4: (5, 597)}

    def generate(self, i):
        e = 2 if i % 2 == 0 else 4
        a = rng_for(self.seed, i).randrange(1, self.P**self.K)
        return translated_power(a, e), (1 - a) % self.P**self.K, self.SHAPES[e]

    def call(self, inp, traced=False):
        f, seed, (depth, _) = inp
        tree = backward.backward_tree(f, seed, self.P, self.K, depth)
        return tree, tree.to_json(), tree.to_dot()

    def check(self, inp, out):
        f, seed, (depth, count) = inp
        tree, text, dot = out
        q, m = self.P, self.P**self.K
        nodes = tree.nodes
        if len(nodes) != count or not tree.complete or nodes[0].value != seed:
            return False
        for n in nodes[1:]:
            parent = nodes[n.parent].value
            if n.status == "singular-leaf":
                if eval_mod(f, n.value, q) != parent % q:
                    return False
            elif eval_mod(f, n.value, m) != parent:
                return False
        dumped = json.loads(text)["nodes"]
        return (
            [d["value"] for d in dumped] == [n.value for n in nodes]
            and dot.count(" -> ") == count - 1
        )


class StepLargeP(Workload):
    """One-shot preimages(f, t, p, k) with p ~ 2-6e4 and k ~ 150-300."""

    name = "step_largep"
    pool_size = 160
    warmup_calls = 4

    def generate(self, i):
        rng = rng_for(self.seed, i)
        u = spread(self.seed, i)
        e = 2 if i % 2 == 0 else 3
        # The O(p) root scan grows with u and the linear lift shrinks with
        # it, so every call costs about the same.  Cubics use p = 2 mod 3,
        # where cubing permutes F_p: exactly one root, as quadratics have
        # exactly two.
        lo = 20_000 + int(40_000 * u)
        p = next(q for q in primes_between(20_000, 60_100)
                 if q >= lo and (e == 2 or q % 3 == 2))
        k = 300 - round(150 * u)
        m = p**k
        a = rng.randrange(m)
        r = rng.randrange(m)
        while (r + a) % p == 0:
            r = rng.randrange(m)
        f = translated_power(a, e)
        return f, eval_mod(f, r, m), p, k, r, 2 if e == 2 else 1

    def call(self, inp, traced=False):
        f, t, p, k, _, _ = inp
        return backward.preimages(f, t, p, k)

    def check(self, inp, out):
        f, t, p, k, r, n_roots = inp
        lifted, singular = out
        m = p**k
        return (
            not singular
            and len(lifted) == n_roots
            and r % m in lifted
            and all(eval_mod(f, x, m) == t for x in lifted)
        )


class OracleScan(Workload):
    """Exhaustive solve_congruence_bruteforce over composite m."""

    name = "oracle_scan"
    pool_size = 400
    warmup_calls = 6
    # degree -> modulus range; the vectorized Horner pass costs about
    # m * (deg + 1), so each range keeps that product in [1.2e6, 2.4e6].
    M_RANGE = {2: (400_000, 800_000), 3: (300_000, 600_000), 4: (240_000, 480_000)}

    def generate(self, i):
        rng = rng_for(self.seed, i)
        d = 2 + i % 3
        lo, hi = self.M_RANGE[d]
        m = lo + int((hi - lo) * spread(self.seed, i))
        if all(m % q for q in range(2, int(m**0.5) + 1)):
            m += 1  # an odd prime plus one is even
        coeffs = [rng.randrange(-999, 1000) for _ in range(d)] + [rng.randrange(1, 10)]
        f = IntPoly(tuple(coeffs))
        r = rng.randrange(m)
        return f, eval_mod(f, r, m), m, r

    def call(self, inp, traced=False):
        f, t, m, _ = inp
        return congruence.solve_congruence_bruteforce(f, t, m)

    def check(self, inp, out):
        f, t, m, r = inp
        return (
            r in out
            and all(0 <= x < m for x in out)
            and all(a < b for a, b in zip(out, out[1:]))
            and all(eval_mod(f, x, m) == t for x in out)
        )


# --- cli_cold ---------------------------------------------------------


def _ints(text: str) -> list[int]:
    return [] if text.strip() in ("", "none") else [int(v) for v in text.split()]


def _roots_answer(fmt, out):
    if fmt == "json":
        return [[r["residue"], r["singular"], r["derivative_residue"]] for r in out["roots"]]
    rows = []
    for line in out.splitlines():
        if line != "no roots":
            a, kind, d = line.split()
            rows.append([int(a), kind == "singular", int(d.split("=")[1])])
    return rows


def _lift_answer(fmt, out):
    if fmt == "json":
        if out["root"] != out["ladder"][-1]:
            return None
        return [out["ladder"], out["digits"]]
    ladder, digits = out.splitlines()
    return [_ints(ladder.split(":")[1]), _ints(digits.split(":")[1])]


def _preimages_answer(fmt, out):
    if fmt == "json":
        return [out["lifted"], [r["residue"] for r in out["singular"]]]
    lifted, singular = out.splitlines()
    return [_ints(lifted.split(":")[1]), _ints(singular.split(":")[1])]


ANSWERS = {
    "roots": _roots_answer,
    "oracle": lambda fmt, out: out["solutions"] if fmt == "json" else _ints(
        out.replace("no solutions", "")),
    "lift": _lift_answer,
    "preimages": _preimages_answer,
    "tree": lambda fmt, out: out["nodes"] if fmt == "json" else out,
    "orbit": lambda fmt, out: out["orbit"] if fmt == "json" else _ints(out.splitlines()[0]),
    "dist": lambda fmt, out: out["distance"] if fmt == "json" else out.strip(),
}
TEXT_FORMAT = {"tree": "dot"}


def cli_case(seed: int, i: int):
    """argv and expected answer for CLI call i: the seven subcommands in
    turn, each once in json and once in a text format per 14 calls.
    Expected answers come from exhaustive search or closed forms, except
    the tree, which comes from the in-process library call."""
    rng = rng_for(seed, i)
    small_primes = primes_between(11, 997)
    sub = list(ANSWERS)[i % 7]
    fmt = "json" if (i // 7) % 2 == 0 else TEXT_FORMAT.get(sub, "table")
    p = rng.choice(small_primes)
    a = rng.randrange(1, p * p)
    power = f"(x+{a})^2-{a}"

    def planted(k):
        # r with (r + a) != 0 mod p: a nonsingular root of (x+a)^2 - a = t
        m = p**k
        r = rng.randrange(m)
        while (r + a) % p == 0:
            r = rng.randrange(m)
        return r, ((r + a) ** 2 - a) % m

    if sub == "roots":
        e = rng.choice((2, 3))
        t = ((rng.randrange(p) + a) ** e - a) % p
        argv = [f"--poly=(x+{a})^{e}-{a}", f"--prime={p}", f"--target={t}"]
        expected = []
        for x in range(p):
            if ((x + a) ** e - a - t) % p == 0:
                d = e * (x + a) ** (e - 1) % p
                expected.append([x, d == 0, d])
    elif sub == "oracle":
        m = rng.randrange(1_000, 10_000)
        c = [rng.randrange(-99, 100) for _ in range(2)] + [rng.randrange(1, 10)]
        poly = f"{c[2]}x^2{c[1]:+d}x{c[0]:+d}"
        r = rng.randrange(m)
        t = (c[2] * r * r + c[1] * r + c[0]) % m
        argv = [f"--poly={poly}", f"--modulus={m}", f"--target={t}"]
        expected = [x for x in range(m) if (c[2] * x * x + c[1] * x + c[0] - t) % m == 0]
    elif sub == "lift":
        k = rng.randrange(5, 26)  # p^k stays under the CLI's 2^256 cap
        r, t = planted(k)
        argv = [f"--poly={power}", f"--prime={p}", f"--precision={k}",
                f"--seed={r % p}", f"--target={t}"]
        expected = [[r % p**j for j in range(1, k + 1)],
                    [r // p**j % p for j in range(k)]]
    elif sub == "preimages":
        k = rng.randrange(3, 21)
        r, t = planted(k)
        argv = [f"--poly={power}", f"--prime={p}", f"--precision={k}", f"--target={t}"]
        expected = [sorted({r, (-r - 2 * a) % p**k}), []]
    elif sub == "tree":
        p = rng.choice([q for q in small_primes if q < 100])
        a = rng.randrange(1, p * p)
        seed_value = (1 - a) % (p * p)
        argv = [f"--poly=(x+{a})^2-{a}", f"--prime={p}", "--precision=2",
                f"--seed={seed_value}", "--depth=3"]
        tree = backward.backward_tree(translated_power(a, 2), seed_value, p, 2, 3)
        expected = tree.to_json_dict()["nodes"] if fmt == "json" else tree.to_dot()
    elif sub == "orbit":
        k = rng.randrange(2, 7)
        steps = rng.randrange(20, 61)
        c = [rng.randrange(-99, 100) for _ in range(3)]
        m = p**k
        x = rng.randrange(m)
        argv = [f"--poly={c[2]}x^2{c[1]:+d}x{c[0]:+d}", f"--prime={p}",
                f"--precision={k}", f"--seed={x}", f"--steps={steps}"]
        expected = [x]
        for _ in range(steps):
            x = (c[2] * x * x + c[1] * x + c[0]) % m
            expected.append(x)
    else:  # dist
        n = rng.randrange(5, 21)
        s = [rng.randrange(1000) for _ in range(n)]
        t = [rng.randrange(1000) for _ in range(n)]
        argv = [f"--s={','.join(map(str, s))}", f"--t={','.join(map(str, t))}",
                f"--prime={p}"]
        expected = str(sum((Fraction(abs(x - y), p**j) for j, (x, y) in
                            enumerate(zip(s, t))), Fraction(0)))
    return [sub, *argv, f"--format={fmt}"], expected


class CliCold(Workload):
    """One `python -m padicdyn.cli` process per call."""

    name = "cli_cold"
    pool_size = 42
    warmup_calls = 3

    def __init__(self, seed, part=0):
        import jsonschema
        from padicdyn.schemas import SCHEMAS

        self._validate = jsonschema.validate
        self._invalid = jsonschema.ValidationError
        self._schemas = SCHEMAS
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env
        self.child_stats: list[dict] = []
        super().__init__(seed, part)

    def generate(self, i):
        return cli_case(self.seed, i)

    def _run(self, cmd):
        return subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=ROOT, timeout=60)

    def call(self, inp, traced=False):
        argv, _ = inp
        if not traced:
            return self._run([sys.executable, "-m", "padicdyn.cli", *argv])
        # The benchmark's child program times the import and main() apart
        # and reports its spans as the last line of stderr.
        proc = self._run([sys.executable, str(CHILD), *argv])
        self.child_stats.append(json.loads(proc.stderr.splitlines()[-1]))
        return proc

    def interp_probe(self) -> subprocess.CompletedProcess:
        return self._run([sys.executable, "-c", "pass"])

    def check(self, inp, proc):
        argv, expected = inp
        if proc.returncode != 0:
            return False
        sub, fmt = argv[0], argv[-1].split("=")[1]
        out = proc.stdout
        if fmt == "json":
            out = json.loads(out)
            try:
                self._validate(out, self._schemas[sub])
            except self._invalid:
                return False
        elif fmt == "dot":
            return out == expected
        return ANSWERS[sub](fmt, out) == expected


WORKLOADS = {w.name: w for w in (TreeSmallP, StepLargeP, OracleScan, CliCold)}
