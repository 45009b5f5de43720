import importlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import padicdyn
from padicdyn import (
    BudgetExceededError,
    IntPoly,
    backward,
    cli,
    congruence,
    format_poly,
    parse_poly,
    work,
)
from padicdyn.cli import main
from padicdyn.schemas import SCHEMAS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def run_python(*args, timeout=5):
    """Run a fresh interpreter with the package importable, as a user
    runs the CLI; a memory cap keeps a runaway child from growing large."""
    env = dict(os.environ, PYTHONPATH=str(Path(padicdyn.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=timeout, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
    )


def timed(call, *args):
    start = time.perf_counter()
    call(*args)
    return time.perf_counter() - start


def loaded_after(code, *modules):
    """Run `code` in a fresh interpreter; whether each of `modules`
    (numpy and concurrent.futures unless given) is loaded after it, and
    how many threads run.  The modules are read before the report
    imports json."""
    modules = list(modules or ("numpy", "concurrent.futures"))
    proc = run_python("-c", code + (
        "\nimport sys\n"
        f"loaded = [m in sys.modules for m in {modules!r}]\n"
        "import json, threading\n"
        "print(json.dumps(loaded + [threading.active_count()]))"
    ))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestSubcommands:
    def test_oracle_paper_example(self, capsys):
        code, payload = run_json(
            capsys, "oracle", "--poly", "x^2-7x+2", "--modulus", "10"
        )
        assert code == 0
        assert payload["solutions"] == [3, 4, 8, 9]
        jsonschema.validate(payload, SCHEMAS["oracle"])

    def test_roots(self, capsys):
        code, payload = run_json(
            capsys, "roots", "--poly", "x^2", "--prime", "7", "--target", "2"
        )
        assert code == 0
        assert [r["residue"] for r in payload["roots"]] == [3, 4]
        assert payload["degenerate"] is False
        jsonschema.validate(payload, SCHEMAS["roots"])

    def test_lift_ladder(self, capsys):
        code, payload = run_json(
            capsys,
            "lift", "--poly", "x^2-2", "--prime", "7", "--precision", "3",
            "--seed", "3",
        )
        assert code == 0
        assert payload["ladder"] == [3, 10, 108]
        assert payload["root"] == 108
        assert payload["digits"] == [3, 1, 2]
        jsonschema.validate(payload, SCHEMAS["lift"])

    def test_preimages(self, capsys):
        code, payload = run_json(
            capsys,
            "preimages", "--poly", "x^2", "--prime", "7", "--precision", "2",
            "--target", "2",
        )
        assert code == 0
        assert payload["lifted"] == [10, 39]
        assert payload["singular"] == []
        jsonschema.validate(payload, SCHEMAS["preimages"])

    def test_tree_json(self, capsys):
        code, payload = run_json(
            capsys,
            "tree", "--poly", "x^2", "--prime", "7", "--precision", "1",
            "--seed", "2", "--depth", "2",
        )
        assert code == 0
        assert len(payload["nodes"]) == 5
        assert payload["complete"] is True
        jsonschema.validate(payload, SCHEMAS["tree"])

    def test_tree_dot(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "tree", "--poly", "x^2", "--prime", "7", "--precision", "1",
            "--seed", "2", "--depth", "2", "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph backward_tree {")
        assert out.count("label=") == 5
        assert out.count("->") == 4

    def test_orbit(self, capsys):
        code, payload = run_json(
            capsys,
            "orbit", "--poly", "x^2", "--prime", "7", "--precision", "1",
            "--seed", "3", "--steps", "3",
        )
        assert code == 0
        assert payload["orbit"] == [3, 2, 4, 2]
        assert payload["preperiodic"] is True
        assert payload["tail_length"] == 1
        assert payload["cycle_length"] == 2
        jsonschema.validate(payload, SCHEMAS["orbit"])

    def test_dist_series(self, capsys):
        code, payload = run_json(
            capsys, "dist", "--s", "0,2,0", "--t", "0,0,1", "--prime", "5"
        )
        assert code == 0
        assert payload["distance"] == "11/25"
        jsonschema.validate(payload, SCHEMAS["dist"])

    def test_dist_first_diff(self, capsys):
        code, payload = run_json(
            capsys, "dist", "--s", "1,2,3,4", "--t", "1,2,3,9",
            "--metric", "first-diff",
        )
        assert code == 0
        assert payload["distance"] == "1/8"
        jsonschema.validate(payload, SCHEMAS["dist"])

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--poly", "x^2-7x+2", "--modulus", "10",
            "--format", "table",
        )
        assert code == 0
        assert out == "3 4 8 9\n"


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        argv = [
            "tree", "--poly", "x^2-2", "--prime", "7", "--precision", "3",
            "--seed", "2", "--depth", "3",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        _, dot1, _ = run_cli(capsys, *argv, "--format", "dot")
        _, dot2, _ = run_cli(capsys, *argv, "--format", "dot")
        assert dot1 == dot2


class TestLargePrime:
    def test_roots_at_a_ten_digit_prime_finishes(self):
        # a cold process, as a user runs it; the O(p) scan this replaces
        # did not finish within 10 s
        proc = run_python(
            "-m", "padicdyn.cli", "roots", "--poly", "x^2-2", "--prime", "1000000007"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert [r["residue"] for r in payload["roots"]] == [59713600, 940286407]
        jsonschema.validate(payload, SCHEMAS["roots"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["roots", "--poly", "1000000007x", "--prime", "1000000007"],
            ["preimages", "--poly", "1000000007x^2+5", "--prime", "1000000007",
             "--precision", "2", "--target", "5"],
            ["tree", "--poly", "1000000007x^2+5", "--prime", "1000000007",
             "--precision", "1", "--seed", "5", "--depth", "2"],
            # listing the 10^6 + 3 residues took 11 s and 1 GB
            ["roots", "--poly", "1000003x", "--prime", "1000003"],
            ["preimages", "--poly", "1000003x^2+5", "--prime", "1000003",
             "--precision", "2", "--target", "5"],
        ],
        ids=["roots", "preimages", "tree", "roots-1000003", "preimages-1000003"],
    )
    def test_degenerate_congruence_is_refused_at_once(self, argv):
        # every one of the p residues is a root; listing them would
        # build one object per residue
        proc = run_python("-m", "padicdyn.cli", *argv, timeout=1)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        p = argv[argv.index("--prime") + 1]
        assert f"every residue mod {p}; listing all of them is refused above " \
            "100000" in payload["error"]["message"]

    def test_library_refuses_the_degenerate_congruence(self):
        # each call ended in a MemoryError under the child's 2 GiB cap
        proc = run_python("-c", (
            "from padicdyn import *\n"
            "p = 10**9 + 7\n"
            "for call in (lambda: roots_mod_p(IntPoly((0, p)), 0, p),\n"
            "             lambda: preimages(IntPoly((5, 0, p)), 5, p, 2),\n"
            "             lambda: backward_tree(IntPoly((5, 0, p)), 5, p, 2, 2)):\n"
            "    try:\n"
            "        call()\n"
            "    except PadicDynError as exc:\n"
            "        print(exc)\n"
        ), timeout=1)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"f(x) = {t} holds for every residue mod 1000000007; listing all "
            "of them is refused above 100000"
            for t in (0, 5, 5)
        ]

    def test_library_lists_every_residue_as_singular_at_any_degree(self):
        # f - t = p g, so f' = p g' vanishes at every residue; evaluating
        # f' of degree 999 at each of the 99991 residues took 30 s
        proc = run_python("-c", (
            "from padicdyn import IntPoly, roots_mod_p\n"
            "p = 99991\n"
            "f = IntPoly((1,)) + IntPoly((1, 1)) ** 1000 * p + 1\n"
            "roots = roots_mod_p(f, 2, p)\n"
            "print(len(roots), {(r.singular, r.derivative_residue) for r in roots})\n"
        ), timeout=2)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[0] == "99991 {(True, 0)}"

    def test_degenerate_congruence_at_small_prime_lists_every_residue(self, capsys):
        code, payload = run_json(capsys, "roots", "--poly", "7x", "--prime", "7")
        assert code == 0
        assert payload["degenerate"] is True
        assert [r["residue"] for r in payload["roots"]] == list(range(7))


class TestParserLimits:
    @pytest.mark.parametrize(
        "poly",
        ["(" * 5000 + "x" + ")" * 5000, "((x+1)^1000)^1000", "(x+1)^10000",
         "(99^10000)^10000"],
        ids=["deep-nesting", "huge-degree", "huge-expansion", "huge-constant"],
    )
    def test_runaway_polynomial_is_a_parse_error(self, poly):
        # each used to end in a RecursionError traceback or a hang
        proc = run_python(
            "-m", "padicdyn.cli", "roots", "--poly", poly, "--prime", "7", timeout=1
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"]["type"] == "PolyParseError"

    @pytest.mark.parametrize(
        "poly",
        ["+".join(["(x+1)^1000"] * 10),
         " + ".join(f"x^{i}" for i in range(4000, 0, -1)),
         "x^9999" + "*1" * 3000,
         "x^9999" + "(1)" * 3000],
        ids=["ten-powers", "long-sum", "chain", "implicit-chain"],
    )
    def test_whole_parse_is_bounded(self, poly):
        # each term is under the per-product limit; the whole parse took
        # 1.55 s and 12.9 s, and a chain of products with 1, each copying
        # the 10^4 slots of x^9999, about 5 s when a product with a
        # monomial was charged by the other factor alone
        proc = run_python(
            "-m", "padicdyn.cli", "roots", "--poly", poly, "--prime", "7", timeout=1
        )
        assert proc.returncode in (0, 1)
        payload = json.loads(proc.stdout)
        if proc.returncode == 1:
            jsonschema.validate(payload, SCHEMAS["error"])
            assert payload["error"]["type"] == "PolyParseError"


def composite_no_witness_divides(factor=41):
    """factor (2^2994 + j), j the least odd number that leaves it coprime
    to the primes below factor: its primality test is over the work
    limit, and one round of the test is within it."""
    from padicdyn.padic import _MR_WITNESSES, _SMALL_PRIMES

    below = math.prod(q for q in _SMALL_PRIMES if q < factor)
    j = 1
    while math.gcd(factor * (2**2994 + j), below) != 1:
        j += 2
    n = factor * (2**2994 + j)
    assert work.prime(n) > work.MAX_WORK >= work.prime(n) // len(_MR_WITNESSES)
    return n


class TestWorkLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            ["roots", "--poly", "(x+1)^1000", "--prime", "1000000007"],
            ["oracle", "--poly", "x^10000", "--modulus", "100003"],
            ["orbit", "--poly", "x^10000", "--prime", "99991", "--precision", "257",
             "--seed", "2", "--steps", "257", "--allow-large"],
            ["preimages", "--poly", "x^10000-x", "--prime", "1000000007",
             "--precision", "256", "--target", "3", "--allow-large"],
            ["lift", "--poly", "x^2+x", "--prime", "2", "--precision", "14284",
             "--seed", "0", "--allow-large"],
            ["tree", "--poly", "(x+1)^1000", "--prime", "1000000007",
             "--precision", "1", "--seed", "0", "--depth", "1"],
            ["roots", "--poly", "x", "--prime", str(2**9689 - 1)],
        ],
        ids=["roots", "oracle", "orbit", "preimages", "lift", "tree", "primality"],
    )
    def test_call_over_the_work_limit_is_refused_at_once(self, argv):
        # these took 5.1 s, 5.9 s, over 30 s, over 3 s, 1.7 s, over 5 s
        # and 30 s
        proc = run_python("-m", "padicdyn.cli", *argv, timeout=1)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"]["type"] == "BudgetExceededError"
        assert payload["error"]["message"].endswith(
            f"steps of about 10 ns, over the limit of {work.MAX_WORK}"
        )

    def test_prime_whose_test_fits_the_limit_is_accepted(self):
        # the primality test of 2^1279 - 1 takes about 0.1 s
        proc = run_python(
            "-m", "padicdyn.cli", "roots", "--poly", "x", "--prime", str(2**1279 - 1),
            timeout=5,
        )
        assert proc.returncode == 0
        assert [r["residue"] for r in json.loads(proc.stdout)["roots"]] == [0]

    @pytest.mark.parametrize(
        "prime, error",
        [
            (2**3000, "NotPrimeError"),  # even: trial division rejects it
            (3 * 2**3000 + 3, "NotPrimeError"),
            (9, "NotPrimeError"),
            (2**3217 - 1, "BudgetExceededError"),  # prime; four rounds fit
            # 903 digits: trial division by 41 rejects it
            (composite_no_witness_divides(), "NotPrimeError"),
            # 904 digits, no prime below 256 divides it: six of its rounds
            # fit the limit, and the first rejects it
            (composite_no_witness_divides(257), "NotPrimeError"),
            # 4300 digits: trial division by 41 rejects it; no round of
            # its test fits the limit
            (41 * (10**4298 + 7), "NotPrimeError"),
            # n = 2^q - 1 with q prime passes the base-2 round, composite
            # or not: n - 1 = 2(2^(q-1) - 1), and q divides 2^(q-1) - 1, so
            # 2^((n-1)/2) = 1 mod n as 2^q = 1 mod n.  No prime below 256
            # divides these (each factor is 1 mod 2q); 11 and 2 rounds fit
            (2**2357 - 1, "NotPrimeError"),
            (2**4201 - 1, "NotPrimeError"),
            (2**4423 - 1, "BudgetExceededError"),  # prime; two rounds fit
        ],
        ids=["2^3000", "3(2^3000+1)", "9", "2^3217-1", "41(2^2994+j)", "257(2^2994+j)",
             "41(10^4298+7)", "2^2357-1", "2^4201-1", "2^4423-1"],
    )
    def test_prime_a_witness_divides_is_not_charged(self, prime, error):
        # these composites were refused as over the work limit,
        # estimated at about 199 million steps, before a test ran
        proc = run_python(
            "-m", "padicdyn.cli", "roots", "--poly", "x", "--prime", str(prime), timeout=1
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"]["type"] == error

    def test_square_root_mod_a_prime_with_a_high_power_of_two(self):
        # p - 1 = 277 * 2^1200: Tonelli-Shanks, O(1200^2) multiplications,
        # took 2.1 s for this root, Cipolla's O(log p) about 0.05 s
        p = 277 * 2**1200 + 1
        proc = run_python(
            "-m", "padicdyn.cli", "roots", "--poly", "x^2-3969", "--prime", str(p),
            timeout=1,
        )
        assert proc.returncode == 0, proc.stdout
        assert [r["residue"] for r in json.loads(proc.stdout)["roots"]] == [63, p - 63]

    def test_estimate_at_the_limit_is_accepted(self):
        work.check(work.MAX_WORK, "a call")
        with pytest.raises(BudgetExceededError, match="^a call is estimated at "
                           "100000001 steps of about 10 ns, over the limit of "
                           "100000000$"):
            work.check(work.MAX_WORK + 1, "a call")

    def test_root_heavy_backward_step_just_under_the_limit_ends_within_it(
        self, capsys
    ):
        # f has 16 distinct roots mod p, all found, split apart and lifted,
        # so the root finding weighs most; the precision is the largest
        # the work limit allows (0.3 s against 1 s on a 2-vCPU x86 VM)
        p = 2**255 - 19
        rng = random.Random(5)
        f = IntPoly((1,))
        for _ in range(16):
            f = f * IntPoly((-rng.randrange(p), 1))
        k = max(k for k in range(1, 57) if work.preimages(f, p, k) <= work.MAX_WORK)
        assert work.preimages(f, p, k) > 0.9 * work.MAX_WORK
        start = time.perf_counter()
        code, payload = run_json(
            capsys, "preimages", "--poly", format_poly(f), "--prime", str(p),
            "--precision", str(k), "--target", "0", "--allow-large",
        )
        elapsed = time.perf_counter() - start
        assert code == 0 and len(payload["lifted"]) == 16
        assert elapsed < work.MAX_WORK * 1e-8

    def test_tree_stopped_by_the_work_limit_ends_within_it(self, capsys):
        # (x + a)^2 - a = v has two roots mod p or none, so the tree from
        # 1 - a grows until the work limit's node cap stops it
        # (0.4 s against 1 s on a 2-vCPU x86 VM)
        p, a, k = 2**61 - 1, 777, 40
        f = IntPoly((a, 1)) ** 2 - a
        cap = work.tree_nodes(f, p, k)
        start = time.perf_counter()
        code, payload = run_json(
            capsys, "tree", "--poly", format_poly(f), "--prime", str(p),
            "--precision", str(k), "--seed", str((1 - a) % p), "--depth", "1000000",
            "--max-nodes", str(backward.DEFAULT_NODE_BUDGET), "--allow-large",
        )
        elapsed = time.perf_counter() - start
        assert code == 1
        assert payload["error"]["message"].endswith(
            f"; the work limit allows {cap} nodes here"
        )
        assert elapsed < work.MAX_WORK * 1e-8

    def test_oracle_charges_the_residues_it_scans(self):
        # 9699690 = 2 * 3 * 5 * ... * 19: 77 residues are scanned, not m;
        # this was refused at 116,396,280 steps
        m = 9699690
        f = IntPoly((-1,) + (0,) * 9 + (1,))
        assert work.oracle(f, m) < 10**5
        proc = run_python("-m", "padicdyn.cli", "oracle", "--poly", "x^10-1",
                          "--modulus", str(m), timeout=1)
        assert proc.returncode == 0, proc.stdout
        assert len(json.loads(proc.stdout)["solutions"]) == 640
        # a prime is one factor, scanned whole: 0.4 steps per residue for
        # each of the 11 coefficients, two numpy calls per block of it for
        # each coefficient and two for its hit test, and the trial
        # division that finds no factor
        p = 9999991
        blocks = -(-p // congruence._BLOCK)
        assert work.oracle(f, p) == (
            p * 11 * 2 // 5 + blocks * 13 * 2 * work._NUMPY_CALL
            + 14 * (math.isqrt(p) // 2 + 1)
        )

    def test_oracle_of_a_dense_degree_9_prime_modulus_is_accepted(self):
        # 611 blocks of 2^14 residues at degree 9: 0.13 s in process on a
        # 2-vCPU x86 VM, 0.3 s cold; it was refused at 112,466,049 steps
        # when the numpy scan was charged 10 ns per residue per coefficient
        poly, p = "x^9+3x^8+5x^7+7x^6+11x^5+13x^4+17x^3+19x^2+23x+29", 9999991
        f = parse_poly(poly)
        assert work.oracle(f, p) <= work.MAX_WORK
        proc = run_python("-m", "padicdyn.cli", "oracle", "--poly", poly,
                          "--modulus", str(p), timeout=1)
        assert proc.returncode == 0, proc.stdout
        assert json.loads(proc.stdout)["solutions"] == (
            congruence.solve_congruence_bruteforce(f, 0, p))

    def test_oracle_charges_the_numpy_calls_of_many_small_factors(self):
        # eight factors of at most 19 residues, which take the plain loop:
        # 30 ms warm on a 2-vCPU x86 VM against an estimate of 123 ms.  When
        # numpy scanned them, in two calls per coefficient, this took
        # 118.6 ms and was estimated at 7.9 ms until the calls were charged
        f, m = parse_poly("x^10000-x"), 9699690
        congruence.solve_congruence_bruteforce(IntPoly((0, 1)), 0, 2**16 + 1)  # numpy
        elapsed = min(
            timed(congruence.solve_congruence_bruteforce, f, 0, m) for _ in range(3)
        )
        assert elapsed <= work.oracle(f, m) * 1e-8

    def test_oracle_scan_at_the_shift_degree_bound_ends_within_its_estimate(self):
        # a dense f of the highest degree whose blocks are Taylor-shifted,
        # over the largest prime below 10^7: 611 blocks of 2^14 residues,
        # each with its d(d + 1) / 2 multiply-adds of the shift
        d, p = congruence._SHIFT_MAX_DEGREE, 9999991
        rng = random.Random(d)
        f = IntPoly(tuple(rng.randrange(p) for _ in range(d + 1)))
        congruence.solve_congruence_bruteforce(IntPoly((0, 1)), 0, 2**16 + 1)  # numpy
        elapsed = min(
            timed(congruence.solve_congruence_bruteforce, f, 0, p) for _ in range(2)
        )
        assert elapsed <= work.oracle(f, p) * 1e-8

    @pytest.mark.parametrize("k", [100, 150])
    def test_lift_of_wide_coefficients_ends_within_its_estimate(self, k):
        # five 2^19-bit coefficients at p = 2^127 - 1: the cut of f mod p^k
        # is most of the lift, and hensel_lift makes it once (0.05 s at
        # k = 100 on a 2-vCPU x86 VM against 0.10 s charged, 0.20 s when
        # the cut was charged twice)
        p = 2**127 - 1
        rng = random.Random(k)
        coeffs = [rng.getrandbits(2**19) | 2**(2**19 - 1) for _ in range(5)]
        coeffs[0] -= sum(coeffs) % p  # so 1 is a root mod p
        f = IntPoly(tuple(coeffs))
        estimate = work.lift(f, p, k)
        assert estimate == work._excess(f, k * p.bit_length()) + work._newton(f, p, k)
        lifted = padicdyn.hensel_lift(f, 1, k, p)
        assert lifted.root % p == 1 and padicdyn.eval_mod(f, lifted.root, p**k) == 0
        elapsed = min(timed(padicdyn.hensel_lift, f, 1, k, p) for _ in range(2))
        assert elapsed <= estimate * 1e-8

    def test_oracle_at_the_solution_cap_ends_within_the_limit(self, capsys):
        # every residue solves the zero polynomial, so all of them are
        # joined and printed (0.4-0.6 s against 1 s on a 2-vCPU x86 VM,
        # numpy's import included; 1.1 s at the former cap of 10^6)
        m = work.MAX_SOLUTIONS
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "oracle", "--poly", "0", "--modulus", str(m))
        elapsed = time.perf_counter() - start
        assert code == 0 and json.loads(out)["solutions"] == list(range(m))
        assert elapsed < work.MAX_WORK * 1e-8
        code, payload = run_json(
            capsys, "oracle", "--poly", "0", "--modulus", str(m + 1)
        )
        assert code == 1
        assert payload["error"]["message"] == (
            f"{m + 1} solutions mod {m + 1}; listing more than {m} is refused"
        )

    def test_default_tree_budget_stops_at_the_work_limit(self):
        # 10^5 nodes at about 90 us each took 8.7 s
        argv = ["tree", "--poly", "x^2", "--prime", "7", "--precision", "1",
                "--seed", "1", "--depth", "1000000007"]
        proc = run_python("-m", "padicdyn.cli", *argv, timeout=5)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        cap = work.tree_nodes(IntPoly((0, 0, 1)), 7, 1)
        assert cap < backward.DEFAULT_NODE_BUDGET
        assert payload["error"]["type"] == "BudgetExceededError"
        assert payload["error"]["message"].endswith(
            f"; the work limit allows {cap} nodes here"
        )

    def test_tree_stops_at_the_smaller_budget(self, capsys, monkeypatch):
        # x^2 from 1 mod 7 doubles at every depth, so a tree stops at an
        # odd node count: at 39 of 40, or 29 of 30
        f = IntPoly((0, 0, 1))
        monkeypatch.setattr(work, "MAX_WORK", work.preimages(f, 7, 1) + 40 * (
            work.roots(f, 7) + work.lift(f, 7, 1) + work._NODE))
        assert work.tree_nodes(f, 7, 1) == 40
        argv = ["tree", "--poly", "x^2", "--prime", "7", "--precision", "1",
                "--seed", "1", "--depth", "100"]
        code, payload = run_json(capsys, *argv)
        assert code == 1
        assert payload["error"]["message"] == (
            "node budget exhausted after 39 nodes; the work limit allows 40 nodes here"
        )
        code, payload = run_json(capsys, *argv, "--max-nodes", "30")
        assert payload["error"]["message"] == "node budget exhausted after 29 nodes"
        code, payload = run_json(capsys, *argv[:-1], "5")
        assert code == 0
        assert payload["complete"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["preimages", "--poly", "x^2", "--prime", "7",
             "--precision", "1000000007", "--target", "1"],
            ["lift", "--poly", "x^2-2", "--prime", "7", "--precision", "20000",
             "--seed", "3"],
            # the payload's target, -1 mod 2^(10^7), has 3 * 10^6 digits
            ["preimages", "--poly", "49x^2", "--prime", "2",
             "--precision", "10000000", "--target", "-1"],
        ],
        ids=["preimages", "lift", "preimages-p2"],
    )
    def test_allow_large_stops_at_the_int_digit_limit(self, argv):
        # the first did not finish in 10 s; the second ran for 25 s and
        # then failed to print its ladder
        proc = run_python("-m", "padicdyn.cli", *argv, "--allow-large", timeout=1)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"]["type"] == "PadicDynError"
        p, k = argv[argv.index("--prime") + 1], argv[argv.index("--precision") + 1]
        assert payload["error"]["message"].startswith(f"{p}^{k} has more than ")

    def test_allow_large_prints_up_to_the_int_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        # 7^k has floor(k log10 7) + 1 digits, at most `limit` up to k_max;
        # -1 mod 7^k, the orbit's one term, has as many
        k_max = int(limit / math.log10(7))
        argv = ["orbit", "--poly", "x", "--prime", "7", "--seed", "-1",
                "--steps", "0", "--allow-large", "--precision"]
        code, payload = run_json(capsys, *argv, str(k_max))
        assert code == 0
        assert payload["orbit"] == [7**k_max - 1]
        assert len(str(7**k_max)) <= limit
        code, payload = run_json(capsys, *argv, str(k_max + 1))
        assert code == 1
        assert payload["error"]["message"] == (
            f"7^{k_max + 1} has more than {limit} digits, "
            "the interpreter's limit for printing an integer"
        )

    def test_oracle_refuses_to_list_ten_million_solutions(self):
        # every residue mod 10^7 solves it; printing them took 11 s
        proc = run_python(
            "-m", "padicdyn.cli", "oracle", "--poly", "0", "--modulus", "10000000",
            timeout=1,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"] == {
            "type": "ValueError",
            "message": "10000000 solutions mod 10000000; listing more than "
            "400000 is refused",
        }

    @pytest.mark.parametrize("precision", ["10000000", "1000000000"])
    def test_modulus_cap_refuses_without_computing_the_power(self, precision):
        # computing 7^k first took 10 s at k = 10^7 and longer at 10^9
        proc = run_python(
            "-m", "padicdyn.cli", "lift", "--poly", "x", "--prime", "7",
            "--precision", precision, "--seed", "0", timeout=1,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"]["message"] == (
            f"7^{precision} exceeds the default modulus cap 2^256; pass --allow-large"
        )

    def test_orbit_steps_are_capped(self, capsys, monkeypatch):
        # 10^8 steps had not finished after 10 s
        proc = run_python(
            "-m", "padicdyn.cli", "orbit", "--poly", "x^2+1", "--prime", "7",
            "--precision", "3", "--seed", "1", "--steps", "100000000", timeout=1,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert "--steps 100000000 exceeds the limit" in payload["error"]["message"]
        monkeypatch.setattr(cli, "MAX_STEPS", 5)
        argv = ["orbit", "--poly", "x", "--prime", "2", "--precision", "1",
                "--seed", "0", "--steps"]
        code, payload = run_json(capsys, *argv, "6")
        assert code == 1
        assert payload["error"]["message"] == "--steps 6 exceeds the limit 5"
        code, payload = run_json(capsys, *argv, "5")
        assert code == 0
        assert payload["orbit"] == [0] * 6


    def test_negative_precision_is_a_domain_error(self):
        # p^-1 is a float, which ended in a TypeError traceback
        proc = run_python(
            "-m", "padicdyn.cli", "preimages", "--poly", "x", "--prime", "7",
            "--precision", "-1", "--target", "2", timeout=1,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"] == {
            "type": "ValueError", "message": "precision must be at least 1"
        }

    def test_output_past_the_int_digit_limit_is_a_domain_error(self):
        # printing a payload with an integer past the digit limit raised
        # outside main's try: a traceback, empty stdout.  --allow-large now
        # stops below that limit, so no residue mod p^k gets there, but the
        # numerator of a series distance can: |s_0 - t_0| has 4301 digits
        nines = "9" * 4300
        proc = run_python(
            "-m", "padicdyn.cli", "dist", "--s", nines, f"--t=-{nines}", "--prime", "7",
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"]["type"] == "ValueError"

    def test_series_distance_past_the_int_digit_limit_is_refused(self):
        # 1000003^4999 has about 30 000 digits; summing 5000 Fractions
        # first took over 20 s
        s, t = ",".join(["1"] * 5000), ",".join(["2"] * 5000)
        proc = run_python(
            "-m", "padicdyn.cli", "dist", "--s", s, "--t", t, "--prime", "1000003",
            timeout=1,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"]["type"] == "PadicDynError"
        assert "1000003^4999 has more than" in payload["error"]["message"]

    def test_series_distance_up_to_the_int_digit_limit_prints(self, capsys):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("no digit limit in this interpreter")
        # 7^n has floor(n log10 7) + 1 digits, at most `limit` up to n_max
        n_max = int(limit / math.log10(7))
        for n, code in [(n_max, 0), (n_max + 1, 1)]:
            s, t = ",".join(["0"] * (n + 1)), ",".join(["0"] * n + ["1"])
            got, payload = run_json(capsys, "dist", "--s", s, "--t", t, "--prime", "7")
            assert got == code
            if code == 0:
                assert payload["distance"] == f"1/{7**n}"


class TestDispatcher:
    def test_shared_steps_are_looked_up_at_call_time(self, capsys, monkeypatch):
        # perfbench's tracer counts calls by patching these module attributes
        calls = []

        def counting(name):
            real = getattr(cli, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(cli, name, wrapper)

        for name in ["parse_poly", "as_prime", "_check_modulus_size"]:
            counting(name)
        code, _, _ = run_cli(
            capsys, "lift", "--poly", "x^2-2", "--prime", "7", "--precision", "3",
            "--seed", "3",
        )
        assert code == 0
        assert calls == ["parse_poly", "as_prime", "_check_modulus_size"]
        calls.clear()
        run_cli(capsys, "oracle", "--poly", "x^2", "--modulus", "10")
        assert calls == ["parse_poly"]
        calls.clear()
        run_cli(capsys, "dist", "--s", "1", "--t", "2", "--metric", "first-diff",
                "--prime", "4")
        assert calls == []


class TestLazyNumpy:
    # each reports [numpy loaded, concurrent.futures loaded, threads]
    def test_importing_the_package_and_cli_skips_numpy(self):
        assert loaded_after("import padicdyn, padicdyn.cli") == [False, False, 1]

    def test_oracle_below_the_cutoff_skips_numpy(self):
        assert loaded_after(
            "from padicdyn import cli\n"
            "cli.main(['oracle', '--poly=5x^2-7x+3', '--modulus=9999', '--target=1'])"
        ) == [False, False, 1]

    @pytest.mark.parametrize("poly", ["x^2+1", "x^2-1"])
    def test_oracle_of_small_factors_skips_numpy(self, poly):
        # 510510 = 2 * 3 * 5 * ... * 17 is at least 2^16, but every factor
        # takes the plain loop.  x^2 + 1 has no root mod 3; x^2 - 1 has
        # one mod 2 and two mod each odd prime, so all seven are scanned
        # and their 64 solutions joined in plain Python
        assert loaded_after(
            "from padicdyn import cli\n"
            f"assert cli.main(['oracle', '--poly={poly}', '--modulus=510510']) == 0"
        ) == [False, False, 1]

    def test_oracle_at_the_cutoff_loads_numpy(self):
        # 2^16 is scanned in four blocks, all in the calling thread
        assert loaded_after(
            "from padicdyn import congruence, parse_poly\n"
            "congruence.solve_congruence_bruteforce("
            "parse_poly('x^2+1'), 0, congruence._VECTOR_MIN)"
        ) == [True, False, 1]


# every submodule of the package, as sys.modules names it
SUBMODULES = sorted(
    f"padicdyn.{path.stem}"
    for path in Path(padicdyn.__file__).parent.glob("*.py")
    if path.stem != "__init__"
)


class TestImportFootprint:
    # the first two report [dataclasses loaded, fractions loaded,
    # threads]: the value classes are plain classes, fractions is
    # imported by the distances that return one, and BackwardNode, a
    # dataclass, loads with the first tree
    def test_importing_the_package_and_cli_skips_dataclasses_and_fractions(self):
        assert loaded_after(
            "import padicdyn, padicdyn.cli", "dataclasses", "fractions"
        ) == [False, False, 1]

    @pytest.mark.parametrize("argv, loaded", [
        (["roots", "--poly=x^2", "--prime=7", "--target=2"], [False, False]),
        (["oracle", "--poly=x^2-7x+2", "--modulus=10"], [False, False]),
        (["lift", "--poly=x^2-2", "--prime=7", "--precision=3", "--seed=3"],
         [False, False]),
        (["preimages", "--poly=x^2", "--prime=7", "--precision=2", "--target=2"],
         [False, False]),
        (["orbit", "--poly=x^2", "--prime=7", "--precision=1", "--seed=3",
          "--steps=3"], [False, False]),
        (["dist", "--s=0,2,0", "--t=0,0,1", "--prime=5"], [False, True]),
        (["dist", "--s=1,2", "--t=1,3", "--metric=first-diff"], [False, True]),
        (["tree", "--poly=x^2", "--prime=7", "--precision=1", "--seed=2",
          "--depth=2"], [True, False]),
    ], ids=["roots", "oracle", "lift", "preimages", "orbit", "dist-series",
            "dist-first-diff", "tree"])
    def test_a_call_loads_only_what_it_uses(self, argv, loaded):
        assert loaded_after(
            f"from padicdyn import cli\nassert cli.main({argv!r}) == 0",
            "dataclasses", "fractions",
        ) == loaded + [1]

    def test_importing_the_cli_loads_every_traced_module(self):
        # perfbench's Tracer.install wraps functions only in modules
        # already loaded when it runs, right after `import padicdyn.cli`:
        # a module the CLI imported on first use would go uncounted
        modules = ["padicdyn.backward", "padicdyn.congruence",
                   "padicdyn.hensel", "padicdyn.parsing"]
        assert loaded_after("import padicdyn.cli", *modules) == [True] * 4 + [1]

    def test_importing_the_package_loads_no_submodule_and_no_json(self):
        assert loaded_after("import padicdyn", *SUBMODULES, "json") == (
            [False] * len(SUBMODULES) + [False, 1]
        )

    def test_a_name_loads_only_its_module_and_what_that_imports(self):
        loaded = loaded_after("from padicdyn import parse_poly", *SUBMODULES)
        assert [m for m, on in zip(SUBMODULES, loaded) if on] == [
            "padicdyn.errors", "padicdyn.padic", "padicdyn.parsing",
            "padicdyn.polynomial",
        ]

    @pytest.mark.parametrize("argv", [
        ["roots", "--poly=x^2", "--prime=7", "--target=2", "--format=table"],
        ["tree", "--poly=x^2", "--prime=7", "--precision=1", "--seed=2",
         "--depth=2", "--format=dot"],
    ], ids=["roots-table", "tree-dot"])
    def test_table_and_dot_output_skip_json(self, argv):
        assert loaded_after(
            f"from padicdyn import cli\nassert cli.main({argv!r}) == 0", "json"
        ) == [False, 1]


# the public names, in the order of __all__
PUBLIC = [
    "BackwardNode", "BackwardTree", "BudgetExceededError", "CoherentSequence",
    "DEFAULT_NODE_BUDGET", "DEFAULT_ORACLE_BOUND", "FpPoly", "INFINITY",
    "IntPoly", "LiftedRoot", "NotARootError", "NotAUnitError", "NotPrimeError",
    "OrbitResult", "PadicDynError", "PadicInt", "PolyParseError", "Prime",
    "RootModP", "SingularRootError", "abs_p", "as_prime", "backward_tree",
    "check_coherent", "congruence_is_identically_zero",
    "distance_first_difference", "distance_series", "divides_xp_minus_x",
    "eval_mod", "fermat_reduce", "format_poly", "forward_orbit", "fp_divmod",
    "hensel_lift", "hensel_step", "is_prime", "make_monic", "parse_poly",
    "preimages", "reduce_mod_p", "roots_mod_p", "solve_congruence_bruteforce",
    "vp_int", "vp_rat",
]


class TestExportTable:
    # padicdyn._EXPORTS maps each defining module to the names it exports;
    # the package's __getattr__ imports the module on a name's first use
    def test_public_names_are_unchanged(self):
        assert padicdyn.__all__ == PUBLIC

    @pytest.mark.parametrize("name", PUBLIC)
    def test_each_name_is_its_defining_modules_object(self, name):
        [module] = [m for m, names in padicdyn._EXPORTS.items() if name in names]
        value = getattr(importlib.import_module(f"padicdyn.{module}"), name)
        assert getattr(padicdyn, name) is value
        assert vars(padicdyn)[name] is value
        # an int constant carries no module; every other value names its own
        defined_in = f"padicdyn.{module}"
        assert getattr(value, "__module__", defined_in) == defined_in

    def test_dir_lists_every_public_name(self):
        assert set(PUBLIC) <= set(dir(padicdyn))

    def test_submodules_resolve_after_a_bare_import(self):
        proc = run_python("-c", (
            "import padicdyn\n"
            "print(padicdyn.backward.__name__, padicdyn.cli.__name__)"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["padicdyn.backward", "padicdyn.cli"]


class TestErrors:
    def test_composite_prime_is_domain_error(self, capsys):
        code, payload = run_json(capsys, "roots", "--poly", "x", "--prime", "9")
        assert code == 1
        assert payload["error"]["type"] == "NotPrimeError"
        jsonschema.validate(payload, SCHEMAS["error"])

    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (["dist", "--s", "1,2", "--t", "1,3", "--metric", "series"], None,
             "--prime is required for the series metric"),
            (["tree", "--poly", "x^2", "--prime", "7", "--precision", "1",
              "--seed", "2", "--depth", "1"], "many",
             "PADIC_DYN_MAX_NODES must be an integer, got 'many'"),
            (["dist", "--s", "1,x", "--t", "1,2"], None,
             "--s must be a comma-separated list of integers"),
            (["dist", "--s", "1,2", "--t", "1;2"], None,
             "--t must be a comma-separated list of integers"),
        ],
        ids=["series-without-prime", "env-budget", "s-not-integers", "t-not-integers"],
    )
    def test_bad_values_are_domain_errors(self, capsys, monkeypatch, argv, env, message):
        if env is not None:
            monkeypatch.setenv("PADIC_DYN_MAX_NODES", env)
        code, payload = run_json(capsys, *argv)
        assert code == 1
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"] == {"type": "PadicDynError", "message": message}

    def test_singular_seed_is_domain_error(self, capsys):
        code, payload = run_json(
            capsys,
            "lift", "--poly", "x^2", "--prime", "5", "--precision", "3",
            "--seed", "0",
        )
        assert code == 1
        assert payload["error"]["type"] == "SingularRootError"

    def test_non_root_seed_is_domain_error(self, capsys):
        code, payload = run_json(
            capsys,
            "lift", "--poly", "x^2-2", "--prime", "7", "--precision", "3",
            "--seed", "1",
        )
        assert code == 1
        assert payload["error"]["type"] == "NotARootError"

    def test_parse_error_is_domain_error(self, capsys):
        code, payload = run_json(capsys, "roots", "--poly", "x^^2", "--prime", "7")
        assert code == 1
        assert payload["error"]["type"] == "PolyParseError"

    def test_budget_exhaustion_is_domain_error(self, capsys):
        code, payload = run_json(
            capsys,
            "tree", "--poly", "x^2", "--prime", "7", "--precision", "1",
            "--seed", "2", "--depth", "6", "--max-nodes", "3",
        )
        assert code == 1
        assert payload["error"]["type"] == "BudgetExceededError"

    def test_env_var_overrides_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("PADIC_DYN_MAX_NODES", "3")
        code, payload = run_json(
            capsys,
            "tree", "--poly", "x^2", "--prime", "7", "--precision", "1",
            "--seed", "2", "--depth", "6",
        )
        assert code == 1
        assert payload["error"]["type"] == "BudgetExceededError"
        # explicit flag wins over the environment
        code, payload = run_json(
            capsys,
            "tree", "--poly", "x^2", "--prime", "7", "--precision", "1",
            "--seed", "2", "--depth", "2", "--max-nodes", "100",
        )
        assert code == 0

    def test_oversized_modulus_needs_allow_large(self, capsys):
        argv = [
            "lift", "--poly", "x-1", "--prime", "2", "--precision", "300",
            "--seed", "1",
        ]
        code, payload = run_json(capsys, *argv)
        assert code == 1
        assert "--allow-large" in payload["error"]["message"]
        code, payload = run_json(capsys, *argv, "--allow-large")
        assert code == 0
        assert payload["root"] == 1

    def test_negative_modulus_is_refused_by_the_oracle(self, capsys):
        # the work estimate must see no modulus below 2; the oracle refuses it
        code, payload = run_json(capsys, "oracle", "--poly", "x", "--modulus", "-5")
        assert code == 1
        assert payload["error"] == {
            "type": "ValueError", "message": "modulus must be at least 2"
        }
        code, out, err = run_cli(
            capsys, "oracle", "--poly", "x", "--modulus", "-5", "--format", "table"
        )
        assert (code, out, err) == (1, "", "error: modulus must be at least 2\n")

    def test_table_errors_go_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "roots", "--poly", "x", "--prime", "9", "--format", "table"
        )
        assert code == 1
        assert out == ""
        assert "not prime" in err

    def test_usage_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--poly", "x"])  # missing --prime
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--poly", "x", "--modulus", "10", "--format", "dot"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["unknown-command"])
        assert exc.value.code == 2

    def test_reader_closing_early_ends_quietly(self):
        # the 10^4 solutions print about 99 KB, more than a 64 KiB pipe
        # holds, so the print meets the closed pipe; this used to end in
        # a BrokenPipeError traceback
        env = dict(os.environ, PYTHONPATH=str(Path(padicdyn.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "padicdyn.cli", "oracle", "--poly", "0",
             "--modulus", "10000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        head = proc.stdout.read(200)
        proc.stdout.close()
        _, err = proc.communicate(timeout=5)
        assert proc.returncode == 1
        assert head.startswith(b'{\n  "poly": [')
        assert err == b""
