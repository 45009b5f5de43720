import itertools
import math
import random
import threading
import time

import pytest

from padicdyn import (
    IntPoly,
    PadicDynError,
    RootModP,
    congruence_is_identically_zero,
    eval_mod,
    preimages,
    reduce_mod_p,
    roots_mod_p,
    solve_congruence_bruteforce,
)
from padicdyn import congruence
from padicdyn.congruence import _VECTOR_MIN, _prime_power_factors
from padicdyn.padic import as_prime
from helpers import SMALL_PRIMES, exhaustive_roots, random_int_poly


class TestRootsModP:
    def test_square_congruence(self):
        roots = roots_mod_p(IntPoly((0, 0, 1)), 2, 7)
        assert roots == [RootModP(3, False, 6), RootModP(4, False, 1)]

    def test_fermat_obstruction_has_no_roots(self):
        assert roots_mod_p(IntPoly((1, -1, 0, 1)), 0, 3) == []

    def test_singular_root(self):
        assert roots_mod_p(IntPoly((0, 0, 1)), 0, 5) == [RootModP(0, True, 0)]

    def test_reduction_applied_for_high_degree(self):
        # x^7 = x mod 7 pointwise, so x^7 - 2x has the roots of -x
        f = IntPoly((0, -2, 0, 0, 0, 0, 0, 1))
        got = [r.residue for r in roots_mod_p(f, 0, 7)]
        assert got == exhaustive_roots(f, 0, 7)

    def test_classification_uses_original_derivative(self):
        # x^5 reduces to x mod 5, whose own derivative never vanishes;
        # the original derivative 5x^4 does, everywhere.
        roots = roots_mod_p(IntPoly.monomial(1, 5), 0, 5)
        assert roots == [RootModP(0, True, 0)]

    def test_degenerate_congruence_returns_all_residues(self):
        f = IntPoly((3, 5, 10))
        roots = roots_mod_p(f, 3, 5)
        assert [r.residue for r in roots] == [0, 1, 2, 3, 4]
        assert all(r.singular for r in roots)
        assert congruence_is_identically_zero(f, 3, 5)
        assert not congruence_is_identically_zero(f, 1, 5)

    def test_agreement_with_oracle(self):
        rng = random.Random(53)
        for _ in range(500):
            p = rng.choice(SMALL_PRIMES)
            f = random_int_poly(rng, 8)
            c = rng.randint(-20, 20)
            got = [r.residue for r in roots_mod_p(f, c, p)]
            assert got == solve_congruence_bruteforce(f, c, p)

    def test_degree_bound(self):
        rng = random.Random(59)
        for _ in range(500):
            p = rng.choice(SMALL_PRIMES)
            f = random_int_poly(rng, 8)
            c = rng.randint(-20, 20)
            count = len(roots_mod_p(f, c, p))
            h = reduce_mod_p(f - c, p)
            if h.is_zero:
                # more roots than degree forces every coefficient into pZ
                assert count == p
                assert all(b % p == 0 for b in (f - c).coeffs)
            else:
                assert count <= h.degree

    def test_roots_verify_and_classify(self):
        rng = random.Random(61)
        for _ in range(200):
            p = rng.choice(SMALL_PRIMES)
            f = random_int_poly(rng, 6)
            c = rng.randint(-20, 20)
            for r in roots_mod_p(f, c, p):
                assert eval_mod(f, r.residue, p) == c % p
                d = eval_mod(f.derivative(), r.residue, p)
                assert r.derivative_residue == d
                assert r.singular == (d == 0)


    def test_large_prime_does_not_scan(self):
        # an O(p) scan at p = 10^9 + 7 would take minutes per call
        p = 1_000_000_007
        rng = random.Random(97)
        polys = [
            IntPoly(tuple(rng.randrange(p) for _ in range(10)) + (1,))
            for _ in range(50)
        ]
        start = time.perf_counter()
        results = [roots_mod_p(f, 0, p) for f in polys]
        assert time.perf_counter() - start < 0.5
        for f, roots in zip(polys, results):
            assert len(roots) <= 10
            assert all(eval_mod(f, r.residue, p) == 0 for r in roots)


class TestBruteForceOracle:
    def test_composite_modulus_exceeds_degree(self):
        # a congruence can have more solutions than its degree, but only
        # for composite moduli
        f = IntPoly((2, -7, 1))
        solutions = solve_congruence_bruteforce(f, 0, 10)
        assert solutions == [3, 4, 8, 9]
        assert len(solutions) > f.degree

    def test_small_examples(self):
        assert solve_congruence_bruteforce(IntPoly((1, 0, 1)), 0, 5) == [2, 3]
        assert solve_congruence_bruteforce(IntPoly((0, 1)), 0, 12) == [0]

    def test_fermat_obstruction_all_small_primes(self):
        for p in [2, 3, 5, 7]:
            f = IntPoly((1, -1) + (0,) * (p - 2) + (1,))
            assert f.degree == p
            assert solve_congruence_bruteforce(f, 0, p) == []

    def test_rejects_bad_moduli(self):
        f = IntPoly((0, 1))
        with pytest.raises(ValueError):
            solve_congruence_bruteforce(f, 0, 1)
        with pytest.raises(ValueError):
            solve_congruence_bruteforce(f, 0, 10**7 + 1)
        # configurable bound
        assert solve_congruence_bruteforce(f, 0, 11, bound=11) == [0]

    def test_vectorized_and_python_paths_agree(self):
        rng = random.Random(67)
        from padicdyn import congruence

        cases = []
        # the scan's factors are prime powers, so m is odd here
        for _ in range(20):
            f = random_int_poly(rng, 5, -100, 100)
            m = rng.randrange(4101, 6001, 2)
            c = rng.randint(0, m - 1)
            cases.append(([x % m for x in f.coeffs], c, m, None))
        # coefficients and x near m >= 2^16 make the numpy scan's values
        # widest, so it reduces at nearly every step it may; a root is
        # planted near m
        for degree in (2, 3, 4, 5):
            m = rng.randrange(2**16 + 1, 2**17, 2)
            coeffs = [rng.randrange(m - 50, m) for _ in range(degree + 1)]
            r = rng.randrange(m - 1000, m)
            c = sum(x * r**i for i, x in enumerate(coeffs)) % m
            cases.append((coeffs, c, m, r))
        for coeffs, c, m, planted in cases:
            got = congruence._bruteforce_vectorized(coeffs, c, m)
            assert planted is None or planted in got
            assert got == congruence._bruteforce_python(coeffs, c, m)

    @pytest.mark.parametrize("q", [2642239, 2642257])
    def test_uint64_overflow_boundary(self, q, monkeypatch):
        # Both are primes, on either side of 2642246, the largest q with
        # (q - 1)^3 + (q - 1)^2 + (q - 1) <= 2^64 - 1.  A degree-4 scan
        # whose lead is q - 1 reaches at least (q - 1)^3 at x = q - 1 once
        # x^2 is multiplied in: below 2^64 for the first, so no reduction
        # comes before that step, and above it for the second, which must
        # reduce first.  That step only overflows at x near q - 1, so the
        # roots are drawn from there.
        assert ((q - 1) ** 3 + (q - 1) ** 2 + q - 1 < 2**64) == (q <= 2642246)
        rng = random.Random(q)
        roots = rng.sample(range(q - 16, q), 4)
        f = IntPoly((q - 1,))
        for r in roots:
            f = f * IntPoly((-r, 1))
        assert f.coeffs[-1] % q == q - 1
        # over the field F_q a product of distinct linear factors has
        # exactly their roots.  The bound above is that of one block of q
        # residues, where the scan runs on i = x with f's own coefficients
        # (lo = 0).  At the default block q spans 162 blocks, the roots
        # falling in the last, and the scan runs on the offset i < 2^14
        # with that block's Taylor coefficients, whose bound
        # test_shifted_uint64_bound_at_the_default_block pins.  Both reduce
        # mid-scan by floor division.
        assert q > 100 * congruence._BLOCK
        assert solve_congruence_bruteforce(f, 0, q) == sorted(roots)
        monkeypatch.setattr(congruence, "_BLOCK", q)
        assert solve_congruence_bruteforce(f, 0, q) == sorted(roots)

    @pytest.mark.parametrize("q, reductions", [(4194793, 0), (4194823, 1)])
    def test_shifted_uint64_bound_at_the_default_block(self, q, reductions,
                                                       monkeypatch):
        # Both are primes, on either side of 4194817, the largest q whose
        # bound below fits.  A degree-3 scan whose lead is q - 1 runs on the
        # offset i < s = 2^14 of each block, and its last step is bounded
        # by (q - 1)(s^3 - 2 s^2 + 2 s): below 2^64 for the first, which
        # never reduces, and above it for the second, which reduces once
        # per block, before that step.  The values are widest at i near
        # s - 1, so roots are planted at the ends of blocks.
        import numpy as np

        s = congruence._BLOCK
        assert s == 2**14 and as_prime(q).p == q
        assert ((q - 1) * (s**3 - 2 * s**2 + 2 * s) < 2**64) == (reductions == 0)
        roots = [s - 1, 2 * s - 1, q - 1]
        f = IntPoly((q - 1,))
        for r in roots:
            f = f * IntPoly((-r, 1))
        coeffs = [c % q for c in f.coeffs]
        assert coeffs[-1] == q - 1
        divisions = []
        floor_divide = np.floor_divide

        def counting(*args, **kwargs):
            divisions.append(args[1])
            return floor_divide(*args, **kwargs)

        monkeypatch.setattr(np, "floor_divide", counting)
        # over F_q a product of distinct linear factors has exactly their
        # roots; (q - 1) x^3 has zero coefficients, but those of its blocks
        # past the first are not, and the bound covers every block
        assert congruence._bruteforce_vectorized(coeffs, 0, q) == roots
        assert congruence._bruteforce_vectorized([0, 0, 0, q - 1], 0, q) == [0]
        # the hit test divides nothing, so each division is a mid-scan
        # reduction
        assert divisions == [q] * reductions * -(-q // s) * 2

    @pytest.mark.parametrize("q", [509, 521, 563, 569])
    def test_mid_scan_reduction_at_a_factor_below_2_10(self, q):
        # All are primes below 2^10.  A degree-7 scan whose lead is q - 1
        # stays below 2^64 through its sixth step for q <= 566, and passes
        # it there for 569, which must reduce before that step.  509 and
        # 521 straddle the same edge at 2^63, which a signed scan would
        # have.  The sum passes either edge only at x near q - 1, so the
        # roots are drawn from there.
        assert (sum((q - 1) ** i for i in range(1, 8)) < 2**63) == (q < 2**9)
        assert (sum((q - 1) ** i for i in range(1, 8)) < 2**64) == (q <= 566)
        roots = sorted(random.Random(q).sample(range(q - 16, q), 7))
        f = IntPoly((q - 1,))
        for r in roots:
            f = f * IntPoly((-r, 1))
        coeffs = [c % q for c in f.coeffs]
        assert congruence._bruteforce_vectorized(coeffs, 0, q) == roots
        assert congruence._bruteforce_python(coeffs, 0, q) == roots

    def test_both_sides_of_the_vector_cutoff_match_the_loop(self, monkeypatch):
        from padicdyn import congruence

        vector_calls = []
        vectorized = congruence._bruteforce_vectorized

        def counting(coeffs, target, m):
            vector_calls.append(m)
            return vectorized(coeffs, target, m)

        monkeypatch.setattr(congruence, "_bruteforce_vectorized", counting)
        rng = random.Random(71)
        cutoff = congruence._VECTOR_MIN
        for m in [cutoff - 1, cutoff]:
            for _ in range(3):
                f = random_int_poly(rng, 4, -10**6, 10**6)
                c = rng.randrange(m)
                expected = congruence._bruteforce_python(
                    [x % m for x in f.coeffs], c, m
                )
                assert solve_congruence_bruteforce(f, c, m) == expected
        # only the three calls at the cutoff took the numpy path
        assert vector_calls == [cutoff] * 3

    @pytest.mark.parametrize(
        "m",
        [2**10, 3**7, 2 * 3 * 5 * 7 * 11, 30030, 55440, 7919,
         _VECTOR_MIN - 1, _VECTOR_MIN, _VECTOR_MIN + 2],
    )
    def test_crt_join_matches_a_full_scan(self, m):
        # exhaustive_roots evaluates every residue mod m and never factors m
        rng = random.Random(73 + m)
        for _ in range(4):
            f = random_int_poly(rng, 4, -10**4, 10**4)
            r = rng.randrange(m)
            for c in (eval_mod(f, r, m), rng.randrange(-m, m)):
                got = solve_congruence_bruteforce(f, c, m)
                assert got == exhaustive_roots(f, c, m)
                assert r in got or c != eval_mod(f, r, m)
        # f - c vanishing identically mod m, as the zero polynomial does
        g = IntPoly(tuple(m * rng.randint(-5, 5) for _ in range(4))) + 5
        assert solve_congruence_bruteforce(g, 5 + m, m) == list(range(m))
        assert solve_congruence_bruteforce(IntPoly(()), 0, m) == list(range(m))
        assert solve_congruence_bruteforce(IntPoly(()), 1, m) == []

    def test_factor_without_solutions_empties_the_answer(self):
        # 2 is no square mod 3, while x^2 = 2 has solutions mod 7 and 17
        f = IntPoly((0, 0, 1))
        for m in (3 * 7 * 17, 7 * 17 * 3**5, 2**10 * 3 * 7 * 17):
            assert solve_congruence_bruteforce(f, 2, m) == []
            assert exhaustive_roots(f, 2, m) == []
        assert solve_congruence_bruteforce(f, 2, 7 * 17) == exhaustive_roots(f, 2, 7 * 17)

    def test_all_residues_through_the_vectorized_join(self, monkeypatch):
        m = 720720  # 2^4 * 3^2 * 5 * 7 * 11 * 13
        joins = spy_joins(monkeypatch)
        assert solve_congruence_bruteforce(IntPoly(()), 0, m) == list(range(m))
        assert joins == ["_crt_vectorized"]

    def test_few_solutions_take_the_plain_join(self, monkeypatch):
        # x^2 = 1 has 4 solutions mod 16 and 2 mod each odd prime power,
        # 128 in all mod 720720
        f = IntPoly((-1, 0, 1))
        joins = spy_joins(monkeypatch)
        got = solve_congruence_bruteforce(f, 0, 720720)
        assert len(got) == 128 < congruence._CRT_VECTOR_MIN
        assert got == [x for x in range(1, 720720, 2)
                       if (x * x - 1) % 720720 == 0]
        assert joins == ["_crt_python"]

    def test_both_joins_agree_on_random_parts(self):
        rng = random.Random(83)
        moduli = [16, 9, 25, 7, 11, 13, 17, 19, 23]  # pairwise coprime
        totals = set()
        for counts in ([1, 1], [2, 3, 1], [4, 5, 5, 2], [8, 9, 5, 7],
                       [16, 9, 2, 7, 11], [3, 4, 5, 6, 7, 8]):
            for _ in range(5):
                qs = rng.sample(moduli, len(counts))
                parts = [(sorted(rng.sample(range(q), min(k, q))), q)
                         for k, q in zip(counts, qs)]
                expected = congruence._crt_python(parts)
                assert congruence._crt_vectorized(parts) == expected
                assert len(expected) == math.prod(len(r) for r, _ in parts)
                assert all(0 <= x < math.prod(qs) for x in expected)
                assert all(x % q in r for x in expected for r, q in parts)
                totals.add(len(expected))
        assert min(totals) < congruence._CRT_VECTOR_MIN <= max(totals)

    def test_prime_power_factors(self):
        rng = random.Random(79)
        for m in list(range(2, 2000)) + [rng.randrange(2, 10**7) for _ in range(100)]:
            factors = _prime_power_factors(m)
            assert math.prod(factors) == m
            assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(factors, 2))
            for q in factors:
                # the least divisor above 1 is prime; q must be a power of it
                d = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
                while q % d == 0:
                    q //= d
                assert q == 1
        assert _prime_power_factors(55440) == [16, 9, 5, 7, 11]
        assert _prime_power_factors(9999991) == [9999991]

    def test_nontrivial_target(self):
        f = IntPoly((0, 0, 1))
        assert solve_congruence_bruteforce(f, 2, 7) == [3, 4]

    def test_zero_polynomial(self):
        assert solve_congruence_bruteforce(IntPoly(()), 0, 6) == list(range(6))
        assert solve_congruence_bruteforce(IntPoly(()), 1, 6) == []

    def test_solutions_are_listed_up_to_the_limit(self):
        # the count is known before the join: x^2 = 1 has 2 solutions mod 4
        # and 2 mod 9, so 4 mod 36
        f = IntPoly((-1, 0, 1))
        assert solve_congruence_bruteforce(f, 0, 36, max_solutions=4) == [1, 17, 19, 35]
        with pytest.raises(ValueError, match="^4 solutions mod 36; listing more "
                           "than 3 is refused$"):
            solve_congruence_bruteforce(f, 0, 36, max_solutions=3)


def spy_joins(monkeypatch):
    """Record which CRT join solve_congruence_bruteforce calls."""
    joins = []

    def recording(name):
        join = getattr(congruence, name)

        def call(parts):
            joins.append(name)
            return join(parts)

        return call

    for name in ("_crt_python", "_crt_vectorized"):
        monkeypatch.setattr(congruence, name, recording(name))
    return joins


def planted(rng, q, roots):
    """Coefficients mod q of lead * prod (x - r), with a random lead."""
    f = IntPoly((rng.randrange(1, q),))
    for r in roots:
        f = f * IntPoly((-r, 1))
    return [c % q for c in f.coeffs]


class TestBlockedScan:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_agrees_with_the_loop_around_the_block_size(self, degree):
        rng = random.Random(89 + degree)
        block = congruence._BLOCK
        for m in (block - 1, block, block + 1, 3 * block - 1):
            # coefficients near m make the values widest; a root is
            # planted at a block's end or start, or at m - 1
            coeffs = [rng.randrange(m - 50, m) for _ in range(degree + 1)]
            r = min(rng.choice([block - 1, block, m - 1, rng.randrange(m)]), m - 1)
            c = sum(x * r**i for i, x in enumerate(coeffs)) % m
            got = congruence._bruteforce_vectorized(coeffs, c, m)
            assert r in got
            assert got == congruence._bruteforce_python(coeffs, c, m)

    @pytest.mark.parametrize("q, block", [(98317, None), (4999, 1000), (4999, 4998)])
    def test_roots_on_both_sides_of_every_block_boundary(self, q, block, monkeypatch):
        # q is prime: 6 blocks of 2^14 and a short one, or 5 of 1000 and
        # a short one, or one of 4998 and one of a single residue
        assert as_prime(q).p == q
        if block:
            monkeypatch.setattr(congruence, "_BLOCK", block)
        block = congruence._BLOCK
        cuts = range(block, q, block)
        roots = sorted({0, q - 1} | {c + d for c in cuts for d in (-1, 0)})
        coeffs = planted(random.Random(q + block), q, roots)
        # over F_q a product of distinct linear factors has exactly their roots
        assert congruence._bruteforce_vectorized(coeffs, 0, q) == roots

    def test_block_size_does_not_change_the_answer(self, monkeypatch):
        rng = random.Random(101)
        for _ in range(6):
            q = rng.randrange(20_001, 60_000, 2)  # odd, as a scanned factor is
            coeffs = [rng.randrange(q) for _ in range(rng.randint(2, 5))]
            r = rng.randrange(q)
            c = sum(x * r**i for i, x in enumerate(coeffs)) % q
            answers = []
            for block in (997, 4096, 2**14, q - 1, q):
                monkeypatch.setattr(congruence, "_BLOCK", block)
                answers.append(congruence._bruteforce_vectorized(coeffs, c, q))
            assert r in answers[0]
            assert all(a == answers[0] for a in answers)

    def test_buffers_are_kept_per_thread_and_remade_for_a_new_block(self, monkeypatch):
        import numpy as np

        kept = congruence._block_buffers(np)
        congruence._bruteforce_vectorized([3, 0, 1], 0, 3 * congruence._BLOCK + 7)
        assert congruence._block_buffers(np) is kept
        assert all(len(b) == congruence._BLOCK for b in kept)
        others = []
        thread = threading.Thread(target=lambda: others.append(congruence._block_buffers(np)))
        thread.start()
        thread.join()
        assert not any(b is k for b, k in zip(others[0], kept))
        monkeypatch.setattr(congruence, "_BLOCK", 997)
        assert [len(b) for b in congruence._block_buffers(np)] == [997] * 5

    def test_threads_scanning_at_once_get_their_own_answers(self):
        # numpy drops the GIL inside its loops, so shared buffers would mix
        # the blocks of two scans
        rng = random.Random(103)
        block = congruence._BLOCK
        cases = []
        for k in range(8):
            # odd, or 2^16 = 4 * 2^14, as a scanned factor is
            q = rng.randrange(3 * block + 1, 5 * block, 2) if k else 4 * block
            coeffs = [rng.randrange(q) for _ in range(rng.randint(2, 5))]
            cases.append((coeffs, rng.randrange(q), q))
        expected = [congruence._bruteforce_python(*case) for case in cases]
        got = [None] * len(cases)

        def scan(i):
            for _ in range(20):
                got[i] = congruence._bruteforce_vectorized(*cases[i])

        threads = [threading.Thread(target=scan, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert got == expected


class TestShiftedScan:
    """Up to degree _SHIFT_MAX_DEGREE the numpy scan runs Horner's rule on
    the offset i = x - lo of each block, with the coefficients of
    f(lo + i) mod q; above it, on x itself."""

    def test_taylor_shift_is_the_binomial_expansion(self):
        rng = random.Random(127)
        for m in (2, 7, 4096, 2**31 - 1):
            for degree in range(congruence._SHIFT_MAX_DEGREE + 2):
                coeffs = [rng.randrange(m) for _ in range(degree + 1)]
                for a in (0, 1, rng.randrange(m), m - 1):
                    expected = [
                        sum(c * math.comb(k, j) * a ** (k - j)
                            for k, c in enumerate(coeffs) if k >= j) % m
                        for j in range(degree + 1)
                    ]
                    assert congruence._taylor_shift(coeffs, a, m) == expected

    def test_blocks_are_shifted_up_to_the_degree_bound(self, monkeypatch):
        starts = []
        shift = congruence._taylor_shift

        def recording(coeffs, a, m):
            starts.append(a)
            return shift(coeffs, a, m)

        monkeypatch.setattr(congruence, "_taylor_shift", recording)
        block, bound = congruence._BLOCK, congruence._SHIFT_MAX_DEGREE
        q = 3 * block + 7
        for degree, shifted in ((0, True), (bound, True), (bound + 1, False)):
            starts.clear()
            congruence._bruteforce_vectorized([1] * (degree + 1), 0, q)
            # the first block, at lo = 0, takes f's own coefficients, its
            # shift by 0, with no call
            assert starts == ([block, 2 * block, 3 * block] if shifted else [])

    @pytest.mark.parametrize("q", [4999, 2**12, 3**8])
    def test_matches_the_loop_at_every_degree_over_many_blocks(self, q, monkeypatch):
        # blocks of 997 residues: 5 to 7 of them, the last one short.  The
        # prime 4999 and 3^8 scale their values by their inverse mod 2^64,
        # 2^12 by 2^64 / 2^12.  Each f is scanned with no block shifted,
        # with every block shifted, and with the degree bound as it is, to
        # one degree past the bound.
        monkeypatch.setattr(congruence, "_BLOCK", 997)
        default = congruence._SHIFT_MAX_DEGREE
        rng = random.Random(131 + q)
        edges = sorted({0, q - 1} | {c + d for c in range(997, q, 997) for d in (-1, 0)})
        for degree in range(congruence._SHIFT_MAX_DEGREE + 2):
            # on both sides of block boundaries, as many as there are room for
            roots = rng.sample(edges, min(degree, len(edges)))
            roots += [rng.randrange(q) for _ in range(degree - len(roots))]
            polys = [
                planted(rng, q, roots),
                [rng.randrange(q - 8, q) for _ in range(degree + 1)],  # near q
                [q - 1] * (degree + 1),
                # a lead that reduces to 0 mod q, as q x^d + ... does
                [rng.randrange(q) for _ in range(degree)] + [0],
            ]
            for coeffs in polys:
                r = rng.choice(edges)
                value = sum(c * r**i for i, c in enumerate(coeffs)) % q
                for target in (value, 0):
                    expected = congruence._bruteforce_python(coeffs, target, q)
                    assert r in expected or target != value
                    for bound in (-1, 10**9, default):
                        monkeypatch.setattr(congruence, "_SHIFT_MAX_DEGREE", bound)
                        got = congruence._bruteforce_vectorized(coeffs, target, q)
                        assert got == expected
            assert set(roots) <= set(
                congruence._bruteforce_vectorized(polys[0], 0, q))

    def test_lead_divisible_by_the_factor_through_the_oracle(self):
        # 5^7 x^3 + x - 4 over 2 * 5^7 >= 2^16: the factor 5^7 scans x - 4
        # padded with two zeros, and 2 takes the loop
        m = 2 * 5**7
        f = IntPoly((-4, 1, 0, 5**7))
        assert congruence._numpy_scans(5**7, m)
        assert solve_congruence_bruteforce(f, 0, m) == exhaustive_roots(f, 0, m) == [
            4, 4 + 5**7]


def lead_times_roots(lead, q, roots):
    """Coefficients mod q of lead * prod (x - r)."""
    f = IntPoly((lead,))
    for r in roots:
        f = f * IntPoly((-r, 1))
    return [c % q for c in f.coeffs]


def count_calls(monkeypatch, name):
    """Record the divisor or bound of every numpy `name` call a scan makes."""
    import numpy as np

    seen = []
    ufunc = getattr(np, name)

    def counting(*args, **kwargs):
        seen.append(args[1])
        return ufunc(*args, **kwargs)

    monkeypatch.setattr(np, name, counting)
    return seen


class TestScaledHitTest:
    """Every factor runs Horner's rule on its coefficients times a scale
    mod 2^64, q^-1 for an odd q and 2^64 / q for a power of 2, so each
    block ends on n times the scale and holds a solution exactly when its
    least value is at most a limit, (2^64 - 1) // q or 0.  Only such a
    block of a factor of more than one block builds the hit mask."""

    @pytest.mark.parametrize("q, block", [
        (4999, 997),  # prime: 5 blocks of 997 and one of 14
        (4991, 997),  # 7 * 23 * 31: 5 blocks of 997 and one of 6
        (40009, None),  # prime: 2 blocks of 2^14 and one of 7241
        (3 * 11 * 1061, None),  # 2 blocks of 2^14 and one of 2245
    ])
    def test_matches_the_loop_wherever_the_solutions_fall(self, q, block, monkeypatch):
        if block:
            monkeypatch.setattr(congruence, "_BLOCK", block)
        block = congruence._BLOCK
        masks = count_calls(monkeypatch, "less_equal")
        rng = random.Random(137 + q)
        cuts = range(block, q, block)
        edges = sorted({c + e for c in cuts for e in (-1, 0)})
        middle = cuts[(len(cuts) - 1) // 2]
        # n has no square root mod the least prime p dividing q, so
        # (x^2 - n)^k has no root mod q
        p = next(d for d in range(3, q + 1, 2) if q % d == 0)
        n = next(n for n in range(2, p) if all((x * x - n) % p for x in range(p)))
        for degree in (0, 1, 2, 12, 13):
            layouts = {
                "first": rng.sample(range(block), degree),
                "boundaries": (edges + rng.sample(range(q), degree))[:degree],
                "last": rng.sample(range(cuts[-1], q), min(degree, q - cuts[-1])),
                "one block": rng.sample(range(middle, middle + block), degree),
            }
            for lead in (1, q - 1):
                polys = [(roots, lead_times_roots(lead, q, roots))
                         for roots in layouts.values() if len(roots) == degree]
                if degree % 2 == 0:  # none at all
                    square = IntPoly((-n, 0, 1)) ** (degree // 2)
                    polys.append(([], [c * lead % q for c in square.coeffs]))
                if degree == 0:  # every residue: a mask in every block
                    polys.append((range(q), [0]))
                for roots, coeffs in polys:
                    for target in (0, rng.randrange(1, q)):
                        moved = [(coeffs[0] + target) % q, *coeffs[1:]]
                        expected = congruence._bruteforce_python(moved, target, q)
                        assert set(roots) <= set(expected)
                        masks.clear()
                        got = congruence._bruteforce_vectorized(moved, target, q)
                        assert got == expected
                        assert len(masks) == len({x // block for x in expected})

    @pytest.mark.parametrize("blocks_with_roots", [
        [], [0], [6], [0, 6], [2, 3, 4], list(range(7)), [3, 3, 3, 3],
    ])
    def test_only_blocks_holding_a_solution_build_the_mask(self, blocks_with_roots,
                                                          monkeypatch):
        # the prime 98317 spans 7 blocks of 2^14, the last of 16 residues;
        # a root is planted in each listed block, several where one repeats
        q, block = 98317, congruence._BLOCK
        assert -(-q // block) == 7
        rng = random.Random(139 + len(blocks_with_roots))
        roots = set()
        for b in blocks_with_roots:
            roots.add(rng.randrange(b * block, min((b + 1) * block, q)))
        coeffs = lead_times_roots(rng.randrange(1, q), q, sorted(roots))
        if not roots:  # x^2 - 5, and 5 is not a square mod 98317
            coeffs = [q - 5, 0, 1]
        masks = count_calls(monkeypatch, "less_equal")
        assert congruence._bruteforce_vectorized(coeffs, 0, q) == sorted(roots)
        assert len(masks) == len(set(blocks_with_roots))

    def test_a_factor_of_one_block_builds_one_mask(self, monkeypatch):
        # its one block is tested whatever it holds, with no min() first:
        # mod 16381 = 3 * 43 * 127, x^2 + 3 has roots and x^2 - 2 has none,
        # as 2 is not a square mod 3
        masks = count_calls(monkeypatch, "less_equal")
        q = 16381
        for coeffs, solvable in (([3, 0, 1], True), ([q - 2, 0, 1], False)):
            expected = congruence._bruteforce_python(coeffs, 0, q)
            assert bool(expected) == solvable
            assert congruence._bruteforce_vectorized(coeffs, 0, q) == expected
        assert len(masks) == 2

    @pytest.mark.parametrize("lead, reductions", [(1, 0), (4194822, 1)])
    def test_scaled_reduction_at_the_uint64_bound(self, lead, reductions,
                                                  monkeypatch):
        # the prime 4194823 at degree 3, every coefficient scaled by q^-1
        # mod 2^64: with lead q - 1 each block reduces before its last step
        # (test_shifted_uint64_bound_at_the_default_block pins the bound),
        # where acc * q mod 2^64 is the unscaled value v and acc - v // q
        # leaves (v mod q) * q^-1; with lead 1 it never reduces.  Roots in
        # the first block, on both sides of a boundary and in the short
        # last block of 519 residues.
        q, s = 4194823, congruence._BLOCK
        assert as_prime(q).p == q and q % s == 519
        divisions = count_calls(monkeypatch, "floor_divide")
        masks = count_calls(monkeypatch, "less_equal")
        blocks = -(-q // s)
        for roots in ([5, s - 1, s], [77 * s - 1, 77 * s, q - 1], [q - 519, q - 2, q - 1]):
            divisions.clear()
            masks.clear()
            coeffs = lead_times_roots(lead, q, roots)
            # over F_q a product of distinct linear factors has exactly
            # their roots
            assert congruence._bruteforce_vectorized(coeffs, 0, q) == roots
            assert divisions == [q] * reductions * blocks
            assert len(masks) == len({r // s for r in roots})

    @pytest.mark.parametrize("e", [6, 11, 14, 17, 20])
    def test_a_power_of_2_makes_no_division(self, e, monkeypatch):
        # 2^e divides 2^64, so wrapping mod 2^64 keeps every value mod q:
        # the scan never reduces, and its values times 2^64 / q are 0
        # exactly at the hits, so no hit test divides either.  Degrees 0 to
        # 16 run shifted blocks and, above 12, blocks on x; coefficients
        # near q take the values past 2^64.
        q = 2**e
        divisions = count_calls(monkeypatch, "floor_divide")
        rng = random.Random(157 + e)
        for degree in range(17):
            coeffs = [rng.randrange(q - 8, q) for _ in range(degree + 1)]
            r = rng.randrange(q)
            value = sum(c * r**i for i, c in enumerate(coeffs)) % q
            expected = loop_mod_a_power_of_2(coeffs, value, q)
            assert r in expected
            assert congruence._bruteforce_vectorized(coeffs, value, q) == expected
        size = min(q, congruence._BLOCK)
        assert sum(c * (size - 1) ** i for i, c in enumerate(coeffs)) >= 2**64
        assert divisions == []

    @pytest.mark.parametrize("r1, r2", [(5, 5 * 2**14 + 2), (2**14 - 1, 2**14),
                                        (0, 2**17 - 1), (3 * 2**14 + 7, 6 * 2**14)])
    def test_a_power_of_2_builds_masks_only_where_a_solution_is(self, r1, r2,
                                                               monkeypatch):
        # 2^17 spans 8 blocks.  With r1 - r2 odd, one of x - r1 and x - r2
        # is odd, so 2^17 divides (x - r1)(x - r2) only at x = r1 or r2,
        # and only their blocks build the hit mask.
        q, block = 2**17, congruence._BLOCK
        assert (r1 - r2) % 2 == 1 and r1 // block != r2 // block
        masks = count_calls(monkeypatch, "less_equal")
        coeffs = lead_times_roots(1, q, [r1, r2])
        for target in (0, 12345):
            moved = [(coeffs[0] + target) % q, *coeffs[1:]]
            masks.clear()
            assert congruence._bruteforce_vectorized(moved, target, q) == sorted([r1, r2])
            assert masks == [0, 0]


def loop_mod_a_power_of_2(coeffs, target, q):
    """_bruteforce_python's answer at q = 2^e, with the loop run at no
    more than 2^14 residues: x solves f = target mod q only if x mod 2^14
    solves it mod 2^14, so checking every lift of those solutions mod q
    finds all of them.  (The loop over 2^20 residues at degrees 0 to 16
    would take about 15 s.)"""
    low = min(q, 2**14)
    f = IntPoly(tuple(coeffs))
    return sorted(x for a in congruence._bruteforce_python(coeffs, target % low, low)
                  for x in range(a, q, low) if eval_mod(f, x, q) == target % q)


class TestScannerPerFactor:
    @pytest.mark.parametrize("q", [
        congruence._LOOP_FACTOR_MAX, congruence._LOOP_FACTOR_MAX + 1,
        2**10 - 1, 2**10,
        # primes around 2^10 and odd prime powers above it
        1019, 1021, 1031, 1033, 3**7, 7**4, 5**5,
        2**11,  # no inverse mod 2^64, so scaled by 2^64 / 2^11
    ])
    def test_loop_and_numpy_agree_around_the_cutoffs(self, q):
        # the largest factor the loop takes and the smallest numpy takes,
        # and odd factors and powers of 2 on both sides of 2^10; the numpy
        # scan needs q odd or a power of 2, not a prime power
        rng = random.Random(107 + q)
        polys = [[], [rng.randrange(q)], [q - 1]]  # zero and constants
        for degree in range(6):
            polys.append([rng.randrange(q) for _ in range(degree + 1)])
            # coefficients near q make the numpy scan's values widest
            polys.append([rng.randrange(q - 8, q) for _ in range(degree + 1)])
        for coeffs in polys:
            r = rng.randrange(q)
            value = sum(c * r**i for i, c in enumerate(coeffs)) % q
            # at 2^64 mod q, a folded constant c_0 - target left unreduced
            # would make -target wrap to a multiple of q as a uint64
            for c in (value, rng.randrange(q), 0, q - 1, 2**64 % q):
                got = congruence._bruteforce_vectorized(coeffs, c, q)
                assert got == congruence._bruteforce_python(coeffs, c, q)
                assert c != value or r in got

    @pytest.mark.parametrize("m, loop, numpy", [
        (2**5 * 3**7, [32], [2187]),
        (31 * 37 * 61, [31], [37, 61]),
        (2**16, [], [2**16]),
        (2 * 3 * 5 * 7 * 11 * 13 * 17, [2, 3, 5, 7, 11, 13, 17], []),
        (2**5 * 37, [32, 37], []),  # below 2^16 every factor takes the loop
    ])
    def test_each_factor_takes_the_scanner_its_size_picks(self, m, loop, numpy,
                                                          monkeypatch):
        calls = {"_bruteforce_python": [], "_bruteforce_vectorized": []}
        for name, seen in calls.items():
            def spy(coeffs, target, q, scan=getattr(congruence, name), seen=seen):
                seen.append(q)
                return scan(coeffs, target, q)
            monkeypatch.setattr(congruence, name, spy)
        f = IntPoly((-1, 0, 1))  # x^2 = 1 has a root mod every factor
        got = solve_congruence_bruteforce(f, 0, m)
        assert calls == {"_bruteforce_python": loop, "_bruteforce_vectorized": numpy}
        assert got == [x for x in range(m) if (x * x - 1) % m == 0]

    @pytest.mark.parametrize("q", [2**17, 2**17 + 29])
    def test_loop_and_numpy_agree_over_many_blocks(self, q):
        # 2^17 scales its values by 2^64 / 2^17, the prime 2^17 + 29 by
        # its inverse mod 2^64; both span 8 or 9 blocks, with a root
        # planted in the last
        rng = random.Random(109 + q)
        for degree in range(6):
            coeffs = [rng.randrange(q - 8, q) for _ in range(degree + 1)]
            r = rng.randrange(q - 1000, q)
            value = sum(c * r**i for i, c in enumerate(coeffs)) % q
            for c in (value, q - 1):
                got = congruence._bruteforce_vectorized(coeffs, c, q)
                assert got == congruence._bruteforce_python(coeffs, c, q)
                assert c != value or r in got

    def test_divisibility_at_the_top_of_uint64(self, monkeypatch):
        # A degree-4 scan at the prime q = 2642239 with lead q - 1, in one
        # block of q residues, so that it runs on i = x with f's own
        # coefficients, reduces once, before its third step, and its last
        # step then reaches up to (q - 1)^3 + (q - 1)^2 + (q - 1), within
        # 2^-16.8 of 2^64.  The constant, after the target is taken into
        # it, is q - 1 too, so the final values are the widest the
        # divisibility test reads.  At the default block the scan runs on
        # the offset i < 2^14 and stays further below 2^64.
        q = 2642239
        top = (q - 1) ** 3 + (q - 1) ** 2 + q - 1
        assert 2**64 - 2**48 < top < 2**64 <= (q - 1) ** 4
        rng = random.Random(q)
        roots = rng.sample(range(q - 64, q), 3)
        roots.append(pow(math.prod(roots), -1, q))  # so the constant is q - 1
        assert len(set(roots)) == 4
        f = IntPoly((q - 1,))
        for r in roots:
            f = f * IntPoly((-r, 1))
        coeffs = [c % q for c in f.coeffs]
        assert coeffs[0] == coeffs[-1] == q - 1
        # over F_q a product of distinct linear factors has exactly their
        # roots; f = q - 1 at target q - 1 folds to the same constant
        folded = [q - 2, *coeffs[1:]]
        for block in (q, congruence._BLOCK):
            monkeypatch.setattr(congruence, "_BLOCK", block)
            assert congruence._bruteforce_vectorized(coeffs, 0, q) == sorted(roots)
            assert congruence._bruteforce_vectorized(folded, q - 1, q) == sorted(roots)

    @pytest.mark.parametrize("q", [65521, 2**16])
    @pytest.mark.parametrize("degree, block", [(3, 2**16), (4, 2**12)])
    def test_final_values_above_2_63(self, q, degree, block, monkeypatch):
        # Unreduced final values in [2^63, 2^64), which int64 would read as
        # negative, at the odd prime 65521 and at 2^16: in one block at
        # degree 3, where (q - 1)^4 + ... + (q - 1) < 2^64, and in 16
        # blocks of s = 2^12 at degree 4, where (q - 1)(s^4 - 3 s^3 + ...)
        # < 2^64 on the offset i < s.  Neither reduces mid-scan, and no hit
        # test divides, so neither makes a division; a lead near q - 1
        # takes the values at the ends of the blocks past 2^63.
        monkeypatch.setattr(congruence, "_BLOCK", block)
        divisions = count_calls(monkeypatch, "floor_divide")
        rng = random.Random(151 + q + degree)
        ends = rng.sample([*range(block - 1, q - 8, block), *range(q - 8, q)], degree)
        polys = [(ends, lead_times_roots(q - 1, q, ends)),
                 ([], [rng.randrange(q - 8, q) for _ in range(degree + 1)])]
        for roots, coeffs in polys:
            for target in (0, rng.randrange(q)):
                folded = [(coeffs[0] - target) % q, *coeffs[1:]]
                widest = max(
                    sum(c * (min(block, q - lo) - 1) ** j for j, c in
                        enumerate(congruence._taylor_shift(folded, lo, q)))
                    for lo in range(0, q, block))
                assert 2**63 <= widest < 2**64
                expected = congruence._bruteforce_python(coeffs, target, q)
                assert target or set(roots) <= set(expected)
                divisions.clear()
                assert congruence._bruteforce_vectorized(coeffs, target, q) == expected
                assert divisions == []

    @pytest.mark.parametrize("q", [37, 1031, 3**7, 2**11])
    def test_sparse_polynomials_match_the_loop(self, q):
        # the numpy scan skips the addition of a zero coefficient, also in
        # its first step; x^e - x and a few random sparse f of degree <= 40
        rng = random.Random(113 + q)
        polys = [[0, q - 1] + [0] * (e - 2) + [1] for e in (2, 3, 17, 40)]
        for _ in range(4):
            coeffs = [0] * (rng.randint(1, 40) + 1)
            for i in rng.sample(range(len(coeffs)), min(3, len(coeffs))):
                coeffs[i] = rng.randrange(q)
            polys.append(coeffs)
        for coeffs in polys:
            r = rng.randrange(q)
            value = sum(c * r**i for i, c in enumerate(coeffs)) % q
            for c in (value, 0):
                got = congruence._bruteforce_vectorized(coeffs, c, q)
                assert got == congruence._bruteforce_python(coeffs, c, q)
                assert c != value or r in got

    def test_sparse_polynomial_through_the_oracle(self):
        # 37 * 2^11 >= 2^16, so both factors take the numpy scan
        m = 37 * 2**11
        assert congruence._numpy_scans(37, m) and congruence._numpy_scans(2**11, m)
        f = IntPoly((0, -1) + (0,) * 98 + (1,))
        expected = [x for x in range(m) if (pow(x, 100, m) - x) % m == 0]
        assert solve_congruence_bruteforce(f, 0, m) == expected


class TestListingBound:
    def test_every_residue_is_listed_up_to_the_bound(self):
        # 99991 is the largest prime below 10^5, and 100003 the next one
        roots = roots_mod_p(IntPoly(()), 0, 99991)
        assert [r.residue for r in roots] == list(range(99991))
        assert all(r.singular for r in roots)
        with pytest.raises(PadicDynError, match="^f\\(x\\) = 7 holds for every "
                           "residue mod 100003; listing all of them is refused "
                           "above 100000$"):
            roots_mod_p(IntPoly((7 + 100003,)), 7, 100003)

    def test_refusal_quotes_the_target_as_given(self):
        # preimages reduces the target mod p^k only after roots_mod_p
        p = 1000003
        with pytest.raises(PadicDynError, match=f"^f\\(x\\) = {p**2 + 5} holds"):
            preimages(IntPoly((5,)), p**2 + 5, p, 2)
