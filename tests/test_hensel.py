import random
import threading
from fractions import Fraction

import pytest

from padicdyn import (
    IntPoly,
    NotARootError,
    SingularRootError,
    abs_p,
    check_coherent,
    eval_mod,
    hensel_lift,
    hensel_step,
    solve_congruence_bruteforce,
)
from helpers import SMALL_PRIMES, planted_nonsingular


class TestHenselStep:
    def test_sqrt2_in_z7(self):
        assert hensel_step(IntPoly((-2, 0, 1)), 3, 1, 7) == 10
        assert eval_mod(IntPoly((-2, 0, 1)), 10, 49) == 0

    def test_sqrt_minus1_in_z5(self):
        assert hensel_step(IntPoly((1, 0, 1)), 2, 1, 5) == 7
        assert eval_mod(IntPoly((1, 0, 1)), 7, 25) == 0

    def test_exact_root_stays_put(self):
        for p in [2, 5, 11]:
            assert hensel_step(IntPoly((0, 1)), 0, 1, p) == 0

    def test_not_a_root_rejected(self):
        with pytest.raises(NotARootError):
            hensel_step(IntPoly((-2, 0, 1)), 1, 1, 7)

    def test_singular_root_rejected(self):
        with pytest.raises(SingularRootError):
            hensel_step(IntPoly((0, 0, 1)), 0, 1, 5)

    @pytest.mark.parametrize("j", [0, -1])
    def test_level_below_one_rejected(self, j):
        with pytest.raises(ValueError, match="^level must be at least 1$"):
            hensel_step(IntPoly((-2, 0, 1)), 3, j, 7)

    def test_error_types_are_distinct(self):
        assert not issubclass(NotARootError, SingularRootError)
        assert not issubclass(SingularRootError, NotARootError)

    def test_uniqueness_exhaustively(self):
        rng = random.Random(71)
        for _ in range(200):
            p = rng.choice(SMALL_PRIMES)
            j = rng.randint(1, 5)
            f, r = planted_nonsingular(rng, p, rng.randint(1, 6), level=j)
            a = r % p**j
            lifted = hensel_step(f, a, j, p)
            valid = [
                t
                for t in range(p)
                if eval_mod(f, a + t * p**j, p ** (j + 1)) == 0
            ]
            assert len(valid) == 1
            assert lifted == a + valid[0] * p**j

    def test_newton_update_agreement(self):
        # the step equals a - f(a) * f'(a)^-1 computed mod p^(j+1)
        rng = random.Random(73)
        for _ in range(100):
            p = rng.choice(SMALL_PRIMES)
            j = rng.randint(1, 4)
            f, r = planted_nonsingular(rng, p, rng.randint(2, 5), level=j)
            a = r % p**j
            m = p ** (j + 1)
            d = eval_mod(f.derivative(), a, m)
            newton = (a - eval_mod(f, a, m) * pow(d, -1, m)) % m
            assert hensel_step(f, a, j, p) == newton


class TestHenselLift:
    def test_sqrt2_ladder(self):
        lifted = hensel_lift(IntPoly((-2, 0, 1)), 3, 3, 7)
        assert lifted.ladder == (3, 10, 108)
        assert lifted.root == 108
        assert 108**2 % 343 == 2

    def test_sqrt_minus1_ladder(self):
        lifted = hensel_lift(IntPoly((1, 0, 1)), 2, 3, 5)
        assert lifted.ladder == (2, 7, 57)
        assert (57**2 + 1) % 125 == 0

    def test_exact_root_ladder(self):
        c = 12345
        lifted = hensel_lift(IntPoly((-c, 1)), c % 7, 5, 7)
        assert lifted.ladder == tuple(c % 7**j for j in range(1, 6))

    def test_ladder_invariants(self):
        rng = random.Random(79)
        for _ in range(100):
            p = rng.choice(SMALL_PRIMES)
            k = rng.randint(1, 6)
            f, r = planted_nonsingular(rng, p, rng.randint(1, 5))
            lifted = hensel_lift(f, r, k, p)
            assert len(lifted.ladder) == k
            for j, a in enumerate(lifted.ladder, start=1):
                assert 0 <= a < p**j
                assert eval_mod(f, a, p**j) == 0
            for j in range(1, k):
                assert (lifted.ladder[j] - lifted.ladder[j - 1]) % p**j == 0

    def test_ladder_is_coherent_standard(self):
        lifted = hensel_lift(IntPoly((-2, 0, 1)), 3, 6, 7)
        assert check_coherent(lifted.ladder, 7) == (True, None)
        assert lifted.as_coherent_sequence().terms == lifted.ladder

    def test_cauchy_witness(self):
        lifted = hensel_lift(IntPoly((-2, 0, 1)), 3, 8, 7)
        for j in range(1, 8):
            gap = lifted.ladder[j] - lifted.ladder[j - 1]
            assert abs_p(gap, 1, 7) <= Fraction(1, 7**j)

    def test_as_padic(self):
        lifted = hensel_lift(IntPoly((-2, 0, 1)), 3, 3, 7)
        x = lifted.as_padic()
        assert x.value == 108
        assert x.precision == 3
        assert (x * x).value == 2

    def test_nonzero_target(self):
        lifted = hensel_lift(IntPoly((0, 0, 1)), 3, 2, 7, target=2)
        assert lifted.root == 10
        assert lifted.target == 2
        assert eval_mod(lifted.polynomial, lifted.root, 49) == 2

    def test_oracle_equivalence(self):
        rng = random.Random(83)
        for _ in range(40):
            p = rng.choice([2, 3, 5, 7])
            k = rng.randint(2, 5)
            while p**k > 10**5:
                k -= 1
            f, r = planted_nonsingular(rng, p, rng.randint(2, 4))
            lifted = hensel_lift(f, r, k, p)
            matching = [
                x
                for x in solve_congruence_bruteforce(f, 0, p**k)
                if x % p == r % p
            ]
            assert matching == [lifted.root]

    def test_rejects_bad_seeds(self):
        with pytest.raises(NotARootError):
            hensel_lift(IntPoly((-2, 0, 1)), 1, 3, 7)
        with pytest.raises(SingularRootError):
            hensel_lift(IntPoly((0, 0, 1)), 0, 3, 5)
        with pytest.raises(ValueError):
            hensel_lift(IntPoly((-2, 0, 1)), 3, 0, 7)

    def test_newton_matches_iterated_steps(self):
        rng = random.Random(89)
        for _ in range(300):
            p = rng.choice(SMALL_PRIMES + [101, 257])
            k = rng.randint(1, 40)
            f, r = planted_nonsingular(rng, p, rng.randint(1, 6))
            t = rng.randint(-50, 50)
            ladder = [r % p]
            for j in range(1, k):
                ladder.append(hensel_step(f, ladder[-1], j, p))
            lifted = hensel_lift(f + t, r, k, p, target=t)
            assert lifted.root == ladder[-1]
            assert lifted.precision == k
            assert lifted.ladder == tuple(ladder)

    def test_bad_seeds_rejected_before_any_step(self, monkeypatch):
        from padicdyn import hensel

        def no_step(*args):
            raise AssertionError("hensel_step reached")

        monkeypatch.setattr(hensel, "hensel_step", no_step)
        with pytest.raises(NotARootError):
            hensel.hensel_lift(IntPoly((-2, 0, 1)), 1, 40, 7)
        with pytest.raises(SingularRootError):
            hensel.hensel_lift(IntPoly((0, 0, 1)), 0, 40, 5)
        with pytest.raises(SingularRootError):
            hensel.hensel_lift(IntPoly((-1, 0, 0, 1)), 1, 40, 3)

    def test_ladder_is_derived_on_demand(self):
        lifted = hensel_lift(IntPoly((-2, 0, 1)), 3, 40, 7)
        assert "ladder" not in vars(lifted)
        assert lifted.ladder is lifted.ladder
        assert lifted.ladder[-1] == lifted.root

    def test_non_monic_accepted(self):
        # 2x - 1 has the nonsingular root 3 mod 5: 2*3 = 6 = 1
        lifted = hensel_lift(IntPoly((-1, 2)), 3, 3, 5)
        assert eval_mod(IntPoly((-1, 2)), lifted.root, 125) == 0


WIDE_PRIMES = [2, 3, 7, 257]
# the edges of the halving schedule: k = 2^n, 2^n + 1 and their neighbours
WIDE_PRECISIONS = [2, 3, 4, 5, 8, 9, 16, 17, 33]


def wide_translated_power(rng, p, k):
    """(f, t, r): f = (x + a)^e - a with a near p^(2k), so that every
    coefficient is much wider than p^k, and t = f(r) with r a
    nonsingular root of f = t mod p."""
    e = rng.choice([e for e in (2, 3, 5) if e % p])
    a = p ** (2 * k) - rng.randrange(1, p**k)
    f = IntPoly((a, 1)) ** e - a
    r = rng.randrange(p ** (2 * k))
    while (r + a) % p == 0:
        r += 1
    return f, f(r), r


class TestWideCoefficients:
    @pytest.mark.parametrize("p", WIDE_PRIMES)
    def test_matches_iterated_steps_and_oracle(self, p):
        rng = random.Random(1000 + p)
        for k in WIDE_PRECISIONS:
            for _ in range(3):
                f, t, r = wide_translated_power(rng, p, k)
                assert min(map(abs, f.coeffs[:-1])) > p ** (2 * k - 1)
                ladder = [r % p]
                for j in range(1, k):
                    ladder.append(hensel_step(f - t, ladder[-1], j, p))
                lifted = hensel_lift(f, r, k, p, target=t)
                assert lifted.root == ladder[-1] == r % p**k
                assert lifted.ladder == tuple(ladder)
                if p**k <= 10**6:
                    matching = [
                        x
                        for x in solve_congruence_bruteforce(f, t, p**k)
                        if x % p == r % p
                    ]
                    assert matching == [lifted.root]

    def test_one_hensel_step_per_lift(self, monkeypatch):
        from padicdyn import hensel

        calls = []
        step = hensel.hensel_step

        def counted(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr(hensel, "hensel_step", counted)
        rng = random.Random(1100)
        for p in WIDE_PRIMES:
            for k in [1] + WIDE_PRECISIONS:
                f, t, r = wide_translated_power(rng, p, k)
                calls.clear()
                assert hensel.hensel_lift(f, r, k, p, target=t).root == r % p**k
                assert len(calls) == (k >= 2)

    def test_lift_carries_the_callers_polynomial_and_target(self):
        rng = random.Random(1200)
        for p in WIDE_PRIMES:
            f, t, r = wide_translated_power(rng, p, 9)
            lifted = hensel_lift(f, r, 9, p, target=t)
            assert lifted.polynomial is f
            assert lifted.target == t % p**9
            assert eval_mod(lifted.polynomial, lifted.root, p**9) == lifted.target


class TestLadderCache:
    """Each lift builds its own ladder of cuts and keeps nothing: the
    seeds of one backward step, and lifts of polynomials that agree mod
    p, never read another lift's cuts."""

    def test_three_root_step_builds_its_ladder_once(self):
        from padicdyn import backward

        # a monic step with three roots lifts two of them and takes the
        # third from the coefficient sum
        f, p, k = IntPoly((1,)), 7, 12
        for r in (1, 2, 4):
            f = f * IntPoly((-r, 1))
        f += IntPoly((5 * 7**40, -3 * 7**33))
        t = f(2) + 7**20
        lifted, singular = backward.preimages(f, t, p, k)
        assert len(lifted) == 3 and singular == []
        fresh = []
        for r in backward.roots_mod_p(f, t, p):
            fresh.append(hensel_lift(f, r.residue, k, p, target=t % p**k).root)
        assert sorted(fresh) == lifted

    def test_alternating_lifts_never_read_a_stale_ladder(self):
        # f and g agree mod 7, so a ladder of the wrong one would still
        # accept the seed 3 and lift it to a wrong root
        f, g, p = IntPoly((-2, 0, 1)), IntPoly((5, 0, 1)), 7
        lifts = [(f, 9), (g, 9), (f, 9), (f, 4), (f, 9), (g, 4), (g, 9)]
        for poly, k in lifts:
            root = hensel_lift(poly, 3, k, p).root
            assert eval_mod(poly, root, p**k) == 0 and root % p == 3
            assert root == stepwise_ladder(poly, 3, k, p)[-1]

    def test_same_difference_shares_a_ladder(self):
        # f + 1 = 1 and f = 0 lift the same g = f - target
        f, p, k = IntPoly((-2, 0, 1)), 7, 9
        a = hensel_lift(f, 3, k, p)
        b = hensel_lift(f + 1, 3, k, p, target=1)
        assert a.root == b.root and (a.target, b.target) == (0, 1)

    def test_two_threads_alternating_lifts_get_the_stepwise_root(self):
        # one thread lifts f while the other lifts g, which agrees with f
        # mod 7, and then they swap, round after round
        f, g, p = IntPoly((-2, 0, 1)), IntPoly((5, 0, 1)), 7
        expected = {
            (poly, k): stepwise_ladder(poly, 3, k, p)[-1]
            for poly in (f, g)
            for k in (2, 4, 9, 17)
        }
        rounds = [(k, i % 2) for i in range(40) for k in (2, 4, 9, 17)]
        barrier = threading.Barrier(2, timeout=10)
        results = {0: [], 1: []}

        def run(me):
            for k, turn in rounds:
                poly = (f, g)[me ^ turn]
                barrier.wait()
                results[me].append((poly, k, hensel_lift(poly, 3, k, p).root))

        threads = [threading.Thread(target=run, args=(me,)) for me in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert [len(r) for r in results.values()] == [len(rounds)] * 2
        for lifts in results.values():
            for poly, k, root in lifts:
                assert root == expected[poly, k]


def digit_form_step(f, a, j, p):
    """The step's digit form: a + t p^j with t = -(f(a)/p^j) f'(a)^-1 mod p."""
    q = p**j
    t = -(eval_mod(f, a, p * q) // q) * pow(eval_mod(f.derivative(), a, p), -1, p) % p
    return (a + t * q) % (p * q)


def planted_at_level(rng, p, j, lead):
    """(f, a): f = (x - a) g + p^j h with a in [0, p^j) and g(a) a unit
    mod p, so a is a nonsingular root of f mod p^j; f's leading
    coefficient is g's, `lead`."""
    a = rng.randrange(p**j)
    deg = rng.randint(2, 5)
    while True:
        g = IntPoly(tuple(rng.randrange(-(p**j), p**j) for _ in range(deg - 1)) + (lead,))
        if eval_mod(g, a, p):
            break
    h = IntPoly(tuple(rng.randrange(-(p**j), p**j) for _ in range(deg)))
    return IntPoly((-a, 1)) * g + p**j * h, a


def draw_lead(rng, p, kind):
    if kind == "monic":
        return 1
    if kind == "divisible":
        return p * rng.randint(1, 9)
    c = rng.randrange(2, 10 * p)
    return c if c % p else c + 1


class TestStepAgainstDigitForm:
    @pytest.mark.parametrize("p", [2, 3, 7, 2**61 - 1])
    @pytest.mark.parametrize("kind", ["monic", "unit", "divisible"])
    def test_newton_step_equals_the_digit_form(self, p, kind):
        rng = random.Random(f"{p} {kind}")
        for j in range(1, 31):
            lead = draw_lead(rng, p, kind)
            f, a = planted_at_level(rng, p, j, lead)
            assert f.coeffs[-1] == lead
            step = hensel_step(f, a, j, p)
            assert step == digit_form_step(f, a, j, p)
            assert step % p**j == a and eval_mod(f, step, p ** (j + 1)) == 0


def stepwise_ladder(f, a, k, p):
    """(a_1, ..., a_k) by k - 1 single hensel_steps."""
    ladder = [a % p]
    for j in range(1, k):
        ladder.append(hensel_step(f, ladder[-1], j, p))
    return ladder
