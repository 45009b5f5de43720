import random

import pytest

from padicdyn import (
    FpPoly,
    IntPoly,
    Prime,
    divides_xp_minus_x,
    eval_mod,
    fermat_reduce,
    format_poly,
    fp_divmod,
    make_monic,
    reduce_mod_p,
    roots_mod_p,
)
from helpers import exhaustive_roots, random_int_poly


class TestIntPoly:
    def test_canonical_form_strips_trailing_zeros(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).coeffs == ()
        assert IntPoly((0, 0)).is_zero

    def test_degree_conventions(self):
        assert IntPoly(()).degree == -1
        assert IntPoly((5,)).degree == 0
        assert IntPoly((0, 0, 1)).degree == 2

    def test_arithmetic(self):
        f = IntPoly((2, -7, 1))
        g = IntPoly((1, 1))
        assert (f + g).coeffs == (3, -6, 1)
        assert (f - f).is_zero
        assert (g * g).coeffs == (1, 2, 1)
        assert (g**3).coeffs == (1, 3, 3, 1)
        assert (2 * g).coeffs == (2, 2)
        assert (f - 2).coeffs == (0, -7, 1)

    def test_product_with_one_is_the_other_factor(self):
        # IntPoly is immutable, so nothing is copied
        f = IntPoly.monomial(3, 9999)
        assert f * 1 is f and 1 * f is f and f * IntPoly.constant(1) is f
        assert (f * -1).coeffs[-1] == -3

    def test_exact_evaluation(self):
        f = IntPoly((2, -7, 1))
        assert f(3) == -10
        assert f(0) == 2
        assert IntPoly(())(12345) == 0

    def test_coeff_list_serialization(self):
        assert IntPoly((2, -7, 1)).coeff_list() == [2, -7, 1]
        assert IntPoly(()).coeff_list() == [0]


class TestEvalMod:
    def test_paper_polynomial_mod_10(self):
        f = IntPoly((2, -7, 1))
        assert eval_mod(f, 3, 10) == 0
        assert eval_mod(f, 5, 10) == 2

    def test_zero_polynomial(self):
        assert eval_mod(IntPoly(()), 4, 9) == 0

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            eval_mod(IntPoly((1,)), 0, 1)

    def test_matches_exact_evaluation(self):
        rng = random.Random(17)
        for _ in range(100):
            f = random_int_poly(rng, 6, -50, 50)
            x = rng.randint(-100, 100)
            m = rng.randint(2, 1000)
            assert eval_mod(f, x, m) == f(x) % m


class TestDerivative:
    def test_examples(self):
        assert IntPoly((2, -7, 1)).derivative().coeffs == (-7, 2)
        assert IntPoly((5,)).derivative().is_zero
        assert IntPoly.monomial(1, 5).derivative().coeffs == (0, 0, 0, 0, 5)

    def test_linearity(self):
        rng = random.Random(23)
        for _ in range(100):
            f = random_int_poly(rng, 5)
            g = random_int_poly(rng, 5)
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            lhs = (a * f + b * g).derivative()
            rhs = a * f.derivative() + b * g.derivative()
            assert lhs == rhs


class TestReduceModP:
    def test_examples(self):
        assert reduce_mod_p(IntPoly((5, 3, 10)), 5).coeffs == (0, 3)
        assert reduce_mod_p(IntPoly((2, -7, 1)), 7).coeffs == (2, 0, 1)
        assert reduce_mod_p(IntPoly.monomial(5, 3), 5).is_zero

    def test_shares_the_reads_of_int_poly_but_not_its_type(self):
        # one base holds is_zero, degree, leading_coefficient and coeff
        f = IntPoly((2, -7, 1))
        g = reduce_mod_p(f, 5)
        assert (g.degree, g.leading_coefficient, g.coeff(1), g.coeff(7)) == \
            (2, 1, 3, 0)
        assert (f.degree, f.leading_coefficient, f.coeff(1), f.coeff(-1)) == \
            (2, 1, -7, 0)
        assert not isinstance(g, IntPoly)
        assert g != IntPoly(g.coeffs) and g.to_int_poly() == IntPoly(g.coeffs)
        with pytest.raises(TypeError):
            f + g


class TestFpDivmod:
    def test_x5_minus_x_by_x2_minus_1(self):
        p = Prime(5)
        f = FpPoly(p, (0, -1, 0, 0, 0, 1))
        g = FpPoly(p, (-1, 0, 1))
        q, r = fp_divmod(f, g)
        assert q.coeffs == (0, 1, 0, 1)
        assert r.is_zero

    def test_division_by_one(self):
        p = Prime(7)
        f = FpPoly(p, (3, 1, 4))
        q, r = fp_divmod(f, FpPoly(p, (1,)))
        assert q == f and r.is_zero

    def test_x7_by_x3_minus_x(self):
        p = Prime(3)
        q, r = fp_divmod(FpPoly(p, (0,) * 7 + (1,)), FpPoly(p, (0, -1, 0, 1)))
        assert q.coeffs == (1, 0, 1, 0, 1)
        assert r.coeffs == (0, 1)

    def test_rejects_zero_divisor(self):
        p = Prime(5)
        with pytest.raises(ZeroDivisionError):
            fp_divmod(FpPoly(p, (1, 1)), FpPoly(p, ()))

    def test_reexpansion_identity(self):
        rng = random.Random(31)
        for _ in range(200):
            p = Prime(rng.choice([2, 3, 5, 7, 11]))
            f = FpPoly(p, tuple(rng.randrange(p.p) for _ in range(rng.randint(1, 9))))
            g = FpPoly(p, tuple(rng.randrange(p.p) for _ in range(rng.randint(1, 5))))
            if g.is_zero:
                continue
            q, r = fp_divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree


class TestRootFinder:
    PRIMES = [2, 3, 5, 7, 11, 101, 257]

    def _case(self, rng, p):
        kind = rng.randrange(5)
        if kind == 0:  # planted roots, some repeated, times a random cofactor
            f = random_int_poly(rng, 3, -50, 50)
            for _ in range(rng.randint(1, 6)):
                f = f * IntPoly((-rng.randrange(p), 1)) ** rng.randint(1, 3)
            return f
        if kind == 1:  # high degree: at or above p for every p <= 11
            return random_int_poly(rng, min(2 * p + 2, 40), min_deg=min(p, 30))
        if kind == 2:  # a constant, or a multiple of p: the zero reduction
            if rng.random() < 0.5:
                return random_int_poly(rng, 0)
            return p * random_int_poly(rng, 4)
        # non-monic, coefficients well outside [0, p)
        return random_int_poly(rng, 8, -10**6, 10**6)

    def test_matches_exhaustive_scan(self):
        rng = random.Random(2024)
        for _ in range(2100):
            p = rng.choice(self.PRIMES)
            f = self._case(rng, p)
            t = rng.randint(-3 * p, 3 * p)
            expected = exhaustive_roots(f, t, p)
            assert reduce_mod_p(f - t, p).roots() == expected
            assert [r.residue for r in roots_mod_p(f, t, p)] == expected

    def test_every_residue_a_root(self):
        # x^p - x splits into all p linear factors
        for p in self.PRIMES:
            f = IntPoly.monomial(1, p) - IntPoly.x()
            assert reduce_mod_p(f, p).roots() == list(range(p))
            assert reduce_mod_p(f * f, p).roots() == list(range(p))

    def test_zero_and_constants(self):
        assert FpPoly(Prime(5), ()).roots() == [0, 1, 2, 3, 4]
        assert FpPoly(Prime(5), (3,)).roots() == []
        assert FpPoly(Prime(2), (1,)).roots() == []

    def test_large_prime_planted_roots(self):
        # (x - r)^2 (x - s) has exactly the roots r and s
        p = 1_000_000_007
        rng = random.Random(9)
        for _ in range(20):
            r, s = sorted(rng.sample(range(p), 2))
            g = IntPoly((-r, 1)) ** 2 * IntPoly((-s, 1))
            assert [x.residue for x in roots_mod_p(g, 0, p)] == [r, s]


class TestRootSplitting:
    """FpPoly.roots takes w = x^((p-1)/2) mod h once, and w alone sorts
    the roots of h into 0, the nonzero squares (gcd(h, w - 1)) and the
    non-squares (gcd(h, w + 1)); each gcd with three or more roots is
    then split by shifts a = 1, 2, ..., and every piece of degree at
    most 2 is solved by the quadratic formula, with no power."""

    # p = 3 mod 4, then p = 1 mod 4
    PRIMES = [3, 7, 11, 19, 23, 43, 5, 13, 17, 29, 37, 101]

    def test_matches_exhaustive_scan(self):
        rng = random.Random(4111)
        for _ in range(600):
            p = rng.choice(self.PRIMES)
            # up to degree 8 over planted linear factors, some repeated,
            # often including x itself, times a random cofactor
            f = random_int_poly(rng, 2, -30, 30)
            while f.degree < 8:
                r = 0 if rng.random() < 0.3 else rng.randrange(p)
                f = f * IntPoly((-r, 1)) ** rng.randint(1, 2)
                if rng.random() < 0.3:
                    break
            # mostly t = 0 mod p, which keeps the planted roots
            t = rng.choice([0, p, -2 * p, rng.randint(-3 * p, 3 * p)])
            h = reduce_mod_p(f - t, p)
            if h.is_zero:
                continue
            assert h.roots() == exhaustive_roots(f, t, p)
            # roots_mod_p reads the derivative off h, not off f
            for root in roots_mod_p(f, t, p):
                d = eval_mod(f.derivative(), root.residue, p)
                assert (root.derivative_residue, root.singular) == (d, d == 0)

    def _count_powers(self, monkeypatch):
        from padicdyn import polynomial

        calls = []
        powmod = polynomial._powmod

        def counted(*args):
            calls.append(args)
            return powmod(*args)

        monkeypatch.setattr(polynomial, "_powmod", counted)
        return calls

    @pytest.mark.parametrize(
        "roots, powers",
        [
            ([1, 4], 1),  # both squares mod 7: w sorts, the formula splits
            ([3, 5], 1),  # both non-squares
            ([0, 3], 1),  # 0 is read off h(0): w alone sorts
            ([0, 3, 5], 1),
            ([1, 3], 1),  # a square and a non-square: w alone splits
            ([0, 1], 1),
            ([2], 1),  # one root: nothing to split
            # three squares: the gcd has degree 3, and a = 1 splits it
            # into 2 (a non-square) and 3, 5 (squares), a quadratic
            ([1, 2, 4], 2),
        ],
    )
    def test_first_split_reuses_w(self, monkeypatch, roots, powers):
        calls = self._count_powers(monkeypatch)
        f = IntPoly((1,))
        for r in roots:
            f = f * IntPoly((-r, 1))
        # x^2 + 1 has no roots mod 7
        assert reduce_mod_p(f * f * IntPoly((1, 0, 1)), 7).roots() == roots
        assert len(calls) == powers

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17])
    def test_square_classes_match_exhaustive_scan(self, p):
        # roots only among the nonzero squares, only among the
        # non-squares, or with 0; and h of degree >= p, either from
        # repeated roots or as a multiple of x^p - x
        rng = random.Random(1800 + p)
        squares = sorted({r * r % p for r in range(1, p)})
        pools = [squares, [r for r in range(1, p) if r not in squares]]
        pools += [[0] + pool for pool in pools]
        x_p_minus_x = IntPoly.monomial(1, p) - IntPoly.x()
        for i in range(80):
            pool = pools[i % 4]
            f = IntPoly.constant(rng.randrange(1, p) + p * rng.randint(-3, 3))
            for r in rng.sample(pool, rng.randint(1, len(pool))):
                f = f * IntPoly((-r, 1)) ** rng.randint(1, p + 1)
            if i % 5 == 4:
                f = f * x_p_minus_x * random_int_poly(rng, 4, -20, 20)
            h = reduce_mod_p(f, p)
            assert h.roots() == exhaustive_roots(f, 0, p)

    def test_large_prime_planted_pairs(self):
        # x^2 + 1 has no roots, as p = 3 mod 4
        p = 2**61 - 1
        rng = random.Random(61)
        for i in range(30):
            r, s = sorted(rng.sample(range(p), 2))
            if i % 5 == 0:
                r = 0
            g = IntPoly((-r, 1)) ** (1 + i % 2) * IntPoly((-s, 1))
            g = g * IntPoly((1, 0, 1)) ** (i % 3) * rng.randrange(1, p)
            assert reduce_mod_p(g, p).roots() == [r, s]
            assert [x.residue for x in roots_mod_p(g + 5, 5, p)] == [r, s]


class TestLowDegreeRoots:
    """A monic piece of degree at most 2, h itself or one left by the
    gcds and shifts, is solved by the quadratic formula with Cipolla's
    square root, checked here against the exhaustive scan."""

    # small ones, and some with a high power of 2 in p - 1 (7681 =
    # 15 * 2^9 + 1, 7937 = 31 * 2^8 + 1, 257 = 2^8 + 1)
    PRIMES = [3, 5, 7, 11, 13, 17, 257, 7681, 7937, 9973]

    def _quadratic(self, rng, p, kind):
        lead = rng.choice([1, rng.randrange(1, p)]) + p * rng.randint(-2, 2)
        if kind == 0:  # D = 0: a double root
            r = rng.randrange(p)
            return lead * IntPoly((-r, 1)) ** 2
        if kind == 1:  # h(0) = 0
            return lead * IntPoly((0, rng.randrange(p), 1))
        b, c = rng.randrange(p), rng.randrange(p)
        if kind == 2:  # D a non-square: none
            squares = {r * r % p for r in range(p)}
            while (b * b - 4 * c) % p in squares:
                b, c = rng.randrange(p), rng.randrange(p)
        return lead * IntPoly((c, b, 1)) + p * random_int_poly(rng, 2)

    def test_quadratics_match_exhaustive_scan(self, monkeypatch):
        from padicdyn import polynomial

        def no_power(*args):
            raise AssertionError("a quadratic h took a polynomial power")

        monkeypatch.setattr(polynomial, "_powmod", no_power)
        rng = random.Random(2101)
        # and primes drawn at random below 10^4
        primes = self.PRIMES + [
            q for q in (rng.randrange(20, 10**4) for _ in range(60))
            if all(q % d for d in range(2, int(q**0.5) + 1))
        ]
        for i in range(400):
            p, kind = primes[i % len(primes)], i % 4
            f = self._quadratic(rng, p, kind)
            # the first three kinds keep their shape at t = 0 mod p
            t = p * rng.randint(-3, 3) if kind < 3 else rng.randint(-3 * p, 3 * p)
            expected = exhaustive_roots(f, t, p)
            if kind == 0:
                assert len(expected) == 1
            elif kind == 1:
                assert 0 in expected
            elif kind == 2:
                assert expected == []
            assert reduce_mod_p(f - t, p).roots() == expected
            assert [r.residue for r in roots_mod_p(f, t, p)] == expected

    def test_pieces_from_higher_degree(self, monkeypatch):
        # planted roots of one square class, so that w leaves a gcd of
        # degree 2 or more for the shifts, times x^2 - n with n a
        # non-square, which has no roots
        from padicdyn import polynomial

        pieces = []
        low = polynomial._low_degree_roots

        def recorded(h, p):
            pieces.append(len(h) - 1)
            return low(h, p)

        monkeypatch.setattr(polynomial, "_low_degree_roots", recorded)
        rng = random.Random(2102)
        for i in range(120):
            p = self.PRIMES[1 + i % 6]
            squares = sorted({r * r % p for r in range(1, p)})
            pool = squares if i % 2 else [r for r in range(1, p) if r not in squares]
            n = next(r for r in range(2, p) if r not in squares)
            f = IntPoly((-n, 0, 1)) * rng.randrange(1, p)
            for r in rng.sample(pool, min(len(pool), rng.randint(2, 6))):
                f = f * IntPoly((-r, 1)) ** rng.randint(1, 2)
            if i % 3 == 0:
                f = f * IntPoly((0, 1))
            assert reduce_mod_p(f, p).roots() == exhaustive_roots(f, 0, p)
        assert pieces.count(2) > 100

    @pytest.mark.parametrize("p", [998244353, 2**64 - 2**32 + 1, 2**255 - 19])
    def test_large_prime_planted_roots(self, p):
        # every root found is a root, and there are 1 + chi(D) of them
        rng = random.Random(p % 1000)
        for i in range(60):
            lead = rng.randrange(1, p)
            if i % 3 == 0:
                r, s = rng.randrange(p), rng.randrange(p)
                if i % 9 == 0:
                    s = r
                f = lead * IntPoly((-r, 1)) * IntPoly((-s, 1))
            else:
                f = lead * IntPoly((rng.randrange(p), rng.randrange(p), 1))
            c, b, _ = reduce_mod_p(f * pow(lead, -1, p), p).coeffs
            d = (b * b - 4 * c) % p
            chi = 0 if d == 0 else 1 if pow(d, (p - 1) // 2, p) == 1 else -1
            roots = reduce_mod_p(f, p).roots()
            assert len(roots) == 1 + chi
            assert all(eval_mod(f, x, p) == 0 for x in roots)
            if i % 3 == 0:
                assert roots == sorted({r, s})


class TestFermatReduce:
    def test_examples(self):
        assert fermat_reduce(IntPoly.monomial(1, 7), 3).coeffs == (0, 1)
        assert fermat_reduce(IntPoly((0, 1, 0, 0, 0, 1)), 5).coeffs == (0, 2)
        low = IntPoly((1, 0, 1))
        assert fermat_reduce(low, 5) == reduce_mod_p(low, 5)

    def test_degree_always_below_p(self):
        rng = random.Random(37)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            f = random_int_poly(rng, 3 * p, min_deg=p)
            g = fermat_reduce(f, p)
            assert g.is_zero or g.degree < p

    def test_root_sets_preserved(self):
        rng = random.Random(41)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            f = random_int_poly(rng, 3 * p, min_deg=p)
            g = fermat_reduce(f, p)
            expected = exhaustive_roots(f, 0, p)
            got = list(range(p)) if g.is_zero else g.roots()
            assert got == expected

    def test_matches_division_by_x_p_minus_x(self):
        # the folding of exponents against the remainder of the division
        rng = random.Random(4999)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7, 13, 31, 101])
            f = random_int_poly(rng, rng.choice([p, 3 * p, 5 * p + 7]), -10**6, 10**6)
            x_p_minus_x = FpPoly(Prime(p), (0, -1) + (0,) * (p - 2) + (1,))
            expected = fp_divmod(reduce_mod_p(f, p), x_p_minus_x)[1]
            assert fermat_reduce(f, p) == expected

    def test_zero_reduction_means_every_residue_is_a_root(self):
        # x^3 - x vanishes at every residue mod 3
        f = IntPoly((0, -1, 0, 1))
        assert fermat_reduce(f, 3).is_zero
        assert exhaustive_roots(f, 0, 3) == [0, 1, 2]


class TestDividesXpMinusX:
    def test_true_certificate(self):
        ok, q, r = divides_xp_minus_x(IntPoly((-1, 0, 1)), 5)
        assert ok
        assert q.coeffs == (0, 1, 0, 1)
        assert r.is_zero
        # witness re-expands to x^p - x
        assert q * FpPoly(Prime(5), (-1, 0, 1)) == FpPoly(Prime(5), (0, -1, 0, 0, 0, 1))

    def test_false_certificate(self):
        ok, _, r = divides_xp_minus_x(IntPoly((1, 0, 1)), 7)
        assert not ok
        assert not r.is_zero
        assert exhaustive_roots(IntPoly((1, 0, 1)), 0, 7) == []

    def test_x_divides_for_every_prime(self):
        for p in [2, 3, 5, 7, 11, 13]:
            ok, q, _ = divides_xp_minus_x(IntPoly((0, 1)), p)
            assert ok
            assert q.degree == p - 1 and q.is_monic

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            divides_xp_minus_x(IntPoly((1, 2)), 5)
        with pytest.raises(ValueError):
            divides_xp_minus_x(IntPoly((0, 5)), 5)  # zero mod p

    def test_degree_above_p_never_divides(self):
        ok, q, r = divides_xp_minus_x(IntPoly((0, 0, 0, 0, 1)), 3)
        assert not ok
        assert q.is_zero
        assert r.coeffs == (0, -1 % 3, 0, 1)  # x^3 - x untouched

    def test_biconditional_small_sweep(self):
        # root count equals degree exactly when the division certifies it
        for p in [3, 5]:
            prime = Prime(p)
            for c0 in range(p):
                for c1 in range(p):
                    f = IntPoly((c0, c1, 1))
                    ok, _, _ = divides_xp_minus_x(f, prime)
                    assert ok == (len(exhaustive_roots(f, 0, p)) == 2)


class TestMakeMonic:
    def test_normalizes_leading_coefficient(self):
        g = FpPoly(Prime(7), (3, 0, 4))
        m = make_monic(g)
        assert m.is_monic
        assert m.roots() == g.roots()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            make_monic(FpPoly(Prime(7), ()))


class TestFormatPoly:
    def test_examples(self):
        assert format_poly(IntPoly((2, -7, 1))) == "x^2 - 7x + 2"
        assert format_poly(IntPoly(())) == "0"
        assert format_poly(IntPoly((0, -1))) == "-x"
        assert format_poly(IntPoly((-3,))) == "-3"
        assert format_poly(IntPoly((0, 1, 0, 2))) == "2x^3 + x"


def schoolbook_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        for j, d in enumerate(b, i):
            out[j] += c * d
    return out


def schoolbook_powmod(base, e, h, p):
    from padicdyn import polynomial

    result = polynomial._divmod(base, h, p)[1]
    for bit in bin(e)[3:]:
        result = polynomial._divmod(schoolbook_mul(result, result), h, p)[1]
        if bit == "1":
            result = polynomial._divmod(schoolbook_mul(result, base), h, p)[1]
    return result


class TestPackedArithmetic:
    """_powmod packs each residue mod h into one int, and _mul packs long
    operands; both must agree with the coefficient-by-coefficient loop."""

    @pytest.mark.parametrize("p", [3, 5, 2**61 - 1, 2**255 - 19])
    def test_power_matches_the_schoolbook_power(self, p):
        from padicdyn.polynomial import _powmod

        rng = random.Random(p % 1000)
        for n in (1, 2, 3, 4, 5, 6, 8, 13, 21, 40):
            h = [rng.randrange(p) for _ in range(n)] + [1]
            # every coefficient p - 1: the largest sum a slot can hold
            full = [p - 1] * n + [1]
            bases = [[0, 1], [rng.randrange(p), 1], [p - 1] * n,
                     [rng.randrange(p) for _ in range(rng.randint(1, n + 1))]]
            # up to 64-bit exponents, and up to 12 bits at high degree
            bits = 64 if n <= 8 else 12
            for e in (1, 2, 3, (p - 1) // 2, rng.getrandbits(bits) | 1):
                if e.bit_length() > bits:
                    continue
                for base in bases:
                    for modulus in (h, full):
                        assert _powmod(base, e, modulus, p) == schoolbook_powmod(
                            base, e, modulus, p
                        )

    def test_power_of_low_degree_needs_no_reduction(self):
        from padicdyn.polynomial import _powmod

        # x^6 mod a degree-1000 h is x^6 itself
        h = [1] * 1000 + [1]
        assert _powmod([0, 1], 6, h, 13) == [0] * 6 + [1]
        assert _powmod([3, 1], 2, h, 13) == [9, 6, 1]

    def test_long_products_match_the_loop(self):
        from padicdyn.polynomial import _PACKED_MUL_MIN, _mul

        rng = random.Random(2027)
        for _ in range(60):
            bits = rng.choice([1, 2, 63, 64, 65, 300])
            lengths = [rng.randint(_PACKED_MUL_MIN, 3 * _PACKED_MUL_MIN)
                       for _ in range(2)]
            signed = rng.random() < 0.7
            a, b = (
                [rng.randrange(-(2**bits) if signed else 0, 2**bits) for _ in range(n)]
                for n in lengths
            )
            if rng.random() < 0.2:
                a = [-(2**bits)] * len(a)  # every slot at its widest
            assert _mul(a, b) == schoolbook_mul(a, b)
        # the middle coefficient of 255 copies of 2^64 - 1 times itself,
        # 255 (2^64 - 1)^2, nearly fills the 136 bits its bound allows
        wide = [2**64 - 1] * 255
        for sign in (1, -1):
            a = [sign * c for c in wide]
            assert _mul(a, wide) == schoolbook_mul(a, wide)

    def test_parsed_powers_are_exact(self):
        from math import comb

        from padicdyn import parse_poly

        assert parse_poly("(x+1)^1000").coeffs == tuple(
            comb(1000, i) for i in range(1001)
        )
        assert parse_poly("(x-2)^300").coeffs == tuple(
            comb(300, i) * (-2) ** (300 - i) for i in range(301)
        )
        f = parse_poly("(x^40+x+1)^120")
        for a in (-3, -1, 2, 5, 10**6):
            assert f(a) == (a**40 + a + 1) ** 120
