import random
from fractions import Fraction

import pytest

import padicdyn
from padicdyn import (
    INFINITY,
    CoherentSequence,
    FpPoly,
    IntPoly,
    LiftedRoot,
    NotAUnitError,
    NotPrimeError,
    OrbitResult,
    PadicInt,
    Prime,
    RootModP,
    abs_p,
    as_prime,
    check_coherent,
    forward_orbit,
    hensel_lift,
    is_prime,
    vp_int,
    vp_rat,
)


class TestPrime:
    def test_accepts_primes(self):
        for p in [2, 3, 5, 7, 97, 101, 2**31 - 1]:
            assert Prime(p).p == p

    @pytest.mark.parametrize("n", [-7, 0, 1, 4, 9, 15, 91, 561, 2**32])
    def test_rejects_composites(self, n):
        with pytest.raises(NotPrimeError):
            Prime(n)

    def test_is_prime_agrees_with_trial_division(self):
        def trial(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, int(n**0.5) + 1))

        assert all(is_prime(n) == trial(n) for n in range(2000))

    def test_as_prime_passthrough(self):
        p = Prime(7)
        assert as_prime(p) is p
        assert as_prime(7) == p

    def test_as_prime_cache_is_bounded(self):
        from padicdyn.padic import _verified_prime

        bound = _verified_prime.cache_info().maxsize
        sieve = bytearray([1]) * 20 * bound
        primes = []
        for n in range(2, len(sieve)):
            if sieve[n]:
                primes.append(n)
                sieve[n * n :: n] = bytes(len(range(n * n, len(sieve), n)))
        assert len(primes) > bound
        for q in primes:
            assert as_prime(q).p == q
        assert _verified_prime.cache_info().currsize == bound


class TestValuation:
    def test_vp_int_examples(self):
        assert vp_int(50, 5) == 2
        assert vp_int(0, 7) is INFINITY
        assert vp_int(7, 7) == 1

    def test_vp_int_random_factorizations(self):
        rng = random.Random(101)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7])
            e = rng.randint(0, 20)
            u = rng.randint(1, 10**6)
            while u % p == 0:
                u = rng.randint(1, 10**6)
            assert vp_int(p**e * u, p) == e

    def test_vp_rat_examples(self):
        assert vp_rat(6, 45, 3) == -1
        assert vp_rat(1, 1, 5) == 0
        assert vp_rat(0, 9, 3) is INFINITY

    def test_vp_rat_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            vp_rat(1, 0, 5)

    def test_infinity_ordering(self):
        assert INFINITY > 10**100
        assert not INFINITY < 0
        assert INFINITY == INFINITY
        assert INFINITY >= INFINITY
        assert max(3, INFINITY) is INFINITY

    def test_abs_p_examples(self):
        assert abs_p(50, 1, 5) == Fraction(1, 25)
        assert abs_p(0, 1, 2) == 0
        assert abs_p(3, 2, 5) == 1

    def test_abs_p_negative_valuation(self):
        assert abs_p(1, 5, 5) == 5
        assert abs_p(3, 50, 5) == 25

    def test_abs_p_is_exact_rational(self):
        assert isinstance(abs_p(50, 1, 5), Fraction)

    def test_ultrametric_inequality(self):
        rng = random.Random(202)
        for p in [2, 3, 5, 7]:
            for _ in range(250):
                x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
                y = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
                z = x + y
                nx = abs_p(x.numerator, x.denominator, p)
                ny = abs_p(y.numerator, y.denominator, p)
                nz = abs_p(z.numerator, z.denominator, p)
                assert nz <= max(nx, ny)

    def test_no_error_accumulation(self):
        rng = random.Random(303)
        for p in [2, 3, 5, 7]:
            for _ in range(100):
                v = rng.randint(0, 4)
                eps = Fraction(1, p**v)
                terms = []
                for _ in range(rng.randint(2, 8)):
                    b = rng.randint(1, 50)
                    while b % p == 0:
                        b = rng.randint(1, 50)
                    terms.append(Fraction(rng.randint(-50, 50) * p**rng.randint(v, v + 3), b))
                total = sum(terms, Fraction(0))
                assert abs_p(total.numerator, total.denominator, p) <= eps


class TestPadicInt:
    def test_from_int_examples(self):
        assert PadicInt.from_int(7, 2, 4).digits == (1, 1, 1, 0)
        assert PadicInt.from_int(-1, 5, 3).digits == (4, 4, 4)
        assert PadicInt.from_int(0, 3, 2).digits == (0, 0)

    def test_round_trip(self):
        rng = random.Random(404)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7, 11])
            k = rng.randint(1, 8)
            n = rng.randint(-(10**9), 10**9)
            x = PadicInt.from_int(n, p, k)
            assert x.value == n % p**k
            assert sum(d * p**i for i, d in enumerate(x.digits)) == n % p**k

    def test_add_inverse_pair(self):
        p5 = as_prime(5)
        minus_one = PadicInt.from_int(-1, p5, 3)
        one = PadicInt.from_int(1, p5, 3)
        assert (minus_one + one).digits == (0, 0, 0)

    def test_mul_example(self):
        two = PadicInt.from_int(2, 5, 3)
        three = PadicInt.from_int(3, 5, 3)
        assert (two * three).digits == (1, 1, 0)

    def test_sub_self_is_zero(self):
        rng = random.Random(505)
        for _ in range(50):
            x = PadicInt.from_int(rng.randint(0, 10**6), 7, 4)
            assert (x - x).value == 0

    def test_ring_laws_match_integer_arithmetic(self):
        rng = random.Random(606)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            k = rng.randint(1, 5)
            m = p**k
            a, b, c = (rng.randint(-999, 999) for _ in range(3))
            xa, xb, xc = (PadicInt.from_int(v, p, k) for v in (a, b, c))
            assert ((xa + xb) + xc).value == (a + b + c) % m
            assert (xa + xb).value == (xb + xa).value
            assert (xa * xb).value == (a * b) % m
            assert (xa * xb).value == (xb * xa).value
            assert ((xa * xb) * xc).value == (a * b * c) % m
            assert (xa * (xb + xc)).value == (a * (b + c)) % m

    def test_mismatched_operands_rejected(self):
        x = PadicInt.from_int(1, 5, 3)
        with pytest.raises(ValueError):
            x + PadicInt.from_int(1, 7, 3)
        with pytest.raises(ValueError):
            x + PadicInt.from_int(1, 5, 4)

    def test_invert_example(self):
        two = PadicInt.from_int(2, 5, 3)
        inv = two.invert()
        assert inv.value == 63
        assert inv.digits == (3, 2, 2)
        assert (two * inv).value == 1
        # brute-force confirmation of uniqueness
        assert [y for y in range(125) if 2 * y % 125 == 1] == [63]

    def test_invert_identity(self):
        for p, k in [(2, 5), (7, 3), (13, 2)]:
            one = PadicInt.from_int(1, p, k)
            assert one.invert() == one

    def test_invert_non_unit_rejected(self):
        with pytest.raises(NotAUnitError):
            PadicInt.from_int(5, 5, 3).invert()

    def test_digits_are_expanded_only_when_read(self):
        a = PadicInt.from_int(10, 7, 40)
        b = PadicInt.from_int(-3, 7, 40)
        results = [a, b, a + b, a - b, a * b, -a, a.invert()]
        assert all("digits" not in vars(x) for x in results)
        assert a.is_unit() and "digits" not in vars(a)
        assert a.digits is a.digits and "digits" in vars(a)

    def test_views_match_integer_arithmetic_at_large_precision(self):
        rng = random.Random(707)
        for _ in range(25):
            p = rng.choice([2, 3, 7, 10007, 2**31 - 1, 2**61 - 1])
            k = rng.randint(1, 500)
            m = p**k
            a, b = rng.randrange(-m, m), rng.randrange(-m, m)
            xa, xb = PadicInt.from_int(a, p, k), PadicInt.from_int(b, p, k)
            x = xa * xb + xa - xb
            v = (a * b + a - b) % m
            assert x.value == v
            powers = [p**i for i in range(k + 1)]
            assert x.digits == tuple(v // powers[i] % p for i in range(k))
            assert x.ladder == tuple(v % powers[j] for j in range(1, k + 1))
            assert x.coherent_sequence().terms == x.ladder
            y = PadicInt(x.prime, k, list(x.digits))
            assert y == x and hash(y) == hash(x)
            if a % p:
                assert (xa.invert() * xa).value == 1
            # the lift of the root v of x - v, from v mod p
            lifted = hensel_lift(IntPoly((-v, 1)), v % p, k, p)
            assert lifted.root == v and lifted.as_padic() == x
            assert lifted.digits == x.digits and lifted.ladder == x.ladder
            assert lifted.as_coherent_sequence() == x.coherent_sequence()

    def test_invalid_digits_rejected(self):
        with pytest.raises(ValueError):
            PadicInt(Prime(3), 2, (0, 3))
        with pytest.raises(ValueError):
            PadicInt(Prime(3), 2, (0,))
        with pytest.raises(ValueError):
            PadicInt(Prime(3), 0, ())


class TestCoherence:
    def test_standard_convention_examples(self):
        assert check_coherent([2, 5, 14], 3) == (True, None)
        assert check_coherent([2, 5, 15], 3) == (False, 2)
        assert check_coherent([9, 9, 9, 9], 11) == (True, None)

    def test_literal_convention_is_one_level_stricter(self):
        assert check_coherent([2, 5, 14], 3, convention="literal") == (False, 1)
        # constant sequences satisfy both readings
        assert check_coherent([4, 4, 4], 3, convention="literal") == (True, None)

    def test_plain_integers_are_reduced(self):
        # 5 = 2 mod 3 and 14 = 5 mod 9 hold for any representatives
        assert check_coherent([2 + 27, 5 - 27, 14 + 81], 3) == (True, None)

    def test_rejects_empty_and_bad_convention(self):
        with pytest.raises(ValueError):
            check_coherent([], 3)
        with pytest.raises(ValueError):
            check_coherent([1, 2], 3, convention="other")

    def test_coherent_sequence_type(self):
        seq = CoherentSequence(Prime(3), (2, 5, 14))
        assert seq.terms == (2, 5, 14)
        assert seq.to_padic().value == 14
        with pytest.raises(ValueError):
            CoherentSequence(Prime(3), (2, 5, 15))

    def test_coherent_sequence_normalizes_terms(self):
        seq = CoherentSequence(Prime(3), (2 + 3, 5 + 9, 14 + 27))
        assert seq.terms == (2, 5, 14)

    def test_padic_round_trip_through_sequence(self):
        x = PadicInt.from_int(108, 7, 3)
        seq = x.coherent_sequence()
        assert seq.terms == (3, 10, 108)
        assert seq.to_padic() == x


# (value, a field of it, its repr): each repr is the dataclass text these
# classes printed before they became plain classes, and reads back as a
# construction by field name
VALUES = [
    (lambda: IntPoly((1, 2)), "coeffs", "IntPoly(coeffs=(1, 2))"),
    (lambda: FpPoly(Prime(7), (8, 1, 0)), "prime",
     "FpPoly(prime=Prime(7), coeffs=(1, 1))"),
    (lambda: Prime(7), "p", "Prime(7)"),
    (lambda: PadicInt.from_int(10, 7, 2), "value",
     "PadicInt(prime=Prime(7), precision=2, value=10)"),
    (lambda: CoherentSequence(Prime(7), (3, 10)), "terms",
     "CoherentSequence(prime=Prime(7), terms=(3, 10))"),
    (lambda: RootModP(3, False, 6), "singular",
     "RootModP(residue=3, singular=False, derivative_residue=6)"),
    (lambda: hensel_lift(IntPoly((-2, 0, 1)), 3, 2, 7), "root",
     "LiftedRoot(prime=Prime(7), root=10, precision=2, "
     "polynomial=IntPoly(coeffs=(-2, 0, 1)), target=0)"),
    (lambda: forward_orbit(IntPoly((0, 0, 1)), 2, 7, 1, 3), "cycle_length",
     "OrbitResult(terms=(2, 4, 2, 4), tail_length=0, cycle_length=2)"),
]
VALUE_IDS = [text.partition("(")[0] for _, _, text in VALUES]


class TestValueSemantics:
    @pytest.mark.parametrize("make, field, text", VALUES, ids=VALUE_IDS)
    def test_equal_values_compare_and_hash_equal(self, make, field, text):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b) == text

    @pytest.mark.parametrize("make, field, text", VALUES, ids=VALUE_IDS)
    def test_fields_are_read_only(self, make, field, text):
        x = make()
        before = getattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, field, before)
        with pytest.raises(AttributeError):
            delattr(x, field)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert getattr(x, field) == before and repr(x) == text

    @pytest.mark.parametrize("make, field, text", VALUES, ids=VALUE_IDS)
    def test_repr_reads_back_by_field_name(self, make, field, text):
        if text.startswith("PadicInt"):
            # PadicInt is built from digits; its value is derived
            assert PadicInt(prime=Prime(7), precision=2, digits=(3, 1)) == make()
        else:
            assert eval(text, vars(padicdyn)) == make()

    def test_equality_needs_the_same_class(self):
        assert IntPoly((1,)) != FpPoly(Prime(7), (1,))
        assert IntPoly((1,)) != (1,)
        assert RootModP(3, False, 6) != (3, False, 6)
        assert len({IntPoly((1, 2)), IntPoly([1, 2, 0]), IntPoly((2,))}) == 2

    def test_cached_views_leave_equality_alone(self):
        a, b = PadicInt.from_int(108, 7, 3), PadicInt.from_int(108, 7, 3)
        assert a.digits == (3, 1, 2)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "PadicInt(prime=Prime(7), precision=3, value=108)"
        root = hensel_lift(IntPoly((-2, 0, 1)), 3, 3, 7)
        assert root.ladder == (3, 10, 108)
        assert root == LiftedRoot(Prime(7), 108, 3, IntPoly((-2, 0, 1)), 0)
        assert OrbitResult((1,), None, None).preperiodic is False
