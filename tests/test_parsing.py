import math
import random

import pytest

from padicdyn import IntPoly, PolyParseError, format_poly, parse_poly
from helpers import random_int_poly


class TestParsePoly:
    def test_paper_polynomials(self):
        assert parse_poly("x^2 - 7x + 2").coeffs == (2, -7, 1)
        assert parse_poly("x^5 - x").coeffs == (0, -1, 0, 0, 0, 1)

    def test_parenthesized_expansion(self):
        assert parse_poly("(x+1)^2").coeffs == (1, 2, 1)
        assert parse_poly("(x+1)(x-1)").coeffs == (-1, 0, 1)
        assert parse_poly("(x + 2)^3 - x^3").coeffs == (8, 12, 6)

    def test_whitespace_insensitive(self):
        assert parse_poly("x^2-7x+2") == parse_poly("  x^2 - 7 x + 2  ")
        # any str.isspace character: no-break space, em space, tab, newline
        assert parse_poly("x^2-7x+2") == parse_poly("x^2\u00a0-\u20037x\t+\n2")

    def test_implicit_multiplication(self):
        assert parse_poly("7x").coeffs == (0, 7)
        assert parse_poly("2(x+1)").coeffs == (2, 2)
        assert parse_poly("3x(x+1)").coeffs == (0, 3, 3)

    def test_explicit_multiplication(self):
        assert parse_poly("7*x^2").coeffs == (0, 0, 7)
        assert parse_poly("(x+1)*(x+1)").coeffs == (1, 2, 1)

    def test_unary_signs(self):
        assert parse_poly("-x").coeffs == (0, -1)
        assert parse_poly("-x^2 + 3").coeffs == (3, 0, -1)
        assert parse_poly("x - -2").coeffs == (2, 1)
        assert parse_poly("+x + +1").coeffs == (1, 1)

    def test_power_binds_tighter_than_product(self):
        assert parse_poly("7x^2") == parse_poly("7*(x^2)")
        assert parse_poly("2^3x").coeffs == (0, 8)
        assert parse_poly("-x^2") == -parse_poly("x^2")

    def test_terms_add_in_any_order(self):
        assert parse_poly("x^5 + 2x^5 - x^2 + x^5").coeffs == (0, 0, -1, 0, 0, 4)
        assert parse_poly("-x^2 + x^5 - 3 + (x+1)^2 - 2x^5").coeffs == (-2, 2, 0, 0, 0, -1)
        assert parse_poly("x^3 - x^3 + x - 0x^7").coeffs == (0, 1)
        assert parse_poly("x^4 - x^4").is_zero

    def test_constants(self):
        assert parse_poly("0").is_zero
        assert parse_poly("42").coeffs == (42,)
        assert parse_poly("x^0").coeffs == (1,)
        # any decimal digit int() reads
        assert parse_poly("x^٣ - ١٢").coeffs == (-12, 0, 0, 1)

    def test_big_coefficients(self):
        big = 10**40
        assert parse_poly(f"{big}x^3").coeffs == (0, 0, 0, big)

    def test_syntax_errors_carry_position(self):
        for text, pos in [
            ("x +", 3),
            ("(x+1", 4),
            ("x^", 2),
            ("x^-2", 2),
            ("3 $ 4", 2),
            ("x^²", 2),  # a digit, but not one int() reads
            ("", 0),
            ("x)", 1),
        ]:
            with pytest.raises(PolyParseError) as err:
                parse_poly(text)
            assert err.value.position == pos
            assert f"position {pos}" in str(err.value)

    @pytest.mark.parametrize(
        "text, char, pos", [("x + é", "é", 4), ("3x²", "²", 2), ("x^2 é", "é", 4)]
    )
    def test_other_characters_are_reported_where_they_stand(self, text, char, pos):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        assert str(err.value) == f"unexpected character {char!r} (at position {pos})"

    def test_adjacent_integers_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("2 3")
        with pytest.raises(PolyParseError):
            parse_poly("x2")

    def test_exponent_limit(self):
        assert parse_poly("x^10000").degree == 10000
        with pytest.raises(PolyParseError):
            parse_poly("x^10001")

    def test_degree_limit_applies_to_products_and_powers(self):
        assert parse_poly("x^5000 * x^5000").degree == 10000
        assert parse_poly("(x^100)^100").degree == 10000
        for text, pos in [
            ("x^5000 * x^5001", 7),
            ("x^5000 x^5001", 7),
            ("(x^100)^101", 8),
        ]:
            with pytest.raises(PolyParseError) as err:
                parse_poly(text)
            assert err.value.position == pos
            assert "exceeds the limit 10000" in str(err.value)
        # constants have degree 0 at any power
        assert parse_poly("(2^10)^10").coeffs == (2**100,)

    def test_size_limit_applies_to_products_and_powers(self):
        # (degree + 1) * (bits of the coefficient bound) against 2^20
        assert parse_poly("(x+1)^1000").coeffs[500] == math.comb(1000, 500)
        assert parse_poly("(x+1)^1023").degree == 1023
        assert parse_poly("(2^1000)^1000").coeffs == (2**1000000,)
        for text, pos in [
            ("(x+1)^1024", 6),
            ("(x+1)^600 * (x+1)^600", 10),
            ("(x+1)^600 (x+1)^600", 10),
            ("(2^1000)^1049", 9),
        ]:
            with pytest.raises(PolyParseError) as err:
                parse_poly(text)
            assert err.value.position == pos
            assert "exceeds the limit 1048576" in str(err.value)
        # monomials and sparse sums stay small at any degree
        assert parse_poly("(x^100 + 1)^100").degree == 10000

    def test_one_budget_covers_the_whole_parse(self):
        # (x+1)^1000 is about 2^20 bits, and the product with x as much
        # again: together just under 2 * 2^20, which a third term overruns
        assert parse_poly("(x+1)^1000 * x").degree == 1001
        assert parse_poly("(x+1)^1000 + (x+1)^1000").coeffs[1] == 2000
        for text, pos in [
            ("(x+1)^1000 * x * x", 15),
            ("(x+1)^1000+(x+1)^1000+(x+1)^1000", 28),
        ]:
            with pytest.raises(PolyParseError) as err:
                parse_poly(text)
            assert err.value.position == pos
            assert "more than 2097152 bits in total" in str(err.value)
        # sums are not charged: one coefficient list takes every term
        assert parse_poly("+".join(["x^10000"] * 100)).coeffs[-1] == 100
        assert parse_poly("-".join(["1"] * 3000)).coeffs == (-2998,)

    def test_nesting_limit(self):
        assert parse_poly("(" * 100 + "x+1" + ")" * 100).coeffs == (1, 1)
        with pytest.raises(PolyParseError) as err:
            parse_poly("(" * 101 + "x" + ")" * 101)
        assert err.value.position == 100
        with pytest.raises(PolyParseError):
            parse_poly("(" * 5000 + "x" + ")" * 5000)

    def test_round_trip_random(self):
        rng = random.Random(137)
        for _ in range(500):
            f = random_int_poly(rng, 9, -99, 99)
            assert parse_poly(format_poly(f)) == f

    def test_round_trip_edge_cases(self):
        for f in [
            IntPoly(()),
            IntPoly((-1,)),
            IntPoly((0, -1)),
            IntPoly((0, 0, 0, 1)),
            IntPoly((1, -1, 1, -1)),
        ]:
            assert parse_poly(format_poly(f)) == f

    @pytest.mark.parametrize("text", ["(x+1)^300", "(x+1)^1000"])
    def test_round_trip_of_dense_powers(self, text):
        # each printed term c x^i is charged the bits of c, not a dense
        # (i + 1) * bits(c) product, so the expanded form parses again
        f = parse_poly(text)
        assert parse_poly(format_poly(f)) == f

    def test_round_trip_dense_wide_coefficients(self):
        rng = random.Random(300)
        coeffs = [rng.randrange(-(2**200), 2**200) for _ in range(301)]
        coeffs[-1] = 2**199 + 1
        f = IntPoly(tuple(coeffs))
        assert f.degree == 300
        assert parse_poly(format_poly(f)) == f

    def test_products_with_monomials_are_charged_by_the_other_factor(self):
        f = parse_poly("(x+1)^1000")
        assert parse_poly("(x+1)^1000 * x^5000") == IntPoly((0,) * 5000 + f.coeffs)
        assert parse_poly("x^5000 (x+1)^1000") == IntPoly((0,) * 5000 + f.coeffs)
        assert parse_poly("3x^2 * 5x^3").coeffs == (0, 0, 0, 0, 0, 15)
        # the slots of each x^i are still paid: the 27 KB sum
        # x^4000 + ... + x is refused as a whole
        with pytest.raises(PolyParseError) as err:
            parse_poly(" + ".join(f"x^{i}" for i in range(4000, 0, -1)))
        assert "more than 2097152 bits in total" in str(err.value)

    def test_products_with_monomials_pay_for_the_slots_they_copy(self):
        # each product with 1 copies the 10^4 slots of x^9999, so it is
        # charged 10^4 bits and the chain is refused after about 209
        with pytest.raises(PolyParseError) as err:
            parse_poly("x^9999" + "*1" * 300)
        assert "more than 2097152 bits in total" in str(err.value)
        assert parse_poly("x^9999" + "*1" * 200) == IntPoly.monomial(1, 9999)
