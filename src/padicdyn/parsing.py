"""Polynomial expression parser.

Grammar (whitespace-insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' factor) | factor)*     implicit product when
                                                   the next factor starts
                                                   with 'x' or '('
    factor  := ('+' | '-')* power
    power   := atom ('^' INT)*
    atom    := INT | 'x' | '(' expr ')'

'^' binds tighter than multiplication, which binds tighter than '+'/'-';
exponents are nonnegative integer literals capped at 10^4.  Expressions
are expanded at parse time into canonical coefficients, so "(x+1)^2"
yields 1 + 2x + x^2.  To keep that expansion bounded, no product or
power may reach a degree above the same cap or a size above MAX_BITS,
the sizes of all products and powers of one parse may add up to at
most MAX_PARSE_BITS (each checked before it is computed), and
parentheses may nest at most 100 deep (the parser recurses once per
level).  A product with a monomial c x^i is sized by its other factor,
as it only scales and shifts it, but at least one bit per slot of the
result, for the list work of building it; so a printed term c x^i costs
about i + bits(c) besides the slots x^i paid for, and a chain of
products with 1 pays for the slots of its result each time, though it
copies none.  A sum is
added into one coefficient list, so its cost follows the sizes of its
terms.
"""

from __future__ import annotations

import math
import operator
import re

from .errors import PolyParseError
from .polynomial import IntPoly

MAX_EXPONENT = 10_000
MAX_NESTING = 100
# Bound on coefficient slots * coefficient bits of a product or power,
# with degree + 1 slots unless a factor is a monomial, and never below
# degree + 1.  The
# schoolbook product grows faster than the result: on a 2-vCPU x86 VM
# (x+1)^1000, about 2^20 bits, parses in 0.17 s, (x+1)^1448 (2^21) in
# 0.5 s and (x+1)^2000 (2^22) in 1.7 s.
MAX_BITS = 2**20
# Bound on the sum of those sizes over one parse; twice MAX_BITS keeps
# (x+1)^1000 * x.
MAX_PARSE_BITS = 2 * MAX_BITS

# \s and \d match exactly what str.isspace and str.isdecimal accept;
# the digits are those int() reads ("٣", but not "²").
_TOKEN = re.compile(r"\d+|\S")


def _tokenize(text: str) -> list[tuple[str, int, int | None]]:
    """The tokens of text as (text, position, value), value being the int
    of a number and None otherwise, ending in ("", len(text), None)."""
    tokens = []
    for match in _TOKEN.finditer(text):
        token, position = match.group(), match.start()
        if token[0].isdecimal():
            tokens.append((token, position, int(token)))
        elif token in "x+-*^()":
            tokens.append((token, position, None))
        else:
            raise PolyParseError(f"unexpected character {token!r}", position)
    tokens.append(("", len(text), None))
    return tokens


def _log_norm(f: IntPoly) -> float:
    """log2 of the sum of |coefficients|.  That sum bounds every
    coefficient, and the sum for a product is at most the product of the
    sums, so adding these logs bounds the coefficients of a product."""
    return math.log2(sum(map(abs, f.coeffs)) or 1)


def _spread(f: IntPoly) -> int:
    """What f adds to the coefficient slots a product with it computes:
    its degree, or nothing for a monomial c x^i, which only scales and
    shifts the other factor (the power x^i paid for its slots), or for
    the zero polynomial."""
    return 0 if f.is_monomial else max(f.degree, 0)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0
        self.budget = MAX_PARSE_BITS

    def charge(self, degree: int, slots: int, log_norm: float, position: int) -> None:
        """Refuse a product or power, before computing it, whose degree or
        whose size exceed the limits, or whose size overruns what is left
        of the parse's budget.  The size is the coefficient slots it
        computes times their bits, but at least one bit for each of the
        degree + 1 slots of the result, which is built and scanned."""
        if degree > MAX_EXPONENT:
            raise PolyParseError(
                f"degree {degree} exceeds the limit {MAX_EXPONENT}", position
            )
        bits = max(degree + 1, slots * (int(log_norm) + 1))
        if bits > MAX_BITS:
            raise PolyParseError(
                f"expanded size of about {bits} bits exceeds the limit {MAX_BITS}",
                position,
            )
        self.budget -= bits
        if self.budget < 0:
            raise PolyParseError(
                f"products and powers expand to more than {MAX_PARSE_BITS} "
                "bits in total, the limit for one polynomial",
                position,
            )

    def peek(self) -> tuple[str, int, int | None]:
        return self.tokens[self.pos]

    def advance(self) -> None:
        self.pos += 1

    def expect(self, text: str) -> None:
        found, position, _ = self.peek()
        if found != text:
            raise PolyParseError(f"expected {text!r}", position)
        self.advance()

    def parse(self) -> IntPoly:
        result = self.expr()
        text, position, _ = self.peek()
        if text:
            raise PolyParseError(f"unexpected token {text!r}", position)
        return result

    def expr(self) -> IntPoly:
        coeffs: list[int] = []
        add = operator.add
        while True:
            term = self.term()
            n = len(term.coeffs)
            coeffs += [0] * (n - len(coeffs))
            if term.is_monomial:
                # c x^i, such as each term of a printed polynomial, goes
                # into its one slot
                coeffs[n - 1] = add(coeffs[n - 1], term.coeffs[-1])
            else:
                coeffs[:n] = map(add, coeffs[:n], term.coeffs)
            text = self.peek()[0]
            if text not in ("+", "-"):
                return IntPoly(tuple(coeffs))
            self.advance()
            add = operator.add if text == "+" else operator.sub

    def term(self) -> IntPoly:
        result = self.factor()
        while True:
            text, position, _ = self.peek()
            if text == "*":
                self.advance()
            elif text not in ("x", "("):
                # 'x' and '(' make an implicit product: "7x", "2(x+1)",
                # "(x+1)(x-1)"; any other token ends the term.
                return result
            rhs = self.factor()
            self.charge(
                result.degree + rhs.degree,
                _spread(result) + _spread(rhs) + 1,
                _log_norm(result) + _log_norm(rhs),
                position,
            )
            result = result * rhs

    def factor(self) -> IntPoly:
        sign = 1
        while (text := self.peek()[0]) in ("+", "-"):
            if text == "-":
                sign = -sign
            self.advance()
        result = self.power()
        return -result if sign < 0 else result

    def power(self) -> IntPoly:
        result = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            _, position, exp = self.peek()
            if exp is None:
                raise PolyParseError(
                    "exponent must be a nonnegative integer literal", position
                )
            if exp > MAX_EXPONENT:
                raise PolyParseError(
                    f"exponent {exp} exceeds the limit {MAX_EXPONENT}", position
                )
            self.advance()
            self.charge(
                result.degree * exp,
                result.degree * exp + 1,
                _log_norm(result) * exp,
                position,
            )
            result = result**exp
        return result

    def atom(self) -> IntPoly:
        text, position, value = self.peek()
        if value is not None:
            self.advance()
            return IntPoly.constant(value)
        if text == "x":
            self.advance()
            return IntPoly.x()
        if text == "(":
            if self.nesting == MAX_NESTING:
                raise PolyParseError(
                    f"parentheses nest deeper than {MAX_NESTING}", position
                )
            self.advance()
            self.nesting += 1
            inner = self.expr()
            self.nesting -= 1
            self.expect(")")
            return inner
        raise PolyParseError(
            f"expected a number, 'x', or '(', got {text or 'end of input'!r}",
            position,
        )


def parse_poly(text: str) -> IntPoly:
    """Parse a polynomial expression in x into canonical coefficients."""
    return _Parser(text).parse()
