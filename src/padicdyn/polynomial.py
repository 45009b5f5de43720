"""Integer polynomials and their reductions over F_p.

Polynomials are coefficient tuples with the constant term first, in
canonical form: no trailing zero coefficients, the zero polynomial being
the empty tuple (degree -1).  Coefficients are plain Python ints, so
evaluation at lifted roots modulo large prime powers never overflows.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from .padic import Frozen, Prime, as_prime


def _canonical(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = [int(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class _Poly(Frozen):
    """The reads IntPoly and FpPoly share on their canonical `coeffs`;
    equality stays within one class, so an FpPoly is never an IntPoly."""

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0


class IntPoly(_Poly):
    """Polynomial in one variable with integer coefficients."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _canonical(coeffs))

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def constant(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, coeff: int, power: int) -> "IntPoly":
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (coeff,))

    @property
    def is_monomial(self) -> bool:
        """Whether f is c x^d with c != 0: one nonzero coefficient."""
        return bool(self.coeffs) and not any(self.coeffs[:-1])

    def coeff_list(self) -> list[int]:
        """Canonical serialization: constant term first; [0] for zero."""
        return list(self.coeffs) if self.coeffs else [0]

    def _coerce(self, other: Union["IntPoly", int]) -> "IntPoly":
        if isinstance(other, IntPoly):
            return other
        if isinstance(other, int):
            return IntPoly.constant(other)
        return NotImplemented

    def __add__(self, other: Union["IntPoly", int]) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # the shorter summand's coefficients into a copy of the longer's,
        # so f - t touches one coefficient of f
        a, b = sorted((self.coeffs, other.coeffs), key=len)
        out = list(b)
        for i, c in enumerate(a):
            out[i] += c
        return IntPoly(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Union["IntPoly", int]) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Union["IntPoly", int]) -> "IntPoly":
        return (-self) + other

    def __mul__(self, other: Union["IntPoly", int]) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # IntPoly is immutable, so a product with 1 is the other factor
        if self.coeffs == (1,):
            return other
        if other.coeffs == (1,):
            return self
        # _mul skips the zeros of its first operand, so a monomial there
        # costs one pass over the other factor
        a, b = (other, self) if other.is_monomial else (self, other)
        return IntPoly(_mul(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if self.is_monomial:
            # (c x^d)^n = c^n x^(dn), without the dense products below
            return IntPoly.monomial(self.leading_coefficient**n, self.degree * n)
        result = IntPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __call__(self, x: int) -> int:
        """Exact evaluation by Horner's rule."""
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def reduced(self, m: int) -> "IntPoly":
        """The coefficients reduced into [0, m)."""
        return IntPoly(tuple(c % m for c in self.coeffs))

    def derivative(self) -> "IntPoly":
        """Formal derivative sum(i * c_i * x^(i-1))."""
        return IntPoly(derivative_coeffs(self.coeffs))

    def __str__(self) -> str:
        return format_poly(self)


def eval_mod(f: IntPoly, x: int, m: int) -> int:
    """f(x) mod m by Horner's rule, every intermediate reduced mod m."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    return horner_mod(f.coeffs, x % m, m)


def derivative_coeffs(coeffs: Sequence[int]) -> list[int]:
    """The coefficients of the derivative, constant first."""
    return [i * c for i, c in enumerate(coeffs) if i]


def horner_mod(coeffs: Sequence[int], x: int, m: int) -> int:
    """The polynomial with these coefficients, constant first, at x mod m
    by Horner's rule: eval_mod without building an IntPoly."""
    total = 0
    for c in reversed(coeffs):
        total = (total * x + c) % m
    return total


def format_poly(f: IntPoly) -> str:
    """Render in conventional notation, highest power first: "x^2 - 7x + 2".

    Output re-parses to an equal polynomial (round-trip canonical form).
    """
    if f.is_zero:
        return "0"
    parts: list[str] = []
    for i in range(f.degree, -1, -1):
        c = f.coeff(i)
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = "x" if i == 1 else f"x^{i}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


class FpPoly(_Poly):
    """Polynomial over F_p: canonical residue coefficients, constant first.

    Construction reduces each coefficient mod p and strips trailing
    zeros, so equality is plain field-wise equality.
    """

    _fields = ("prime", "coeffs")

    def __init__(self, prime: Prime, coeffs: Iterable[int] = ()):
        q = prime.p
        self.__dict__.update(prime=prime, coeffs=_canonical(c % q for c in coeffs))

    @classmethod
    def from_int_poly(cls, f: IntPoly, p: Union[int, Prime]) -> "FpPoly":
        return cls(as_prime(p), f.coeffs)

    @property
    def is_monic(self) -> bool:
        return self.leading_coefficient == 1

    def eval(self, x: int) -> int:
        q = self.prime.p
        return horner_mod(self.coeffs, x % q, q)

    def roots(self) -> list[int]:
        """All residues in [0, p) where the polynomial vanishes, ascending.

        A monic h of degree at most 2 is solved by _low_degree_roots,
        the quadratic formula, with no polynomial power.  Above that,
        Rabin's method: over F_p, p odd, x^p - x is
        x (x^((p-1)/2) - 1) (x^((p-1)/2) + 1), so with w = x^((p-1)/2)
        mod h, taken by repeated squaring on packed ints (see _powmod),
        the roots of h are 0 if h(0) = 0 and those of gcd(h, w - 1) and
        gcd(h, w + 1), which _split_linear splits apart.  The cost is
        polynomial in deg h and log p and the output depends on no
        random choice.  The zero polynomial vanishes everywhere.
        """
        p = self.prime.p
        if self.is_zero:
            return list(range(p))
        if p == 2:
            return [a for a in (0, 1) if self.eval(a) == 0]
        h = _monic(list(self.coeffs), p)
        if len(h) <= 3:
            return sorted(_low_degree_roots(h, p))
        w = _powmod([0, 1], (p - 1) // 2, h, p)
        roots = [0] if h[0] == 0 else []
        for c in (1, -1):
            roots += _split_linear(_gcd(h, _sub(w, [c], p), p), p)
        return sorted(roots)

    def _check_same_field(self, other: "FpPoly") -> None:
        if self.prime != other.prime:
            raise ValueError("mismatched prime fields")

    def __add__(self, other: "FpPoly") -> "FpPoly":
        return self - (-other)

    def __neg__(self) -> "FpPoly":
        return FpPoly(self.prime, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        self._check_same_field(other)
        return FpPoly(self.prime, _sub(self.coeffs, other.coeffs, self.prime.p))

    def __mul__(self, other: "FpPoly") -> "FpPoly":
        self._check_same_field(other)
        return FpPoly(self.prime, _mul(self.coeffs, other.coeffs))

    def to_int_poly(self) -> IntPoly:
        return IntPoly(self.coeffs)

    def __str__(self) -> str:
        return format_poly(self.to_int_poly())


def reduce_mod_p(f: IntPoly, p: Union[int, Prime]) -> FpPoly:
    """Coefficientwise reduction of f into F_p, canonical form restored."""
    return FpPoly.from_int_poly(f, p)


def fp_divmod(f: FpPoly, g: FpPoly) -> tuple[FpPoly, FpPoly]:
    """Polynomial division over F_p: f = q*g + r with deg r < deg g."""
    f._check_same_field(g)
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    quot, rem = _divmod(list(f.coeffs), list(g.coeffs), f.prime.p)
    return FpPoly(f.prime, tuple(quot)), FpPoly(f.prime, tuple(rem))


# Dense arithmetic over F_p on coefficient lists (constant term first,
# no trailing zeros; results reduced into [0, p) except _mul's), the
# working form of the root finder: it multiplies many times per call
# and builds no FpPoly.  _mul is exact over Z, so it is also IntPoly's
# product, and _sub is FpPoly's sum and difference.
#
# Long products and the root finder's powers pack a polynomial into one
# int, a coefficient per slot of 8 * size bits (Kronecker substitution):
# with slots wide enough that no coefficient of a product can spill into
# the next, one int multiply is the whole polynomial product.  _pack and
# _unpack pass through bytes, size bytes per slot, at every length.


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    for i, c in enumerate(b):
        a[i] -= c
    return _trim([c % p for c in a])


def _pack(coeffs: Sequence[int], size: int) -> int:
    """sum(c_i 2^(8 size i)) for coefficients 0 <= c_i < 2^(8 size)."""
    data = b"".join([c.to_bytes(size, "little") for c in coeffs])
    return int.from_bytes(data, "little")


def _unpack(v: int, size: int, n: int) -> list[int]:
    """The n slots of size bytes of a packed 0 <= v < 2^(8 size n)."""
    data = v.to_bytes(n * size, "little")
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, n * size, size)]


# _mul packs its operands when each has at least this many coefficients
# (a nonzero ones): then (x^40 + x + 1)^120 parses in about 50 ms instead
# of 0.7 s, and (x + 1)^1000 in 55 ms instead of 0.12 s.  Below it the
# loop is as fast or faster, and with one short operand, such as the
# constant of x^9999 * 1, it is a single pass where packing takes
# several.  All of the root finder's products stay on the loop.
_PACKED_MUL_MIN = 64


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product with unreduced coefficients.  The loop skips the zeros of
    a, so a monomial there costs one pass over b."""
    if not a or not b:
        return []
    if len(b) >= _PACKED_MUL_MIN and len(a) - a.count(0) >= _PACKED_MUL_MIN:
        return _mul_packed(a, b)
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b, i):
                out[j] += c * d
    return out


def _mul_packed(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """_mul as one product of packed ints, for coefficients of any sign.

    Each product coefficient has absolute value below
    min(len a, len b) * max|a_i| * max|b_j| < 2^bits, so it fits in a
    slot of bits + 1 bits with its sign.  Adding half = 2^(8 size - 1)
    to every slot makes each one nonnegative, so no slot borrows from
    the next and each reads on its own.
    """
    n = len(a) + len(b) - 1
    bits = (
        max(map(int.bit_length, a))
        + max(map(int.bit_length, b))
        + min(len(a), len(b)).bit_length()
    )
    size = bits // 8 + 1
    half = 1 << (8 * size - 1)
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
    v = _pack_signed(a, size) * _pack_signed(b, size) + bias
    return [c - half for c in _unpack(v, size, n)]


def _pack_signed(coeffs: Sequence[int], size: int) -> int:
    """_pack for coefficients of any sign with |c_i| < 2^(8 size)."""
    if min(coeffs) >= 0:
        return _pack(coeffs, size)
    return _pack([c if c > 0 else 0 for c in coeffs], size) - _pack(
        [-c if c < 0 else 0 for c in coeffs], size
    )


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*b + r over F_p and deg r < deg b; b nonzero."""
    db = len(b) - 1
    if len(a) <= db:
        return [], _trim([c % p for c in a])
    inv_lead = pow(b[-1], -1, p)
    low = b[:-1]
    rem = list(a)
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i] * inv_lead % p
        if c:
            quot[i - db] = c
            for j, d in enumerate(low, i - db):
                rem[j] -= c * d
    return quot, _trim([c % p for c in rem[:db]])


def _powmod(base: list[int], e: int, h: list[int], p: int) -> list[int]:
    """base^e mod a monic h over F_p, for e >= 1 and a base with
    coefficients in [0, p), by left-to-right squaring on packed residues.

    A residue mod h, of degree below n = deg h, is one int with a slot
    of width >= 2 bits(p) + bits(n) + 1 bits per coefficient.  A product
    of two residues has 2n - 1 slots, each a sum of at most n products
    below p^2; multiplying it by x shifts it up a slot.  _reduce_packed
    takes it back below x^n.
    """
    n = len(h) - 1
    size = (2 * p.bit_length() + n.bit_length() + 8) // 8
    width = 8 * size
    # x^n = -(h - x^n), which a power of degree below n never needs
    row = _pack([-c % p for c in h[:-1]], size) if (len(base) - 1) * e >= n else 0
    packed_base = _pack(base if len(base) <= n else _divmod(base, h, p)[1], size)
    by_x = base == [0, 1]
    result = packed_base
    for bit in bin(e)[3:]:
        result *= result
        if bit == "1":
            if by_x:
                result <<= width
            else:
                result = _reduce_packed(result, row, n, width, p) * packed_base
        result = _reduce_packed(result, row, n, width, p)
    # as many slots as the result fills: its top one is nonzero
    return _unpack(result, size, -(-result.bit_length() // width))


def _reduce_packed(v: int, row: int, n: int, width: int, p: int) -> int:
    """A packed product of _powmod taken mod h and mod p, where row is
    x^n mod h packed.

    From the top slot down to slot n, each slot j, taken mod p as c, is
    replaced by c * row from slot j - n up, as x^j = x^(j-n) x^n.  Each
    slot gains at most n such terms below p^2, so it stays below
    2n p^2 <= 2^width and nothing spills into the next slot; the low n
    slots are then taken mod p.
    """
    low_width = n * width
    for s in range(v.bit_length() // width * width, low_width - 1, -width):
        c = (v >> s) % p
        v = (v & ((1 << s) - 1)) + (c * row << (s - low_width))
    mask = (1 << width) - 1
    out = 0
    for s in range(v.bit_length() // width * width, -1, -width):
        out = (out << width) | ((v >> s) & mask) % p
    return out


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p; a nonzero."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _split_linear(g: list[int], p: int) -> list[int]:
    """Roots of a monic g over F_p, p odd, that is a product of distinct
    linear factors (unordered).

    A piece of degree at most 2 is solved by _low_degree_roots.  A
    larger one is split by a shift: a factor x - r divides
    gcd(g, (x + a)^((p-1)/2) - 1) exactly when r + a is a nonzero
    square.  Two distinct nonzero roots, all that FpPoly.roots passes,
    differ in that respect for some a in [1, p), so trying a = 1, 2, ...
    in turn always splits g.
    """
    roots = []
    pending = [g]
    a = 1
    while pending:
        g = pending.pop()
        if len(g) <= 3:
            roots += _low_degree_roots(g, p)
            continue
        while True:
            w = _powmod([a % p, 1], (p - 1) // 2, g, p)
            a += 1
            s = _gcd(g, _sub(w, [1], p), p)
            if 1 < len(s) < len(g):
                break
        pending += [s, _divmod(g, s, p)[0]]
    return roots


def _low_degree_roots(h: list[int], p: int) -> list[int]:
    """Roots of a monic h of degree at most 2 over F_p, p odd (unordered).

    x^2 + b x + c has the roots (-b +- s) / 2 with s^2 = D = b^2 - 4c:
    one if D = 0, none if D is a non-square, as Euler's criterion
    D^((p-1)/2) = -1 tells.  s is Cipolla's square root: with the least
    a for which n = a^2 - D is a non-square, (a + y)^((p+1)/2) in
    F_p[y]/(y^2 - n) is s, as (a + y)^p = a - y there.  It takes
    O(log p) multiplications whatever the power of 2 in p - 1, where
    Tonelli-Shanks takes O(v^2) for v = v2(p - 1).
    """
    if len(h) < 3:
        return [-h[0] % p] if len(h) == 2 else []
    c, b = h[0], h[1]
    d = (b * b - 4 * c) % p
    half = (p + 1) // 2
    if d == 0:
        return [-b * half % p]
    if pow(d, half - 1, p) != 1:
        return []
    # n = 0 stops the search too: then a is a root of D, and the power
    # below is a^((p+1)/2) = +-a
    a = 0
    while pow((a * a - d) % p, half - 1, p) == 1:
        a += 1
    n = (a * a - d) % p
    # u + v y, raised to (p+1)/2 by left-to-right squaring
    u, v = a, 1
    for bit in bin(half)[3:]:
        u, v = (u * u + v * v * n) % p, 2 * u * v % p
        if bit == "1":
            u, v = (u * a + v * n) % p, (u + v * a) % p
    return [(-b + u) * half % p, (-b - u) * half % p]


def _x_pow_p_minus_x(prime: Prime) -> FpPoly:
    p = prime.p
    coeffs = [0] * (p + 1)
    coeffs[1] = p - 1
    coeffs[p] = 1
    return FpPoly(prime, tuple(coeffs))


def fermat_reduce(f: IntPoly, p: Union[int, Prime]) -> FpPoly:
    """Remainder of f mod p upon division by x^p - x.

    The result has degree < p and exactly the same roots over F_p as f;
    the zero polynomial signals that every residue is a root.  A
    reduction that already has degree < p is returned unchanged.  As
    x^p = x mod x^p - x, each x^e with e >= p folds onto
    x^((e - 1) mod (p - 1) + 1): one pass over f, not a division.
    """
    prime = as_prime(p)
    h = reduce_mod_p(f, prime)
    q = prime.p
    if h.degree < q:
        return h
    folded = list(h.coeffs[:q])
    for e, c in enumerate(h.coeffs[q:], q):
        folded[(e - 1) % (q - 1) + 1] += c
    return FpPoly(prime, folded)


def divides_xp_minus_x(
    f: IntPoly, p: Union[int, Prime]
) -> tuple[bool, FpPoly, FpPoly]:
    """Certify whether f (monic mod p) divides x^p - x over F_p.

    Returns (ok, quotient, remainder): ok is True exactly when the
    remainder vanishes, in which case f with degree n has exactly n
    roots mod p and the quotient is monic of degree p - n.  Degree
    above p can never divide, so ok is False there, matching the root
    count (at most p) falling short of the degree.
    """
    prime = as_prime(p)
    h = reduce_mod_p(f, prime)
    if h.is_zero or not h.is_monic:
        raise ValueError("polynomial must be monic modulo p")
    quot, rem = fp_divmod(_x_pow_p_minus_x(prime), h)
    return rem.is_zero, quot, rem


def make_monic(g: FpPoly) -> FpPoly:
    """Scale a nonzero F_p polynomial by the inverse of its leading
    coefficient.  Normalization helper; root sets are unchanged."""
    if g.is_zero:
        raise ValueError("cannot normalize the zero polynomial")
    if g.is_monic:
        return g
    return FpPoly(g.prime, tuple(_monic(list(g.coeffs), g.prime.p)))
