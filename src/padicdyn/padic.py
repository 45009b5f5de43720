"""p-adic valuations, exact norms, and fixed-precision p-adic integers.

Norms are returned as `fractions.Fraction`, never floats, so ultrametric
comparisons are exact.  A truncated p-adic integer is one residue in
Z/p^kZ; its base-p digits and its ladder of residues mod p, ..., p^k
are views of it, derived when first read.  All values here are
immutable and all functions are pure; everything can be shared freely
across threads.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, total_ordering
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

from .errors import NotAUnitError, NotPrimeError

# Miller-Rabin with this witness set is deterministic for n < 3.3e24;
# beyond that it is a strong probable-prime test.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The primes below 256, which trial division tries before Miller-Rabin.
_SMALL_PRIMES = _MR_WITNESSES + (
    41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
)


def is_prime(n: int) -> bool:
    """Primality test: trial division by the primes below 256, then
    Miller-Rabin."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    return all(_miller_rabin_round(n, a) for a in _MR_WITNESSES)


def _miller_rabin_round(n: int, a: int) -> bool:
    """One Miller-Rabin round: whether an odd n > a passes the strong
    test to base a.  A prime always does; a composite fails for at
    least 3/4 of the bases."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class Frozen:
    """Immutable value: __init__ sets the fields named in `_fields` once;
    equality (within one class), hash and repr read them in order."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Prime(Frozen):
    """A verified prime base. Construction rejects composites."""

    _fields = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def __int__(self) -> int:
        return self.p

    def __repr__(self) -> str:
        return f"Prime({self.p})"


# far above the primes a workload cycles through: step_largep's use 160
@lru_cache(maxsize=4096)
def _verified_prime(p: int) -> Prime:
    return Prime(p)


def as_prime(p: Union[int, Prime]) -> Prime:
    """Coerce an int to a verified Prime (the last 4096 are cached); pass
    Primes through."""
    if isinstance(p, Prime):
        return p
    return _verified_prime(int(p))


@total_ordering
class InfinityType:
    """Order-only infinity: the valuation of zero. Compares greater than
    every integer; supports no arithmetic."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return isinstance(other, InfinityType)

    def __hash__(self):
        return hash("padicdyn.INFINITY")

    def __lt__(self, other):
        return False


INFINITY = InfinityType()

Valuation = Union[int, InfinityType]


def vp_int(n: int, p: Union[int, Prime]) -> Valuation:
    """Exponent of the highest power of p dividing n; INFINITY for n = 0."""
    q = as_prime(p).p
    if n == 0:
        return INFINITY
    n = abs(n)
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def vp_rat(numerator: int, denominator: int, p: Union[int, Prime]) -> Valuation:
    """Valuation of numerator/denominator: vp(num) - vp(den).

    May be negative; INFINITY exactly when the numerator is zero.
    """
    if denominator == 0:
        raise ValueError("denominator must be nonzero")
    if numerator == 0:
        return INFINITY
    return vp_int(numerator, p) - vp_int(denominator, p)


def abs_p(numerator: int, denominator: int, p: Union[int, Prime]) -> Fraction:
    """p-adic absolute value p**(-vp) of numerator/denominator, as an exact
    Fraction. Zero input gives Fraction(0)."""
    from fractions import Fraction
    v = vp_rat(numerator, denominator, p)
    if v is INFINITY:
        return Fraction(0)
    q = as_prime(p).p
    if v >= 0:
        return Fraction(1, q**v)
    return Fraction(q ** (-v))


class PadicInt(Frozen):
    """Truncated p-adic integer: the residue `value` in [0, p^k), k the
    precision, built from its base-p digits (a_0, ..., a_{k-1}) or by
    `from_int`.  Arithmetic requires identical base and precision; no
    silent truncation happens.
    """

    _fields = ("prime", "precision", "value")

    def __init__(self, prime: Prime, precision: int, digits: Sequence[int]):
        if precision < 1:
            raise ValueError("precision must be at least 1")
        if len(digits) != precision:
            raise ValueError("digit count must equal the precision")
        q = prime.p
        if any(not 0 <= d < q for d in digits):
            raise ValueError(f"digits must lie in [0, {q})")
        value = 0
        for d in reversed(digits):
            value = value * q + d
        self.__dict__.update(prime=prime, precision=precision, value=value)

    @classmethod
    def from_int(cls, n: int, p: Union[int, Prime], k: int) -> "PadicInt":
        """n mod p^k; negative n is reduced into [0, p^k)."""
        prime = as_prime(p)
        if k < 1:
            raise ValueError("precision must be at least 1")
        x = object.__new__(cls)
        x.__dict__.update(prime=prime, precision=k, value=n % prime.p**k)
        return x

    @cached_property
    def digits(self) -> tuple[int, ...]:
        """The base-p digits (a_0, ..., a_{k-1}), expanded on first read."""
        q, r, digits = self.prime.p, self.value, []
        for _ in range(self.precision):
            r, d = divmod(r, q)
            digits.append(d)
        return tuple(digits)

    @cached_property
    def ladder(self) -> tuple[int, ...]:
        """(v_1, ..., v_k) with v_j = value mod p^j, built on first read
        from the digits by v_j = v_(j-1) + a_(j-1) p^(j-1), in O(k^2)
        digit operations."""
        q, rungs, v, m = self.prime.p, [], 0, 1
        for d in self.digits:
            v, m = v + d * m, m * q
            rungs.append(v)
        return tuple(rungs)

    @property
    def modulus(self) -> int:
        return self.prime.p**self.precision

    def _check_compatible(self, other: "PadicInt") -> None:
        if self.prime != other.prime:
            raise ValueError("mismatched prime bases")
        if self.precision != other.precision:
            raise ValueError("mismatched precisions")

    def __add__(self, other: "PadicInt") -> "PadicInt":
        self._check_compatible(other)
        return PadicInt.from_int(self.value + other.value, self.prime, self.precision)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        self._check_compatible(other)
        return PadicInt.from_int(self.value - other.value, self.prime, self.precision)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        self._check_compatible(other)
        return PadicInt.from_int(self.value * other.value, self.prime, self.precision)

    def __neg__(self) -> "PadicInt":
        return PadicInt.from_int(-self.value, self.prime, self.precision)

    def is_unit(self) -> bool:
        return self.value % self.prime.p != 0

    def invert(self) -> "PadicInt":
        """Multiplicative inverse mod p^k; requires a_0 != 0."""
        if not self.is_unit():
            raise NotAUnitError(
                f"not a unit: constant digit is 0, |x|_{self.prime.p} < 1"
            )
        inv = pow(self.value, -1, self.modulus)
        return PadicInt.from_int(inv, self.prime, self.precision)

    def coherent_sequence(self) -> "CoherentSequence":
        """Residues of this value modulo p, p^2, ..., p^k."""
        return CoherentSequence(self.prime, self.ladder)

    def __str__(self) -> str:
        return f"{self.value} + O({self.prime.p}^{self.precision})"


def check_coherent(
    terms: Sequence[int],
    p: Union[int, Prime],
    convention: str = "standard",
) -> tuple[bool, int | None]:
    """Check that a residue sequence is compatible across levels.

    Under the default "standard" (inverse-limit) convention, the pair at
    0-based positions (i-1, i) must agree mod p^i: term i is read as a
    residue mod p^(i+1) projecting onto term i-1.  The "literal"
    convention checks the same pair one level stricter, mod p^(i+1).
    Terms may be arbitrary integers; congruences reduce them implicitly.

    Returns (True, None), or (False, i) for the smallest 0-based index i
    whose pair (i-1, i) violates its congruence.
    """
    if not terms:
        raise ValueError("sequence must be nonempty")
    if convention not in ("standard", "literal"):
        raise ValueError(f"unknown convention: {convention!r}")
    q = as_prime(p).p
    offset = 0 if convention == "standard" else 1
    for i in range(1, len(terms)):
        if (terms[i] - terms[i - 1]) % q ** (i + offset) != 0:
            return False, i
    return True, None


class CoherentSequence(Frozen):
    """A finite inverse-limit element: terms (x_1, ..., x_N) with x_n a
    residue mod p^n and consecutive terms compatible under reduction.

    Terms are normalized into [0, p^n) at construction; incoherent input
    is rejected with the first violating index.
    """

    _fields = ("prime", "terms")

    def __init__(self, prime: Prime, terms: Sequence[int]):
        q = prime.p
        reduced = tuple(t % q ** (i + 1) for i, t in enumerate(terms))
        ok, bad = check_coherent(reduced, prime)
        if not ok:
            raise ValueError(f"sequence is not coherent at index {bad}")
        self.__dict__.update(prime=prime, terms=reduced)

    def __len__(self) -> int:
        return len(self.terms)

    def to_padic(self) -> PadicInt:
        """The PadicInt of precision N determined by the final term."""
        return PadicInt.from_int(self.terms[-1], self.prime, len(self.terms))
