"""Root finding for f(x) = c (mod p) and a brute-force congruence oracle.

The mod-p solver is FpPoly.roots, a gcd and equal-degree splitting
root finder that solves pieces of degree at most 2 by the quadratic
formula, whose cost is polynomial in deg f and log p.  The oracle
handles any modulus up to a configured bound and is the independent
cross-check used throughout the test suite: it is exhaustive per
prime-power factor, joined by CRT, and calls no root finder or lifter.
A modulus of at least 2^16 may be scanned and joined with numpy,
imported on first use only, so importing this module (and the CLI)
never loads it.  Each prime-power factor of such a modulus takes the
numpy scan when it has more than _LOOP_FACTOR_MAX residues and the
plain loop otherwise; a smaller modulus takes the loop for every
factor.  The plain loop reduces at every step.  The numpy scan takes
the target into the constant term and runs Horner's rule in uint64
over blocks of up to _BLOCK residues.  Up to degree _SHIFT_MAX_DEGREE
it runs the rule on the offset i = x - lo from the block's start lo,
with the coefficients of f(lo + i) mod the factor, a Taylor shift of f
made per block (by 0 in the first); above it, on x.  It skips the
addition of a zero coefficient.  x is a hit when the factor q divides
its final value n.  Every factor runs the rule on its coefficients
times a scale s mod 2^64, q^-1 for an odd q and 2^64 / q for a power
of 2, so each block ends on n * s mod 2^64, which is at most a limit,
(2^64 - 1) // q or 0, exactly at the hits.  An odd q reduces mod q,
by one floor division, only before a step that an exact bound says
could pass 2^64 - 1; a power of 2 never reduces.  A block of a factor
of more than one block whose least value is above the limit holds
none and builds no hit mask, so a shifted block without a hit takes
4, 6 and 8 passes at degree 2, 3 and 4.
"""

from __future__ import annotations

import math
import threading
from typing import Union

from .errors import PadicDynError
from .padic import Frozen, Prime, as_prime
from .polynomial import FpPoly, IntPoly, derivative_coeffs, horner_mod, reduce_mod_p

DEFAULT_ORACLE_BOUND = 10**7

# The first vectorized call pays numpy's import, about 150 ms on a 2-vCPU
# x86 VM, while the plain loop, which reduces mod m at every step, takes
# 1.1 ms at m = 4095, 2.7 ms at m = 9999 and 18 ms at m = 2^16 at degree 2
# (31 ms at degree 4).  A one-shot process therefore comes out ahead
# without numpy up to m of about 4 * 10^5; 2^16 keeps the loop well under
# the import's cost even at higher degree.  The numpy scan reduces only
# where uint64 could overflow, which needs (m - 1)^2 + (m - 1) < 2^64 right
# after a reduction; _VECTOR_MAX = 2^31 keeps that below m^2 <= 2^62.
#
# Past that gate the scanner is chosen per factor q.  A numpy scan costs
# 9 to 12 us at any q below 64 at degree 2 to 4, the loop 0.2 to 0.3 us
# per residue there: they cross at q of about 45 to 60.  At x^10000 - x
# the numpy scan made two calls per coefficient, 13 to 15 ms per factor,
# and the loop passed it between q = 32 (12 ms) and 37 (16 ms).  So a
# factor of at most _LOOP_FACTOR_MAX = 32 residues takes the loop.  Now
# that the scan skips the addition of a zero coefficient, x^10000 - x
# takes it 7 ms at any q up to 37, against 6, 9, 11 and 17 ms in the loop
# at q = 17, 23, 32 and 37: a sparse f of high degree would gain from a
# lower cutoff, a dense f of degree 2 to 4 would lose.
#
# A factor q > _BLOCK is scanned in blocks of _BLOCK residues, one after
# another, on buffers reused from block to block: the offsets i, lead * i
# (or x = lo + i above the shift's degree bound), acc and a quotient at
# 2^14 uint64 entries, and the hit mask, take 528 KiB, inside the 2 MiB L2
# cache of the VM's Xeon.
# On the oracle_scan inputs of seed 1 (factors up to 2^19, degree 2 to
# 4, each call followed by its check as in the benchmark), the 95th
# percentile call took 2.3 to 2.4 ms as one block, and in blocks of 2^13,
# 2^14, 2^15 and 2^16 residues 1.6, 1.45, 1.5 and 2.3 to 2.6 ms.
# Scanning the blocks on two threads, one per vCPU, took it to 6 to 7 ms
# instead: the threads hand the GIL to each other between numpy calls.
# The buffers are kept per thread from call to call.  Made afresh, the
# three 128 KiB buffers of a call came from the top of the heap, and
# glibc gave them back to the kernel when the call freed them: the 5 %
# slowest oracle_scan calls then took 36 to 50 minor page faults each,
# whose cost moves with the host's load, and none once they were kept.
#
# Up to degree _SHIFT_MAX_DEGREE each block, starting at lo, runs
# Horner's rule on its offset i in [0, 2^14), with the coefficients of
# f(lo + i) mod q from a Taylor shift in Python, d(d + 1) / 2
# multiply-adds (von zur Gathen and Gerhard, ISSAC 1997); the first
# block's shift is by 0, so it takes f's own coefficients.  lead * i is
# the same in every block, so it is made once per call, at the first
# block, into the buffer that holds lo + i on x, and each later block
# starts with one add where it took a shift, a multiply and an add.  A
# step multiplies by at most 2^14 - 1 instead of q - 1, so the exact
# bound asks for fewer reductions: with a lead below 10 and q below 2^20,
# as in oracle_scan, a degree-4 scan does not reduce at all, and a
# shifted block took 5, 7 and 9 passes at degree 2, 3 and 4 where a
# block on x took 7, 9 and 14 at the factors oracle_scan scans, both
# before the hit test below.  Above the bound the shift's O(d^2) Python and the
# dense f it makes of a sparse one cost more than they save, and every
# block runs on x.  Shifted over on x, the same f alternating in one
# process: a dense f at q = 196613, 347227 and 2^19 + 21 took 0.75 to
# 0.93 of the time at degree 2 to 12 and 0.84 to 0.94 at 14 to 64, and
# x^e - x, x^e + 1 and three-term f at q = 196613 took 0.70 to 0.99 at
# degree 3 to 12 (1.08 at x^5 - x), but 0.93 to 1.03 at 14 to 32 and
# 1.18 at x^100 - x.
#
# The scan runs in uint64, whose arithmetic wraps mod 2^64.  The target
# is taken into the constant term, as (c_0 - target) mod q, so x is a
# hit exactly when q divides the final value n.  Reduction mod 2^64
# commutes with Horner's rule, so the rule run on the coefficients times
# a scale s mod 2^64, lead * i included when it is made once per call,
# ends on n * s mod 2^64 with no pass of its own.  The oracle's factors
# are prime powers, so q is odd or a power of 2.  For odd q, s = q^-1
# mod 2^64: n -> n * s permutes [0, 2^64) and takes k * q to k, so it
# sends the multiples of q below 2^64 onto [0, (2^64 - 1) // q] and
# every other n above it (Granlund and Montgomery, PLDI 1994; Lemire,
# Kaser and Kurz, SPE 49(6), 2019).  The bound keeps n and every value
# before it in [0, 2^64), so acc * q mod 2^64 is the value v itself,
# and a mid-scan reduction leaves (v mod q) * s as acc - (acc * q) // q,
# in as many passes as v - (v // q) * q on the unscaled value.  numpy
# divides by a scalar through libdivide, and an unsigned division cost
# 9.7 us on 2^14 entries where a signed one cost 15.7 us (numpy 2.4.6).
# For q = 2^e, which divides 2^64, wrapping mod 2^64 keeps n mod q, so
# the scan never reduces, and with s = 2^(64 - e) the multiples of q
# are exactly the n with n * s = 0 mod 2^64.  A factor of more than one
# block holds its solutions in a few of its blocks at most (a prime one
# has at most d of them), so each block takes its min() first, and
# only a block whose min() is at most the limit builds the hit mask and
# its index list: at q = 347227 a block's mask took 5.8 to 6.8 us and
# its list 2.8 to 3.3 us, the min() 2.7 to 3.2 us.  A factor of one
# block builds its mask with no min() first, as in oracle_scan every
# factor holds a solution: the oracle_scan calls whose factors all fit
# one block took 0.96 to 1.00 of the time in process that they took
# with a hit test by floor division.
_VECTOR_MIN = 2**16
_VECTOR_MAX = 2**31
_BLOCK = 2**14
_LOOP_FACTOR_MAX = 32
_SHIFT_MAX_DEGREE = 12
# The numpy CRT join costs about 50 us for its calls on a few factors,
# the plain one about 0.4 us per solution: they are level at 200 to 300
# solutions (64 us against 27 us at 64, 150 us against 290 us at 648).
# At the CLI's cap, `oracle --poly 0 --modulus 400000` (400,000
# solutions), the join took 24 to 28 ms, against 87 to 115 ms with the
# plain join alone, and the whole call 264 to 305 ms in process (0.44 to
# 0.53 s cold) against 478 to 496 ms (0.64 to 0.70 s cold); the rest of
# that gap showed up in printing, for a cause not verified.
_CRT_VECTOR_MIN = 256
_scratch = threading.local()


class RootModP(Frozen):
    """A residue solving f(x) = target (mod p), tagged singular when the
    derivative of f vanishes there mod p."""

    _fields = ("residue", "singular", "derivative_residue")

    def __init__(self, residue: int, singular: bool, derivative_residue: int):
        self.__dict__.update(
            residue=residue, singular=singular, derivative_residue=derivative_residue
        )


def congruence_is_identically_zero(
    f: IntPoly, target: int, p: Union[int, Prime]
) -> bool:
    """True when every coefficient of f - target is divisible by p, the
    degenerate case in which all p residues solve the congruence."""
    return reduce_mod_p(f - target, p).is_zero


# The default node budget of a backward tree (re-exported by backward),
# and how many residues roots_mod_p lists when f - target vanishes mod p.
DEFAULT_NODE_BUDGET = 100_000


def roots_mod_p(f: IntPoly, target: int, p: Union[int, Prime]) -> list[RootModP]:
    """All residues a in [0, p) with f(a) = target (mod p), ascending,
    each classified by the derivative of f at a mod p, taken from the
    reduction h of f - target, since h' = f' mod p.  h is built from
    f's coefficients with the target taken off the constant term, with
    no IntPoly f - target in between.

    A reduction that vanishes identically means every residue is a
    root, and a singular one: f - target = p g gives f' = p g'.  Listing
    them builds one RootModP each (about 11 us and 1 KB each through the
    CLI), so that is refused above DEFAULT_NODE_BUDGET.
    """
    prime = as_prime(p)
    q = prime.p
    h = FpPoly(prime, (f.coeff(0) - target, *f.coeffs[1:]))
    if h.is_zero:
        if q > DEFAULT_NODE_BUDGET:
            raise PadicDynError(
                f"f(x) = {target} holds for every residue mod {q}; listing "
                f"all of them is refused above {DEFAULT_NODE_BUDGET}"
            )
        return [RootModP(a, True, 0) for a in range(q)]
    dh = derivative_coeffs(h.coeffs)
    out = []
    for a in h.roots():
        d = horner_mod(dh, a, q)
        out.append(RootModP(a, d == 0, d))
    return out


def _bruteforce_python(coeffs: list[int], target: int, m: int) -> list[int]:
    # Reducing at every step keeps each value within CPython's fast path
    # for small ints; the numpy scan's delayed reduction, tried in this
    # loop, ran up to 1.2x slower on the multi-digit ints it makes.
    hits = []
    rev = coeffs[::-1]
    for x in range(m):
        total = 0
        for c in rev:
            total = (total * x + c) % m
        if total == target:
            hits.append(x)
    return hits


def _bruteforce_vectorized(coeffs: list[int], target: int, m: int) -> list[int]:
    # Horner over each block at once, in place, in uint64.  m is odd or a
    # power of 2, as every prime power is.  The target is taken into the
    # constant term, as (c_0 - target) mod m, so x is a hit exactly when m
    # divides its final value n, as the comment above _VECTOR_MIN explains.
    # Up to degree _SHIFT_MAX_DEGREE every block, starting at lo, runs the
    # rule on its offset i = x - lo < size, with the coefficients of
    # f(lo + i) mod m (f's own in the first block, the shift by 0), and
    # starts from lead * i, the same in every block; above that degree
    # every block runs it on x with f's own coefficients.  Every term is
    # scaled by `scale`, so acc holds the value times `scale` mod 2^64
    # throughout and ends on n * scale: a hit when it is at most `limit`.
    # The rule reads values in [0, top] and coefficients in [0, m), so
    # `bound`, an exact upper bound on n and on every value before it,
    # decides before which steps an odd m reduces; the same steps serve
    # every block.  A power of 2 divides 2^64, so its values need no
    # reduction.  A block of an m of more than one block whose min() is
    # above `limit` holds no hit and builds no mask: a shifted block
    # without a hit takes 2d - 1 passes of the rule and the min(), 4, 6
    # and 8 at degree 2, 3 and 4.
    import numpy as np

    coeffs = [((coeffs[0] if coeffs else 0) - target) % m, *coeffs[1:]]
    lead = coeffs[-1]
    size = min(m, _BLOCK)
    shift = len(coeffs) - 1 <= _SHIFT_MAX_DEGREE
    top = size - 1 if shift else m - 1
    odd = m % 2 == 1
    wide = []
    bound = lead
    for c in reversed(coeffs[:-1]):
        # a shifted block's coefficients can be anything below m
        c = m - 1 if shift else c
        # Overflow invariant: after a reduction acc <= m - 1, and the step
        # after it reaches at most (m - 1) * top + (m - 1) < m^2 <= 2^62
        # for m <= _VECTOR_MAX = 2^31, so a step that follows one always
        # fits.
        reduce = bound * top + c > 2**64 - 1
        if reduce:
            bound = m - 1
        wide.append(odd and reduce)
        bound = bound * top + c
    if odd:  # n * m^-1 mod 2^64 is at most `limit` exactly when m divides n
        scale, limit = pow(m, -1, 2**64), (2**64 - 1) // m
    else:  # n * 2^64 / m mod 2^64 is 0 exactly when m divides n
        scale, limit = 2**64 // m, 0
    base, second, acc, quot, found = (b[:size] for b in _block_buffers(np))
    hits = []
    for lo in range(0, m, size):
        if lo + size > m:
            base, second, acc, quot, found = (
                b[: m - lo] for b in (base, second, acc, quot, found))
        if shift:
            xs, terms = base, _taylor_shift(coeffs, lo, m) if lo else coeffs
        else:
            xs, terms = np.add(base, lo, out=second), coeffs
        terms = [c * scale % 2**64 for c in terms]
        # the first step never overflows: lead * top + c < m^2 <= 2^62
        if len(terms) == 1:
            acc.fill(terms[0])
        elif shift:
            if not lo:  # lead * i, kept for every later block
                np.multiply(base, terms[-1], out=second)
            np.add(second, terms[-2], out=acc)
        else:
            np.multiply(xs, terms[-1], out=acc)
            if terms[-2]:
                acc += terms[-2]
        for reduce, c in zip(wide[1:], terms[-3::-1]):
            # acc * m mod 2^64 is the value v: acc - v // m = (v mod m) * m^-1
            if reduce:
                np.multiply(acc, m, out=quot)
                np.floor_divide(quot, m, out=quot)
                acc -= quot
            np.multiply(acc, xs, out=acc)
            if c:
                acc += c
        # compared as an int: numpy 1.x makes float64 of a uint64 and an int
        if m > size and int(acc.min()) > limit:
            continue  # no multiple of m in this block
        np.less_equal(acc, limit, out=found)
        hits += (found.nonzero()[0] + lo).tolist()
    return hits


def _taylor_shift(coeffs: list[int], a: int, m: int) -> list[int]:
    """The coefficients of f(a + y) mod m, lowest first, from f's: Horner's
    rule on polynomials, d(d + 1) / 2 multiply-adds for degree d (von zur
    Gathen and Gerhard, ISSAC 1997)."""
    t = list(coeffs)
    for i in range(len(t) - 1):
        for j in range(len(t) - 2, i - 1, -1):
            t[j] = (t[j] + a * t[j + 1]) % m
    return t


def _block_buffers(np):
    """This thread's arange(_BLOCK), three more uint64 buffers and a bool
    one of _BLOCK entries, made on its first numpy scan and kept."""
    buffers = getattr(_scratch, "buffers", None)
    if buffers is None or len(buffers[0]) != _BLOCK:
        buffers = (np.arange(_BLOCK, dtype=np.uint64),
                   *(np.empty(_BLOCK, dtype=np.uint64) for _ in range(3)),
                   np.empty(_BLOCK, dtype=bool))
        _scratch.buffers = buffers
    return buffers


def _numpy_scans(q: int, m: int) -> bool:
    """Whether the oracle scans the prime-power factor q of m with numpy."""
    return _VECTOR_MIN <= m <= _VECTOR_MAX and q > _LOOP_FACTOR_MAX


def _prime_power_factors(m: int) -> list[int]:
    """The prime powers whose product is m, by trial division."""
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            q = 1
            while m % d == 0:
                m //= d
                q *= d
            factors.append(q)
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append(m)
    return factors


def _crt_python(parts: list[tuple[list[int], int]]) -> list[int]:
    # each step joins x = a (mod `mod`) and x = b (mod q), for q coprime
    # to mod, into x = a + mod * ((b - a) * mod^-1 % q) (mod mod * q)
    solutions, mod = [0], 1
    for residues, q in parts:
        inv = pow(mod, -1, q)
        solutions = [a + mod * ((b - a) * inv % q) for a in solutions for b in residues]
        mod *= q
    return sorted(solutions)


def _crt_vectorized(parts: list[tuple[list[int], int]]) -> list[int]:
    # _crt_python as an outer sum; (b - a) % q * inv stays below q^2 <= 2^62
    # and every joined residue below m <= 2^31, so int64 holds them
    import numpy as np

    solutions, mod = np.zeros(1, dtype=np.int64), 1
    for residues, q in parts:
        inv = pow(mod, -1, q)
        a = solutions[:, None]
        t = (np.asarray(residues, dtype=np.int64) - a) % q * inv % q
        solutions = (a + mod * t).ravel()
        mod *= q
    solutions.sort()
    return solutions.tolist()


def solve_congruence_bruteforce(
    f: IntPoly,
    target: int,
    m: int,
    *,
    bound: int = DEFAULT_ORACLE_BOUND,
    max_solutions: int | None = None,
) -> list[int]:
    """All x in [0, m) with f(x) = target (mod m), sorted ascending.

    x solves the congruence mod m exactly when it does so mod each
    prime-power factor q of m, so each q is scanned exhaustively and the
    residue sets are joined by CRT.  From m = 2^16 a factor of more than
    32 residues is scanned with numpy and a smaller one with the plain
    loop, which beats numpy's fixed cost per call there; below 2^16
    every factor takes the loop.  The numpy scan runs Horner's rule in
    uint64 over blocks of 2^14 residues; up to degree 12 each block
    evaluates f shifted to the block's start at the offsets from it,
    which keeps its values narrow.  A factor evaluates f times its
    inverse mod 2^64 if it is odd, or times 2^64 / q if it is a power q
    of 2, which puts its multiples at the least values, so a block whose
    least value is above them is passed over without listing anything:
    4, 6 and 8 passes over a shifted block at degree 2, 3 and 4.  Any
    modulus >= 2 is accepted up to `bound` (default 10^7), which keeps
    exhaustion tractable.  More than `max_solutions` solutions, when it
    is given, are refused before they are joined: the zero polynomial
    has m of them.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if m > bound:
        raise ValueError(f"modulus {m} exceeds the exhaustion bound {bound}")
    parts = []
    for q in _prime_power_factors(m):
        scan = _bruteforce_vectorized if _numpy_scans(q, m) else _bruteforce_python
        residues = scan([c % q for c in f.coeffs], target % q, q)
        if not residues:
            return []
        parts.append((residues, q))
    count = math.prod(len(residues) for residues, _ in parts)
    if max_solutions is not None and count > max_solutions:
        raise ValueError(
            f"{count} solutions mod {m}; listing more than {max_solutions} "
            "is refused"
        )
    vectorized = _VECTOR_MIN <= m <= _VECTOR_MAX
    join = _crt_vectorized if vectorized and count >= _CRT_VECTOR_MIN else _crt_python
    return join(parts)
