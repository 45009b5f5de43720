"""Work estimates for the CLI: each subcommand's cost, known before it
computes.

A subcommand's cost follows from its inputs: the degree d of f, the
bit length of p, the precision k, the step count, the modulus.  The CLI
refuses a call whose estimate exceeds MAX_WORK with BudgetExceededError,
and it stops a tree at the node count the work allows, so every call it
accepts ends in about a second.  The library does not apply these
limits: a caller may ask it for as long a computation as it likes.

Work is counted in steps of about 10 ns.  Each estimate takes the
leading terms of its algorithm, fitted on a 2-vCPU x86 VM (Python 3.11)
and rounded up, so that it is at or above the measured time.  Over
1320 timed lifts (primes of 3 to 127 bits, p^k up to 2^16 bits, degree
1 to 40, small, full-width and 2^14-bit coefficients) lift is 1.0x to
11.8x its time, 1.7x in the median.  It is within 3x for all but 104 of
them: chiefly f of degree 1 to 3 with small coefficients at large p^k,
where Horner's rule multiplies by a narrow lead, and short lifts of
2^14-bit coefficients.  Since the cut of f is charged once, as the lift
makes it, 98 lifts of 2^14- to 2^20-bit coefficients (primes of 2 to
127 bits, k up to 150, degree 1 and 4) are 1.7x to 4.4x their time.
Over 722 timed root findings (primes of 2 to
255 bits, degree 1 to 160) roots is 1.0x to 5.2x its time when all
min(d, p) roots are there, and up to 32x when few are, as the count is
not known before the call; a quadratic, now solved by formula, 7.7x or
more.  Over 1104 timed oracle scans (23 moduli of 10^3 to 10^7, odd
and even, degree 1 to 24, dense, sparse and with leads below 10 or
q - 1, a root planted, the CRT join left out as it is charged per
solution) oracle is 1.9x to 15x their time, 3.9x in the median, where
numpy scans a factor, and 1.9x to 14x where only the plain loop does.
A --prime's primality test, charged before it runs, is 1.1x to 4x its
time.
"""

from __future__ import annotations

import math

from .congruence import _BLOCK, _numpy_scans, _prime_power_factors
from .errors import BudgetExceededError
from .padic import _MR_WITNESSES
from .polynomial import IntPoly

MAX_WORK = 10**8
# Joining and printing one oracle solution costs about 1.1 us as JSON,
# and numpy's import about 0.15 s: each solution is charged 2.5 us.
MAX_SOLUTIONS = MAX_WORK // 250
# One numpy call of the oracle's vectorized scan, on an array of any
# length up to its block: 0.7 to 1.5 us on the VM, whose speed drifts.
_NUMPY_CALL = 200
# Building, expanding and printing one tree node costs about 60 us
# besides its root finding and its lift.
_NODE = 6000


def _int_op(bits: int) -> int:
    """One multiply and reduce of two `bits`-bit integers: 110 ns up to a
    word, then linear in the size and, past about 2^10 bits, quadratic,
    as CPython divides in quadratic time."""
    return 11 + 3 * bits // 8 + bits * bits // 2048


def _evaluation(f: IntPoly, p: int, k: int) -> int:
    """f at one point mod p^k by Horner's rule: a multiply and reduce
    per coefficient, and a pass over every word of f's coefficients,
    which the parser lets grow to 2^20 bits.  (A precision below 1 is
    refused by the call itself.)"""
    words = sum(c.bit_length() for c in f.coeffs) // 64
    return (f.degree + 1) * _int_op(max(k, 1) * p.bit_length()) + words


def prime(p: int) -> int:
    """is_prime of p: trial division, then up to 12 Miller-Rabin rounds
    of about bits(p) squarings mod p each, charged at a twelfth of the
    estimate each.  Over primes of 3 to 2400 bits it is 1.1x to 4x their
    time; a composite, which the first round usually rejects, is charged
    as much as a prime."""
    bits = p.bit_length()
    return len(_MR_WITNESSES) * bits * _int_op(bits)


def roots(f: IntPoly, p: int) -> int:
    """roots_mod_p: Rabin's rule on h = f - t mod p, which has e <=
    min(d, p) roots: each shift a = 0, 1, ... takes out the root -a of a
    piece g, h itself at a = 0, and splits the rest by
    gcd(g, (x + a)^((p-1)/2) - 1) and gcd(g, (x + a)^((p-1)/2) + 1), one
    power by squaring per shift; then f' at each root.  An h or a piece
    of degree at most 2 is solved by the quadratic formula instead, with
    Euler's criterion and Cipolla's square root: a few built-in pows and
    O(log p) multiplications mod p.  The estimate still charges the
    powers, so it stays an upper bound: a quadratic at primes of 16 to
    2203 bits takes at most 0.13 of it.

    Each power costs about 9 us per bit of p in calls and list work,
    and 1 us more per 64 bits of p.
    The splitting takes about three powers per root, counting the
    shifts that leave a piece whole, and the estimate charges all e of
    them: a congruence with few roots can take a twentieth of it.  A
    power of degree e squares and reduces at each bit of p past its
    first log2 e, for e^2 word operations of (300 + 70 bits / 16) ns
    each; the power at a = 0 and the splitting take up to six such
    powers between them.  The gcds of h cost d * e word operations.
    These figures were measured on a first split of h followed by a
    separate splitting of its gcds.  The rule takes the same powers, and
    its two gcds per split, in place of a gcd and a division, are
    covered by the three powers per root, so the estimate stands.
    """
    bits = p.bit_length()
    e = max(min(f.degree, p), 0)
    powers = 3 * e if e > 1 else 1
    full = max(bits - max(e, 1).bit_length() + 1, 1)
    op = 30 + 7 * bits // 16
    return (
        6000
        + (e + 1) * _evaluation(f, p, 1)
        + powers * bits * (900 + 100 * bits // 64)
        + (6 * full * e + f.degree) * e * op
    )


def _excess(f: IntPoly, bits: int) -> int:
    """Cutting f's coefficients mod a `bits`-bit modulus, beyond what it
    costs for coefficients already below it: a schoolbook long division,
    about 3.3 ns per 30-bit digit of quotient per digit of divisor, with
    up to 2^20 bits of quotient, as the parser allows."""
    divisor = bits // 30 + 10
    return sum(max(c.bit_length() - bits, 0) // 30 * divisor // 3 for c in f.coeffs)


def _newton(f: IntPoly, p: int, k: int) -> int:
    """hensel_lift to p^k on coefficients already below p^k.

    Building g = f - t and cutting it mod p^k costs about 17 us, and 3 us
    and a pass over two coefficients of p^k per coefficient; the step to
    p^2 about 35 us.  Each Newton stage, at the halvings k, ceil(k/2),
    ..., 2 of k, costs about 5 us, one _int_op at its own precision per
    multiply of Horner's rule on g, and 5/8 of one more for reading g'
    off the cut below it and for cutting g from the precision above.
    """
    bits = p.bit_length()
    steps = 1700 + (f.degree + 1) * (300 + (k * bits // 30 + 10) // 2)
    if k > 1:
        steps += 3500
    j = k
    while j > 1:
        op = _int_op(j * bits)
        steps += 500 + f.degree * op + op * 5 // 8
        j = (j + 1) // 2
    return steps


def lift(f: IntPoly, p: int, k: int) -> int:
    """hensel_lift to p^k: g = f - t cut mod p^k once from f's
    coefficients as given, then the Newton stages."""
    return _excess(f, k * p.bit_length()) + _newton(f, p, k)


def preimages(f: IntPoly, p: int, k: int) -> int:
    # a root finding, then a lift of each of at most min(d, p) roots,
    # each of which cuts f's coefficients mod p^k itself
    return roots(f, p) + min(f.degree, p) * lift(f, p, k)


def ladder(f: IntPoly, p: int, k: int) -> int:
    """A lift and its k rungs and k digits, printed: the rungs grow to
    k log2 p bits, so together they cost about k / 4 of the largest."""
    return lift(f, p, k) + max(k, 1) * _int_op(max(k, 1) * p.bit_length()) // 4


def orbit(f: IntPoly, p: int, k: int, steps: int) -> int:
    # per step an evaluation mod p^k, and about 1 us to record and print
    return (steps + 1) * (_evaluation(f, p, k) + 100)


def oracle(f: IntPoly, m: int) -> int:
    """The scan evaluates f at each residue mod each prime-power factor
    q of m, the sum of the q in all (m itself for a prime): about 100 ns
    per residue and 160 ns per coefficient in the plain loop, and 4 ns
    per residue per coefficient in the numpy scan, which covers its
    reductions mod q where uint64 could overflow: at q near 10^7 above
    degree 12 it reduces before every other step, about 2.2 ns per
    residue per coefficient in all.  Each block of up to _BLOCK residues
    of a numpy-scanned factor is also charged two numpy calls per
    coefficient and two more for its hit test, each 0.7 to 1.5 us
    whatever its length, at 2 us.  A block ends on its values times
    q^-1 mod 2^64 for an odd q, or 2^64 / q for a power of 2, and takes
    their min(), and builds a mask only where that shows a hit: a
    shifted block without one makes 4, 6 and 8 calls at degree 2, 3 and
    4.  Up to degree _SHIFT_MAX_DEGREE the charge also covers the
    block's Taylor shift and the scaling of its coefficients in Python,
    d(d + 1) / 2 + d + 1 multiply-adds of about 0.1 us.  Each factor is
    charged by the scanner the oracle gives it, numpy or the loop, as
    _numpy_scans decides.  Finding the factors by trial division tries
    at most isqrt(m) / 2 + 1 divisors, about 140 ns each.  (numpy's
    import, about 0.15 s, is left to the limit's margin.)  The numpy
    scan skips the addition of a zero coefficient, which the estimate
    still charges, so it over-charges a sparse f, which is safe."""
    terms = max(f.degree + 1, 1)
    factors = _prime_power_factors(m)
    vectorized = [q for q in factors if _numpy_scans(q, m)]
    looped = sum(factors) - sum(vectorized)
    blocks = sum(-(-q // _BLOCK) for q in vectorized)
    return (
        looped * (10 + 16 * terms)
        + sum(vectorized) * terms * 2 // 5
        + blocks * (terms + 2) * 2 * _NUMPY_CALL
        + 14 * (math.isqrt(m) // 2 + 1)
    )


def tree_nodes(f: IntPoly, p: int, k: int) -> int:
    """The largest node count a tree may reach, refusing a tree of which
    not even one node fits.  Each node is lifted once, expanded at most
    once and printed; the expansion that stops a tree lifts its children
    before it is stopped, so one more backward step is kept in reserve."""
    per_node = roots(f, p) + lift(f, p, k) + _NODE
    reserve = preimages(f, p, k)
    check(reserve + per_node, "a backward step of the tree")
    return (MAX_WORK - reserve) // per_node


def check(steps: int, what: str) -> None:
    """Refuse a call estimated at more than MAX_WORK steps."""
    if steps > MAX_WORK:
        raise BudgetExceededError(
            f"{what} is estimated at {steps} steps of about 10 ns, "
            f"over the limit of {MAX_WORK}"
        )
