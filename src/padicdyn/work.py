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
and rounded up, so the estimate is above the measured time by up to 3x
(a sparse f, a lucky root count) and below it by at most about 1.5x.
"""

from __future__ import annotations

from .congruence import _VECTOR_MIN
from .errors import BudgetExceededError
from .polynomial import IntPoly

MAX_WORK = 10**8
# Joining and printing one oracle solution costs about 1 us.
MAX_SOLUTIONS = MAX_WORK // 100
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


def roots(f: IntPoly, p: int) -> int:
    """roots_mod_p: f - t reduced mod p, then x^p mod it by one schoolbook
    square and reduce, about 200 ns * e^2, per bit of p, where
    e = min(d, p) bounds the degree of every power; the gcd with
    x^p - x and the derivative at each root cost d * e each."""
    e = min(f.degree, p) + 2
    return 20 * e * (p.bit_length() * e + f.degree) + _evaluation(f, p, 1)


def lift(f: IntPoly, p: int, k: int) -> int:
    """hensel_lift to p^k: g = f - t and its derivative, about 3 us per
    coefficient; then per Newton stage about 10 us and two evaluations.
    The stages run at the halvings 2, ..., ceil(k/2), k of k on
    coefficients reduced mod each p^j; the estimate charges the doubling
    2, 4, ..., k instead, at least as large stage for stage, and f's
    coefficients as given, which the lift reduces mod p^k first."""
    steps = 300 * (f.degree + 1)
    for j in range(k.bit_length() + 1):
        steps += 1000 + 2 * _evaluation(f, p, min(2**j, k))
    return steps


def preimages(f: IntPoly, p: int, k: int) -> int:
    # a root finding, then a lift of each of at most min(d, p) roots
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
    of m, at most m in all: about 140 ns per coefficient in the plain
    loop, and vectorized 6-14 ns with numpy's import and the join."""
    per_coefficient = 14 if m < _VECTOR_MIN else 2
    return per_coefficient * m * max(f.degree + 1, 1)


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
