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
the target into the constant term and runs Horner's rule in int64 over
blocks of up to _BLOCK residues.  It skips the addition of a zero
coefficient and reduces mod the factor, by floor division, only before
a step that an exact bound says could pass 2^63 - 1.  x is a hit when
the factor divides its final value: an odd factor tests that by one
multiplication mod 2^64 and one comparison, an even one by one floor
division.
"""

from __future__ import annotations

import math
import threading
from typing import Union

from .errors import PadicDynError
from .padic import Frozen, Prime, as_prime
from .polynomial import FpPoly, IntPoly, horner_mod, reduce_mod_p

DEFAULT_ORACLE_BOUND = 10**7

# The first vectorized call pays numpy's import, about 150 ms on a 2-vCPU
# x86 VM, while the plain loop, which reduces mod m at every step, takes
# 1.1 ms at m = 4095, 2.7 ms at m = 9999 and 18 ms at m = 2^16 at degree 2
# (31 ms at degree 4).  A one-shot process therefore comes out ahead
# without numpy up to m of about 4 * 10^5; 2^16 keeps the loop well under
# the import's cost even at higher degree.  The numpy scan reduces only
# where int64 could overflow, which needs (m - 1)^2 + (m - 1) < 2^63 right
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
# another, on buffers reused from block to block: x, its shift by the
# block's start, acc and a quotient at 2^14 int64 entries, and the hit
# mask, take 528 KiB, inside the 2 MiB L2 cache of the VM's Xeon.
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
# Mid-scan the scan reduces as acc - (acc // q) * q; numpy divides int64
# by a scalar through libdivide.  The target is taken into the constant
# term, as (c_0 - target) mod q, so x is a hit exactly when q divides
# the final acc, which the bound keeps in [0, 2^63).  For odd q,
# n -> n * q^-1 mod 2^64 permutes [0, 2^64) and takes k * q to k, so it
# sends the multiples of q below 2^64 onto [0, (2^64 - 1) // q] and
# every other n above it (Granlund and Montgomery, PLDI 1994; Lemire,
# Kaser and Kurz, SPE 49(6), 2019).  The test is two passes, an
# in-place multiply of acc read as uint64 and a comparison.  Whole scans
# (best of 21 runs of 5 in one process) took 243, 292 and 482 us at
# q = 65521 and degree 2, 3 and 4, and 777, 1495 and 2278 us at 262139,
# against 344, 397, 545 and 1125, 1793, 2617 us with a last reduction
# and a comparison with the target, four passes.  An even q has no
# inverse mod 2^64: x is a hit there when acc == (acc // q) * q.
_VECTOR_MIN = 2**16
_VECTOR_MAX = 2**31
_BLOCK = 2**14
_LOOP_FACTOR_MAX = 32
# The numpy CRT join costs about 50 us for its calls on a few factors,
# the plain one about 0.4 us per solution: they are level at 200 to 300
# solutions (64 us against 27 us at 64, 150 us against 290 us at 648).
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
    dh = [i * c for i, c in enumerate(h.coeffs) if i]
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


_INT64_MAX = 2**63 - 1


def _bruteforce_vectorized(coeffs: list[int], target: int, m: int) -> list[int]:
    # Horner over each block of x at once, in place, reducing mod m only
    # where a step could overflow int64.  The target is taken into the
    # constant term, as (c_0 - target) mod m, so x is a hit exactly when
    # m divides its final acc, as the comment above _VECTOR_MIN explains.
    # Coefficients are in [0, m) and 0 <= x < m, so acc never goes
    # negative and `bound`, an exact upper bound on its entries, decides
    # before which steps to reduce; the same steps serve every block.
    import numpy as np

    coeffs = [((coeffs[0] if coeffs else 0) - target) % m, *coeffs[1:]]
    lead = coeffs[-1]
    steps = []
    bound = lead
    for c in reversed(coeffs[:-1]):
        # Overflow invariant: after a reduction acc <= m - 1, and the step
        # after it reaches at most (m - 1)^2 + (m - 1) < m^2 <= 2^62 for
        # m <= _VECTOR_MAX = 2^31, so a step that follows one always fits.
        wide = bound * (m - 1) + c > _INT64_MAX
        if wide:
            bound = m - 1
        steps.append((wide, c))
        bound = bound * (m - 1) + c
    odd = m % 2 == 1
    if odd:
        inverse = np.uint64(pow(m, -1, 2**64))
        limit = np.uint64((2**64 - 1) // m)
    size = min(m, _BLOCK)
    base, shifted, acc, quot, found = (b[:size] for b in _block_buffers(np))
    hits = []
    for lo in range(0, m, size):
        if lo + size > m:
            base, shifted, acc, quot, found = (
                b[: m - lo] for b in (base, shifted, acc, quot, found))
        xs = np.add(base, lo, out=shifted) if lo else base
        if steps:  # the first step never overflows: lead * (m - 1) + c < m^2
            np.multiply(xs, lead, out=acc)
            if steps[0][1]:
                acc += steps[0][1]
        else:
            acc.fill(lead)
        for wide, c in steps[1:]:
            if wide:
                np.floor_divide(acc, m, out=quot)
                np.multiply(quot, m, out=quot)
                acc -= quot
            np.multiply(acc, xs, out=acc)
            if c:
                acc += c
        if odd:
            # acc <= bound <= 2^63 - 1 reads the same as uint64
            scaled = acc.view(np.uint64)
            scaled *= inverse
            np.less_equal(scaled, limit, out=found)
        else:
            np.floor_divide(acc, m, out=quot)
            np.multiply(quot, m, out=quot)
            np.equal(acc, quot, out=found)
        hits += (np.flatnonzero(found) + lo).tolist()
    return hits


def _block_buffers(np):
    """This thread's arange(_BLOCK), three more int64 buffers and a bool
    one of _BLOCK entries, made on its first numpy scan and kept."""
    buffers = getattr(_scratch, "buffers", None)
    if buffers is None or len(buffers[0]) != _BLOCK:
        buffers = (np.arange(_BLOCK, dtype=np.int64),
                   *(np.empty(_BLOCK, dtype=np.int64) for _ in range(3)),
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
    every factor takes the loop.  Any modulus >= 2 is accepted up to
    `bound` (default 10^7), which keeps exhaustion tractable.  More than
    `max_solutions` solutions, when it is given, are refused before they
    are joined: the zero polynomial has m of them.
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
