"""Hensel lifting: refine a nonsingular root mod p to a root mod p^k.

The lift is unique, so it is computed directly at full precision by
Newton iteration, doubling the precision at each stage
(p^j -> p^min(2j, k)) while f'(a)^-1 is refined alongside by the Newton
update s <- s(2 - f'(a)s).  The intermediate residues (a_1, ..., a_k)
form a coherent sequence; they are the terminal root reduced mod p^j,
so the ladder is derived from the root on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .errors import NotARootError, SingularRootError
from .padic import CoherentSequence, PadicInt, Prime, as_prime
from .polynomial import IntPoly, eval_mod


@dataclass(frozen=True)
class LiftedRoot:
    """The unique root mod p^k of f = target lifting a nonsingular root
    mod p, as `root` in [0, p^k) with `precision` k."""

    prime: Prime
    root: int
    precision: int
    polynomial: IntPoly
    target: int

    @cached_property
    def digits(self) -> tuple[int, ...]:
        """The base-p digits (d_0, ..., d_(k-1)) of the root, built on
        first access."""
        return PadicInt.from_int(self.root, self.prime, self.precision).digits

    @cached_property
    def ladder(self) -> tuple[int, ...]:
        """(a_1, ..., a_k) with a_j = root mod p^j: each a_j solves the
        congruence mod p^j, and consecutive entries agree mod p^j.
        Built on first access, from the digits by
        a_j = a_(j-1) + d_(j-1) p^(j-1), in O(k^2) digit operations."""
        q = self.prime.p
        rungs, a, m = [], 0, 1
        for d in self.digits:
            a += d * m
            m *= q
            rungs.append(a)
        return tuple(rungs)

    def as_padic(self) -> PadicInt:
        return PadicInt(self.prime, self.precision, self.digits)

    def as_coherent_sequence(self) -> CoherentSequence:
        return CoherentSequence(self.prime, self.ladder)


def hensel_step(f: IntPoly, a: int, j: int, p: Union[int, Prime]) -> int:
    """One lifting step: the unique residue mod p^(j+1) congruent to a
    mod p^j with f = 0 mod p^(j+1).

    Requires f(a) = 0 (mod p^j) and f'(a) != 0 (mod p); the two
    precondition failures raise NotARootError and SingularRootError
    respectively.  The correction is t = -(f(a)/p^j) * f'(a)^-1 mod p,
    applied as a + t*p^j.
    """
    prime = as_prime(p)
    q = prime.p
    if j < 1:
        raise ValueError("level must be at least 1")
    step_mod = q ** (j + 1)
    # Evaluating mod p^(j+1) is enough: only f(a)/p^j mod p is needed.
    residue = eval_mod(f, a, step_mod)
    if residue % q**j != 0:
        raise NotARootError(f"{a} is not a root modulo {q}^{j}")
    d = eval_mod(f.derivative(), a, q)
    if d == 0:
        raise SingularRootError(
            f"derivative vanishes at {a} mod {q}: no unique lift exists"
        )
    t = -(residue // q**j) * pow(d, -1, q) % q
    return (a + t * q**j) % step_mod


def hensel_lift(
    f: IntPoly,
    a0: int,
    k: int,
    p: Union[int, Prime],
    target: int = 0,
) -> LiftedRoot:
    """Lift a nonsingular root a0 of f = target (mod p) to the unique
    root mod p^k congruent to a0 mod p.

    The first stage, p -> p^2, is one hensel_step; each later stage
    doubles the precision with the Newton update a - g(a) * s, where
    s = g'(a)^-1 is kept correct to the current precision.  Seeds that
    are not roots mod p, or that are singular, are rejected up front.
    f need not be monic: only the nonsingularity of the seed is used,
    even though the classical p-adic statement is usually phrased for
    monic f.
    """
    prime = as_prime(p)
    q = prime.p
    if k < 1:
        raise ValueError("precision must be at least 1")
    g = f - target
    dg = g.derivative()
    a = a0 % q
    if eval_mod(g, a, q) != 0:
        raise NotARootError(f"seed {a0} is not a root of the congruence modulo {q}")
    d = eval_mod(dg, a, q)
    if d == 0:
        raise SingularRootError(
            f"seed {a0} is singular mod {q}: no unique lift exists"
        )
    if k > 1:
        a = hensel_step(g, a, 1, prime)
        j, m = 2, q * q
        s = pow(d, -1, q)
        while j < k:
            # s is g'(a)^-1 mod p^(j/2); one Newton update makes it exact
            # mod p^j, which is all the step to p^(2j) needs.
            s = s * (2 - eval_mod(dg, a, m) * s) % m
            j = min(2 * j, k)
            m = q**j
            a = (a - eval_mod(g, a, m) * s) % m
    return LiftedRoot(prime, a, k, f, target % q**k)
