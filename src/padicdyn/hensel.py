"""Hensel lifting: refine a nonsingular root mod p to a root mod p^k.

The lift is unique, so it is computed directly at full precision by
Newton iteration over the precisions 2, ..., ceil(k/2), k, the halvings
of k read bottom up, while f'(a)^-1 is refined alongside by the Newton
update s <- s(2 - f'(a)s).  Each stage evaluates f and f' on
coefficients reduced mod its own p^j, cut once from the stage above, so
no stage pays for coefficients wider than its modulus.  The
intermediate residues (a_1, ..., a_k) form a coherent sequence; they
are the terminal root reduced mod p^j, so the ladder is the root's
PadicInt ladder, read on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .errors import NotARootError, SingularRootError
from .padic import CoherentSequence, PadicInt, Prime, as_prime
from .polynomial import IntPoly, eval_mod, horner_mod


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
    def _padic(self) -> PadicInt:
        return PadicInt.from_int(self.root, self.prime, self.precision)

    @property
    def digits(self) -> tuple[int, ...]:
        """The base-p digits (d_0, ..., d_(k-1)) of the root."""
        return self._padic.digits

    @property
    def ladder(self) -> tuple[int, ...]:
        """(a_1, ..., a_k) with a_j = root mod p^j: each a_j solves the
        congruence mod p^j, and consecutive entries agree mod p^j."""
        return self._padic.ladder

    def as_padic(self) -> PadicInt:
        return self._padic

    def as_coherent_sequence(self) -> CoherentSequence:
        return self._padic.coherent_sequence()


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

    The precisions are the halvings k, ceil(k/2), ..., 2, 1 of k, walked
    bottom up, so each stage at most doubles the precision and the last
    one ends at k.  g = f - target and g' are reduced mod p^k once and
    then from each precision to the next one down, so every evaluation
    works on numbers below its own modulus.  The stage to p^2 is one
    hensel_step; each later stage, from p^j to p^J, is the Newton update
    a - g(a) * s mod p^J, where s = g'(a)^-1 is kept correct mod p^j.
    Seeds that are not roots mod p, or that are singular, are rejected
    before any stage.  f need not be monic: only the nonsingularity of
    the seed is used, even though the classical p-adic statement is
    usually phrased for monic f.
    """
    prime = as_prime(p)
    q = prime.p
    if k < 1:
        raise ValueError("precision must be at least 1")
    # the precisions 1, 2, ..., ceil(k/2), k: the halvings of k, bottom up
    levels = [k]
    while levels[-1] > 1:
        levels.append((levels[-1] + 1) // 2)
    levels.reverse()
    # each p^j once, squaring up from p
    moduli = [q]
    for j, next_j in zip(levels, levels[1:]):
        m = moduli[-1]
        moduli.append(m * m if next_j == 2 * j else m * m // q)
    # g = f - target and g' as coefficient lists, cut mod p^k once and
    # then from each precision to the next one down
    g = f - target
    g, dg = g.coeffs, g.derivative().coeffs
    stages = []
    for m in reversed(moduli):
        g = [c % m for c in g]
        dg = [c % m for c in dg]
        stages.append((m, g, dg))
    stages.reverse()
    _, g, dg = stages[0]
    a = a0 % q
    if horner_mod(g, a, q) != 0:
        raise NotARootError(f"seed {a0} is not a root of the congruence modulo {q}")
    d = horner_mod(dg, a, q)
    if d == 0:
        raise SingularRootError(
            f"seed {a0} is singular mod {q}: no unique lift exists"
        )
    if k > 1:
        a = hensel_step(IntPoly(tuple(stages[1][1])), a, 1, prime)
        s = pow(d, -1, q)
        for (m, _, dg), (next_m, next_g, _) in zip(stages[1:], stages[2:]):
            # s is g'(a)^-1 mod p^ceil(j/2); one Newton update makes it
            # exact mod p^j, which is all the step to p^J, J <= 2j, needs.
            s = s * (2 - horner_mod(dg, a, m) * s) % m
            a = (a - horner_mod(next_g, a, next_m) * s) % next_m
    return LiftedRoot(prime, a, k, f, target % moduli[-1])
