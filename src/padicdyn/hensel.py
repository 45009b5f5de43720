"""Hensel lifting: refine a nonsingular root mod p to a root mod p^k.

The lift is unique, so Newton iteration computes it directly over the
precisions 2, ..., ceil(k/2), k, the halvings of k, refining f'(a)^-1
alongside by s <- s(2 - f'(a)s).  Each lift cuts f - target mod each
of its own p^j, once, and each stage reads its derivative from the cut
below it; nothing is kept between calls.  The residues a_j = root mod
p^j form the root's PadicInt ladder, read on demand.
"""

from __future__ import annotations

from functools import cached_property
from typing import Union

from .errors import NotARootError, SingularRootError
from .padic import CoherentSequence, Frozen, PadicInt, Prime, as_prime
from .polynomial import IntPoly, derivative_coeffs, eval_mod, horner_mod


class LiftedRoot(Frozen):
    """The unique root mod p^k of f = target lifting a nonsingular root
    mod p, as `root` in [0, p^k) with `precision` k."""

    _fields = ("prime", "root", "precision", "polynomial", "target")

    def __init__(
        self, prime: Prime, root: int, precision: int, polynomial: IntPoly, target: int
    ):
        self.__dict__.update(
            prime=prime, root=root, precision=precision, polynomial=polynomial,
            target=target,
        )

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
    respectively.  The step is the Newton update a - f(a) * f'(a)^-1
    mod p^(j+1), the one every later stage of hensel_lift applies: as
    p^j divides f(a), f'(a)^-1 is needed only mod p.
    """
    prime = as_prime(p)
    q = prime.p
    if j < 1:
        raise ValueError("level must be at least 1")
    step_mod = q ** (j + 1)
    residue = eval_mod(f, a, step_mod)
    if residue % q**j != 0:
        raise NotARootError(f"{a} is not a root modulo {q}^{j}")
    d = horner_mod(derivative_coeffs(f.coeffs), a % q, q)
    if d == 0:
        raise SingularRootError(
            f"derivative vanishes at {a} mod {q}: no unique lift exists"
        )
    return (a - residue * pow(d, -1, q)) % step_mod


def hensel_lift(
    f: IntPoly,
    a0: int,
    k: int,
    p: Union[int, Prime],
    target: int = 0,
) -> LiftedRoot:
    """Lift a nonsingular root a0 of f = target (mod p) to the unique
    root mod p^k congruent to a0 mod p.

    The stages are the pairs (p^j, g mod p^j) for the precisions 1, 2,
    ..., ceil(k/2), k, the halvings of k, where g = f - target is f's
    coefficient list with the target taken off its constant term.  g is
    cut mod p^k once and then from each precision to the next one down,
    so every evaluation works on numbers below its own modulus.  The
    stage to p^2 is one hensel_step; each later one, from p^j to p^J, is
    the same Newton update a - g(a) * s mod p^J, with s = g'(a)^-1 kept
    correct mod p^j from the cut mod p^j.  Seeds that are not roots mod
    p, or are singular, are rejected before any stage.  f need not be
    monic: only the seed's nonsingularity is used.
    """
    prime = as_prime(p)
    q = prime.p
    if k < 1:
        raise ValueError("precision must be at least 1")
    levels = [k]
    while levels[-1] > 1:
        levels.append((levels[-1] + 1) // 2)
    levels.reverse()
    # each p^j once, squaring up from p
    moduli = [q]
    for j, next_j in zip(levels, levels[1:]):
        m = moduli[-1]
        moduli.append(m * m if next_j == 2 * j else m * m // q)
    g = [f.coeff(0) - target, *f.coeffs[1:]]
    stages = []
    for m in reversed(moduli):
        g = [c % m for c in g]
        stages.insert(0, (m, g))
    a = a0 % q
    if horner_mod(g, a, q) != 0:
        raise NotARootError(f"seed {a0} is not a root of the congruence modulo {q}")
    d = horner_mod(derivative_coeffs(g), a, q)
    if d == 0:
        raise SingularRootError(
            f"seed {a0} is singular mod {q}: no unique lift exists"
        )
    if k > 1:
        a = hensel_step(IntPoly(stages[1][1]), a, 1, prime)
        s = pow(d, -1, q)
        for (m, g), (next_m, next_g) in zip(stages[1:], stages[2:]):
            # s is g'(a)^-1 mod p^ceil(j/2); one Newton update makes it
            # exact mod p^j, which is all the step to p^J, J <= 2j, needs.
            s = s * (2 - horner_mod(derivative_coeffs(g), a, m) * s) % m
            a = (a - horner_mod(next_g, a, next_m) * s) % next_m
    return LiftedRoot(prime, a, k, f, target % stages[-1][0])
