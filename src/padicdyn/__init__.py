"""Backward orbits of integer polynomials over the p-adic integers.

Congruences f(x) = c (mod p^k) are solved by finding roots mod p and
Hensel-lifting the nonsingular ones; iterating the step backward builds
preimage trees whose root-to-leaf paths are coherent residue sequences,
i.e. truncated elements of Z_p.
"""

from .backward import (
    DEFAULT_NODE_BUDGET,
    BackwardTree,
    OrbitResult,
    backward_tree,
    distance_first_difference,
    distance_series,
    forward_orbit,
    preimages,
)
from .congruence import (
    DEFAULT_ORACLE_BOUND,
    RootModP,
    congruence_is_identically_zero,
    roots_mod_p,
    solve_congruence_bruteforce,
)
from .errors import (
    BudgetExceededError,
    NotARootError,
    NotAUnitError,
    NotPrimeError,
    PadicDynError,
    PolyParseError,
    SingularRootError,
)
from .hensel import LiftedRoot, hensel_lift, hensel_step
from .padic import (
    INFINITY,
    CoherentSequence,
    PadicInt,
    Prime,
    abs_p,
    as_prime,
    check_coherent,
    is_prime,
    vp_int,
    vp_rat,
)
from .parsing import parse_poly
from .polynomial import (
    FpPoly,
    IntPoly,
    divides_xp_minus_x,
    eval_mod,
    fermat_reduce,
    format_poly,
    fp_divmod,
    make_monic,
    reduce_mod_p,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # BackwardNode loads with `dataclasses` on first use, as in backward
    if name == "BackwardNode":
        return backward.BackwardNode
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BackwardNode",
    "BackwardTree",
    "BudgetExceededError",
    "CoherentSequence",
    "DEFAULT_NODE_BUDGET",
    "DEFAULT_ORACLE_BOUND",
    "FpPoly",
    "INFINITY",
    "IntPoly",
    "LiftedRoot",
    "NotARootError",
    "NotAUnitError",
    "NotPrimeError",
    "OrbitResult",
    "PadicDynError",
    "PadicInt",
    "PolyParseError",
    "Prime",
    "RootModP",
    "SingularRootError",
    "abs_p",
    "as_prime",
    "backward_tree",
    "check_coherent",
    "congruence_is_identically_zero",
    "distance_first_difference",
    "distance_series",
    "divides_xp_minus_x",
    "eval_mod",
    "fermat_reduce",
    "format_poly",
    "forward_orbit",
    "fp_divmod",
    "hensel_lift",
    "hensel_step",
    "is_prime",
    "make_monic",
    "parse_poly",
    "preimages",
    "reduce_mod_p",
    "roots_mod_p",
    "solve_congruence_bruteforce",
    "vp_int",
    "vp_rat",
]
