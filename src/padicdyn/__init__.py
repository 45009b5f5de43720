"""Backward orbits of integer polynomials over the p-adic integers.

Congruences f(x) = c (mod p^k) are solved by finding roots mod p and
Hensel-lifting the nonsingular ones; iterating the step backward builds
preimage trees whose root-to-leaf paths are coherent residue sequences,
i.e. truncated elements of Z_p.

`import padicdyn` loads no submodule.  _EXPORTS names each public name
once, under the module that defines it; the module __getattr__ (PEP 562)
imports that module on the first use of one of its names and keeps the
name here, so `from padicdyn import parse_poly` loads only the parser
and what it imports.  A submodule name such as padicdyn.backward
resolves the same way.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "backward": (
        "BackwardTree", "OrbitResult", "backward_tree",
        "distance_first_difference", "distance_series", "forward_orbit",
        "preimages",
    ),
    "congruence": (
        "DEFAULT_NODE_BUDGET", "DEFAULT_ORACLE_BOUND", "RootModP",
        "congruence_is_identically_zero", "roots_mod_p",
        "solve_congruence_bruteforce",
    ),
    "errors": (
        "BudgetExceededError", "NotARootError", "NotAUnitError",
        "NotPrimeError", "PadicDynError", "PolyParseError",
        "SingularRootError",
    ),
    "hensel": ("LiftedRoot", "hensel_lift", "hensel_step"),
    # a dataclass: `dataclasses` loads with the first tree
    "node": ("BackwardNode",),
    "padic": (
        "CoherentSequence", "INFINITY", "PadicInt", "Prime", "abs_p",
        "as_prime", "check_coherent", "is_prime", "vp_int", "vp_rat",
    ),
    "parsing": ("parse_poly",),
    "polynomial": (
        "FpPoly", "IntPoly", "divides_xp_minus_x", "eval_mod",
        "fermat_reduce", "format_poly", "fp_divmod", "make_monic",
        "reduce_mod_p",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
        value = getattr(module, name)
    else:
        try:
            value = importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            # no submodule of that name; a failed import inside one propagates
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}"
            ) from None
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
