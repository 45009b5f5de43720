"""Command-line interface.

Each subcommand delegates to exactly one core operation and prints a
deterministic result: identical invocations produce byte-identical
output.  Exit codes: 0 on success, 1 on domain errors (composite prime,
singular seed, node budget exhaustion, input over a size limit, ...)
and when the reader closes stdout before the output is written, 2 on
usage errors.

The subcommands are data: COMMANDS maps each name to its help text, its
flags in order, its handler and its --format choices.  build_parser()
turns the table into subparsers, adding --allow-large to every
subcommand with --precision and --format last.  main() runs the steps
the subcommands share, once and in this order: parse --poly, check a
required --prime (its primality test is charged against the work limit
first), and cap p^k when there is a --precision (at 2^256, or with
--allow-large at the interpreter's digit limit).  A handler
gets the parsed polynomial and prime, checks the work estimate of its
one library call (see work.py), makes the call and builds the payload
and the table lines.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Iterable, NamedTuple

from . import backward, congruence, hensel, work
from .errors import BudgetExceededError, NotPrimeError, PadicDynError
from .padic import _MR_WITNESSES, _SMALL_PRIMES, Prime, _miller_rabin_round, as_prime
from .parsing import parse_poly
from .polynomial import IntPoly

# p^k stays below this unless --allow-large is passed.
MAX_MODULUS = 2**256
# orbit computes at most this many steps.
MAX_STEPS = 10**6

ENV_MAX_NODES = "PADIC_DYN_MAX_NODES"


def _json_dumps(payload: dict) -> str:
    # table and dot output never load json
    import json
    return json.dumps(payload, indent=2)


def _parse_sequence(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise PadicDynError(f"{flag} must be a comma-separated list of integers")


def _check_printable(p: int, n: int) -> None:
    """Refuse p^n, without computing it, when it has more digits than
    the interpreter prints (its default limit when the limit is off)."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if n * math.log10(p) > limit:
        raise PadicDynError(
            f"{p}^{n} has more than {limit} digits, "
            "the interpreter's limit for printing an integer"
        )


def _check_modulus_size(p: int, k: int, allow_large: bool) -> None:
    # every residue mod p^k must still print; without --allow-large,
    # p >= 2, so k above 256 exceeds the cap without computing p^k
    if allow_large:
        _check_printable(p, k)
    elif k > 256 or p**k > MAX_MODULUS:
        raise PadicDynError(
            f"{p}^{k} exceeds the default modulus cap 2^256; pass --allow-large"
        )


def _as_prime(p: int) -> Prime:
    # the primality test alone takes seconds for a p of a few thousand
    # bits; its trial division by the primes below 256 does not, so a
    # composite they divide is rejected before the charge.  A test over
    # the limit first runs the rounds the limit pays for, each charged a
    # twelfth of work.prime, and reports a composite that fails one as
    # not prime; a p that passes them all, or that no round fits, is
    # refused.  (One round is not enough: every 2^q - 1 with q prime
    # passes the round to base 2, composite or not.)
    if not any(p % q == 0 for q in _SMALL_PRIMES):
        steps = work.prime(p)
        fit = _MR_WITNESSES[: work.MAX_WORK * len(_MR_WITNESSES) // steps]
        if steps > work.MAX_WORK and not all(_miller_rabin_round(p, a) for a in fit):
            raise NotPrimeError(f"{p} is not prime")
        work.check(steps, "the primality test")
    return as_prime(p)


def _root_dict(r: congruence.RootModP) -> dict:
    return {
        "residue": r.residue,
        "singular": r.singular,
        "derivative_residue": r.derivative_residue,
    }


def _cmd_roots(args, f: IntPoly, prime: Prime) -> tuple[dict, list[str]]:
    work.check(work.roots(f, prime.p), "root finding")
    roots = congruence.roots_mod_p(f, args.target, prime)
    degenerate = congruence.congruence_is_identically_zero(f, args.target, prime)
    payload = {
        "poly": f.coeff_list(),
        "prime": prime.p,
        "target": args.target,
        "roots": [_root_dict(r) for r in roots],
        "degenerate": degenerate,
    }
    lines = [
        f"{r.residue} {'singular' if r.singular else 'nonsingular'} "
        f"derivative={r.derivative_residue}"
        for r in roots
    ] or ["no roots"]
    if degenerate:
        lines.append("degenerate: every residue solves the congruence")
    return payload, lines


def _cmd_oracle(args, f: IntPoly, prime: None) -> tuple[dict, list[str]]:
    # a modulus outside [2, the oracle's bound] is refused before any work
    m = min(max(args.modulus, 2), congruence.DEFAULT_ORACLE_BOUND)
    work.check(work.oracle(f, m), "the oracle's scan")
    solutions = congruence.solve_congruence_bruteforce(
        f, args.target, args.modulus, max_solutions=work.MAX_SOLUTIONS
    )
    payload = {
        "poly": f.coeff_list(),
        "modulus": args.modulus,
        "target": args.target,
        "solutions": solutions,
    }
    return payload, [" ".join(map(str, solutions)) if solutions else "no solutions"]


def _cmd_lift(args, f: IntPoly, prime: Prime) -> tuple[dict, Iterable[str]]:
    work.check(work.ladder(f, prime.p, args.precision), "the lift and its ladder")
    lifted = hensel.hensel_lift(f, args.seed, args.precision, prime, target=args.target)
    ladder, digits = lifted.ladder, lifted.digits
    payload = {
        "poly": f.coeff_list(),
        "prime": prime.p,
        "precision": args.precision,
        "seed": args.seed,
        "target": args.target,
        "ladder": list(ladder),
        "root": lifted.root,
        "digits": list(digits),
    }
    # lazy, as the ladder's k numbers of up to k digits each take as long
    # to print again as the JSON does
    lines = (
        f"{name}: " + " ".join(map(str, values))
        for name, values in (("ladder", ladder), ("digits", digits))
    )
    return payload, lines


def _cmd_preimages(args, f: IntPoly, prime: Prime) -> tuple[dict, list[str]]:
    work.check(work.preimages(f, prime.p, args.precision), "the backward step")
    # preimages checks the precision before the CLI computes p^k from it
    lifted, singular = backward.preimages(f, args.target, prime, args.precision)
    target = args.target % prime.p**args.precision
    payload = {
        "poly": f.coeff_list(),
        "prime": prime.p,
        "precision": args.precision,
        "target": target,
        "lifted": lifted,
        "singular": [_root_dict(r) for r in singular],
    }
    lines = [
        "lifted: " + (" ".join(map(str, lifted)) if lifted else "none"),
        "singular: "
        + (" ".join(str(r.residue) for r in singular) if singular else "none"),
    ]
    return payload, lines


def _resolve_node_budget(args) -> int:
    if args.max_nodes is not None:
        return args.max_nodes
    env_budget = os.environ.get(ENV_MAX_NODES)
    if env_budget is None:
        return backward.DEFAULT_NODE_BUDGET
    try:
        return int(env_budget)
    except ValueError:
        raise PadicDynError(f"{ENV_MAX_NODES} must be an integer, got {env_budget!r}")


def _cmd_tree(args, f: IntPoly, prime: Prime) -> tuple[dict | None, list[str]]:
    budget = _resolve_node_budget(args)
    # a tree of depth 0 is its seed alone
    cap = work.tree_nodes(f, prime.p, args.precision) if args.depth > 0 else budget
    tree = backward.backward_tree(
        f, args.seed, prime, args.precision, args.depth, max_nodes=min(budget, cap)
    )
    if not tree.complete:
        message = f"node budget exhausted after {len(tree)} nodes"
        if cap < budget:
            message += f"; the work limit allows {cap} nodes here"
        raise BudgetExceededError(message)
    if args.format == "json":
        return tree.to_json_dict(), []
    if args.format == "dot":
        return None, [tree.to_dot().rstrip("\n")]
    lines = [
        f"{n.id} depth={n.depth} value={n.value} status={n.status} "
        f"parent={'-' if n.parent is None else n.parent}"
        for n in tree.nodes
    ]
    return None, lines


def _cmd_orbit(args, f: IntPoly, prime: Prime) -> tuple[dict, list[str]]:
    if args.steps > MAX_STEPS:
        raise PadicDynError(f"--steps {args.steps} exceeds the limit {MAX_STEPS}")
    work.check(work.orbit(f, prime.p, args.precision, args.steps), "the orbit")
    orbit = backward.forward_orbit(f, args.seed, prime, args.precision, args.steps)
    payload = {
        "poly": f.coeff_list(),
        "prime": prime.p,
        "precision": args.precision,
        "start": args.seed,
        "steps": args.steps,
        "orbit": list(orbit.terms),
        "preperiodic": orbit.preperiodic,
        "tail_length": orbit.tail_length,
        "cycle_length": orbit.cycle_length,
    }
    lines = [" ".join(map(str, orbit.terms))]
    if orbit.preperiodic:
        lines.append(
            f"preperiodic tail={orbit.tail_length} cycle={orbit.cycle_length}"
        )
    else:
        lines.append("no repeat within the computed terms")
    return payload, lines


def _cmd_dist(args, f: None, prime: None) -> tuple[dict, list[str]]:
    s = _parse_sequence(args.s, "--s")
    t = _parse_sequence(args.t, "--t")
    if args.metric == "series":
        if args.prime is None:
            raise PadicDynError("--prime is required for the series metric")
        prime = _as_prime(args.prime)
        # the distance's denominator is p^(n-1)
        _check_printable(prime.p, len(s) - 1)
        d = backward.distance_series(s, t, prime)
    else:
        d = backward.distance_first_difference(s, t)
    payload = {
        "metric": args.metric,
        "prime": args.prime,
        "s": s,
        "t": t,
        "distance": str(d),
    }
    return payload, [str(d)]


# add_argument keywords of the flags in COMMANDS.
POLY = {
    "required": True,
    "help": "polynomial in x, e.g. 'x^2 - 7x + 2' or '(x+1)^2'; "
    "'^' binds tighter than '*' (explicit or implicit, as in 7x), "
    "which binds tighter than '+'/'-'; unary minus allowed",
}
INT = {"type": int, "required": True}
TARGET = {"type": int, "default": 0}
SEQUENCE = {"required": True, "help": "comma-separated integers"}
METRIC = {"choices": ["series", "first-diff"], "default": "series"}
MAX_NODES = {
    "type": int,
    "default": None,
    "help": f"node budget (default {backward.DEFAULT_NODE_BUDGET}, "
    f"overridable via the {ENV_MAX_NODES} environment variable)",
}


class Command(NamedTuple):
    # flags: each flag in order, with its add_argument keywords;
    # handler(args, f, prime) returns the JSON payload and the table lines;
    # main reads the payload only for --format json, so a handler whose
    # payload is costly (tree) builds just the one its format prints
    help: str
    handler: Callable[..., tuple[dict | None, Iterable[str]]]
    flags: dict[str, dict]
    formats: tuple[str, ...] = ("json", "table")


COMMANDS = {
    "roots": Command("solve f(x) = target (mod p)", _cmd_roots,
                     {"--poly": POLY, "--prime": INT, "--target": TARGET}),
    "oracle": Command("brute-force f(x) = target (mod m) for any modulus", _cmd_oracle,
                      {"--poly": POLY, "--modulus": INT, "--target": TARGET}),
    "lift": Command("Hensel-lift a nonsingular root mod p to precision p^k", _cmd_lift,
                    {"--poly": POLY, "--prime": INT, "--precision": INT,
                     "--seed": INT, "--target": TARGET}),
    "preimages": Command("one backward step mod p^k", _cmd_preimages,
                         {"--poly": POLY, "--prime": INT, "--precision": INT,
                          "--target": INT}),
    "tree": Command("iterated preimage tree mod p^k", _cmd_tree,
                    {"--poly": POLY, "--prime": INT, "--precision": INT,
                     "--seed": INT, "--depth": INT, "--max-nodes": MAX_NODES},
                    ("json", "dot", "table")),
    "orbit": Command("forward orbit mod p^k with cycle detection", _cmd_orbit,
                     {"--poly": POLY, "--prime": INT, "--precision": INT,
                      "--seed": INT, "--steps": INT}),
    "dist": Command("distance between two residue sequences", _cmd_dist,
                    {"--s": SEQUENCE, "--t": SEQUENCE, "--metric": METRIC,
                     "--prime": {"type": int, "default": None}}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicdyn",
        description="Backward orbits of integer polynomials over the p-adic "
        "integers: congruence solving, Hensel lifting, preimage trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for flag, keywords in command.flags.items():
            cmd.add_argument(flag, **keywords)
        if "--precision" in command.flags:
            cmd.add_argument("--allow-large", action="store_true")
        cmd.add_argument(
            "--format", choices=command.formats, default="json", help="output format"
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        f = parse_poly(args.poly) if "--poly" in command.flags else None
        # dist's --prime is optional; only its series metric checks it
        required_prime = command.flags.get("--prime", {}).get("required")
        prime = _as_prime(args.prime) if required_prime else None
        if "--precision" in command.flags:
            _check_modulus_size(prime.p, args.precision, args.allow_large)
        payload, table_lines = command.handler(args, f, prime)
        # inside the try: str() of an int past sys.get_int_max_str_digits()
        # raises ValueError
        if args.format == "json":
            text = _json_dumps(payload)
        else:
            text = "\n".join(table_lines)
        code = 0
    except (PadicDynError, ValueError) as exc:
        if args.format != "json":
            print(f"error: {exc}", file=sys.stderr)
            return 1
        text = _json_dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})
        code = 1
    try:
        print(text)
    except BrokenPipeError:
        # the reader closed stdout early; point it at os.devnull, so that
        # flushing what is left at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
