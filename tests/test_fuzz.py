"""Seeded CLI fuzzer and the format/parse round trip.

The fuzzer builds argv lists from `cli.COMMANDS`: each subcommand with
its flags, --allow-large where there is a --precision, and --format,
with values drawn from edge cases; now and then a required flag is left
out or a value is malformed.  Each list runs in-process through
`cli.main` under a 2 s alarm and must end in one of three ways:

- exit 0;
- exit 1 with `{"error": {"type", "message"}}` on stdout under
  `--format json` (an `error:` line on stderr otherwise);
- SystemExit(2), argparse's usage error.

A listing of every residue at the largest prime the roots refusal
allows takes about 1 s, and so does a call at the CLI's work limit,
hence 2 s and not 1 s.  The inputs include the default tree node
budget, accepted polynomials up to degree 10^4, dense and sparse, and
numbers whose primality test alone takes seconds.
"""

import contextlib
import io
import json
import random
import signal

import jsonschema
import pytest

from padicdyn import IntPoly, cli, format_poly, parse_poly
from padicdyn.schemas import SCHEMAS

LIMIT_S = 2.0
RUNS = 500

INTS = [0, 1, 2, 3, 7, 9, -1, -7, 256, 257, 99991, 100003, 1000003,
        10**7, 10**9 + 7, -(10**9 + 7),
        # a prime whose primality test takes about 30 s, and a 4300-digit
        # composite with no factor up to 37, which trial division by 41
        # rejects (its Miller-Rabin test would take about 8 s)
        2**9689 - 1, 41 * (10**4298 + 7)]
PRECISIONS = [-1, 0, 1, 2, 3, 256, 257, 5000, 20000, 10**9 + 7]
NODE_BUDGETS = [-1, 0, 1, 3, 100, 2000, 100000]
POLYS = [
    "0", "x", "x^2", "x^2-2", "7x", "x^7-x", "-x^3+x+1", "5x^2+10",
    "1000000007x", "1000003x^2+5", "99991x+3", "(2^1000)^1000",
    # degree 1000 to 10^4: dense, sparse, and every coefficient
    # divisible by 99991
    "(x+1)^1000", "(x^2+1)^500", "x^1000+x+1", "x^10000", "x^10000-x",
    "(x^100+1)^98(" + "+".join(f"x^{i}" for i in range(100)) + ")",
    "99991(x+1)^1000",
    # long sums and chains: degree 100, then the parse-budget probes
    " + ".join(f"x^{i}" for i in range(100, 0, -1)) + " + 1",
    " + ".join(f"x^{i}" for i in range(4000, 0, -1)),
    "+".join(["(x+1)^1000"] * 10),
    "+".join(["1"] * 3000),
    "x^9999" + "*1" * 3000,
    "-" * 1000 + "x",
    # deep nesting, at and past the limit
    "(" * 100 + "x+1" + ")" * 100,
    "(" * 101 + "x" + ")" * 101,
    "x^10001", "(x+1)^1024", "x^^2", "", "2 3", "x +", "x^-1", "3 $ 4",
]


class _Timeout(Exception):
    pass


def _int_value(rng: random.Random, flag: str) -> str:
    roll = rng.random()
    if roll < 0.01:
        return rng.choice(["abc", "1.5", ""])
    if roll < 0.5:
        # small values, so that some calls get past the checks
        if flag == "--prime":
            return str(rng.choice([2, 3, 5, 7, 11, 13]))
        return str(rng.randint(-2, 30))
    if flag == "--precision":
        return str(rng.choice(PRECISIONS))
    if flag == "--max-nodes":
        return str(rng.choice(NODE_BUDGETS))
    return str(rng.choice(INTS))


def _sequence(rng: random.Random, n: int) -> str:
    return ",".join(str(rng.choice(INTS + [0, 1, 2])) for _ in range(n))


def random_argv(rng: random.Random) -> list[str]:
    name = rng.choice(list(cli.COMMANDS))
    command = cli.COMMANDS[name]
    argv = [name]
    # --s and --t mostly get the same length, as the series metric needs
    length = rng.choice([0, 1, 3, 40, 5000])
    for flag, keywords in command.flags.items():
        if rng.random() < (0.01 if keywords.get("required") else 0.3):
            continue
        if flag == "--poly":
            value = rng.choice(POLYS)
        elif flag in ("--s", "--t"):
            value = _sequence(rng, length if rng.random() < 0.9 else length + 1)
        elif "choices" in keywords:
            value = rng.choice(keywords["choices"] + ["bogus"])
        else:
            value = _int_value(rng, flag)
        argv.append(f"{flag}={value}")
    if "--precision" in command.flags and rng.random() < 0.5:
        argv.append("--allow-large")
    if rng.random() < 0.7:
        fmt = rng.choice(command.formats) if rng.random() < 0.95 else "dot"
        argv.append("--format=" + fmt)
    return argv


def run_with_alarm(argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def alarm(monkeypatch):
    def on_alarm(signum, frame):
        raise _Timeout

    previous = signal.signal(signal.SIGALRM, on_alarm)
    # an omitted --max-nodes means the default budget
    monkeypatch.delenv(cli.ENV_MAX_NODES, raising=False)
    yield
    signal.signal(signal.SIGALRM, previous)


def test_every_argv_ends_in_the_error_contract(alarm):
    rng = random.Random(20261018)
    seen = set()
    for _ in range(RUNS):
        argv = random_argv(rng)
        label = " ".join(a[:60] for a in argv)
        try:
            code, out, err = run_with_alarm(argv)
        except _Timeout:
            pytest.fail(f"no exit within {LIMIT_S} s: {label}")
        assert code in (0, 1, 2), label
        if code == 2:
            assert out == "" and "usage:" in err, label
        elif code == 1:
            if "--format=table" in argv or "--format=dot" in argv:
                assert out == "" and err.startswith("error: "), label
            else:
                assert err == "", label
                jsonschema.validate(json.loads(out), SCHEMAS["error"])
        seen.add((argv[0], code))
    # every subcommand was reached, and ended each way at least once
    assert {name for name, _ in seen} == set(cli.COMMANDS)
    assert {code for _, code in seen} == {0, 1, 2}


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property then runs on seeded random polynomials
    given = None


def _check_round_trip(coeffs: list[int]) -> None:
    f = IntPoly(tuple(coeffs))
    assert parse_poly(format_poly(f)) == f


if given is not None:

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-(2**64), 2**64), max_size=30))
    def test_format_then_parse_is_the_identity(coeffs):
        _check_round_trip(coeffs)

else:

    def test_format_then_parse_is_the_identity():
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(0, 30)
            _check_round_trip([rng.randint(-(2**64), 2**64) for _ in range(n)])
