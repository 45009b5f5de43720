"""CLI golden set: fixed argv cases whose stdout must stay byte-identical.

`tests/golden/cli.json` holds, per case, the argv, the exit code and
the exact stdout.  The `--help` cases pin the argument parser itself;
argparse wraps help to the terminal width, so every case runs with
COLUMNS=80.  An intentional output change is re-recorded with

    PYTHONPATH=src python tests/test_golden.py

and the diff of the JSON file shows what changed.

Each case is named by its index in CASES, so a new case goes at the end.
"""

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import pytest

from padicdyn.cli import main
from padicdyn.schemas import SCHEMAS

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

CASES = [
    ["roots", "--poly", "x^2", "--prime", "7", "--target", "2"],
    ["roots", "--poly", "x^2-2", "--prime", "7", "--format", "table"],
    ["roots", "--poly", "x^3-x^2", "--prime", "5"],
    ["roots", "--poly", "x^7+3x^5+x+1", "--prime", "5", "--format", "table"],
    ["roots", "--poly", "x^3-x", "--prime", "3"],
    ["roots", "--poly", "5x^2+10", "--prime", "5", "--format", "table"],
    ["roots", "--poly", "x^3+x+1", "--prime", "10007", "--format", "table"],
    ["roots", "--poly", "x", "--prime", "9"],
    ["oracle", "--poly", "x^2-7x+2", "--modulus", "10"],
    ["oracle", "--poly", "x^3+1", "--modulus", "36", "--format", "table"],
    ["lift", "--poly", "x^2-2", "--prime", "7", "--precision", "1", "--seed", "3"],
    ["lift", "--poly", "x^2-2", "--prime", "7", "--precision", "40", "--seed", "3"],
    ["lift", "--poly", "3x^3-x+5", "--prime", "11", "--precision", "40",
     "--seed", "2", "--target", "-6", "--format", "table"],
    ["lift", "--poly", "x^2", "--prime", "5", "--precision", "3", "--seed", "0"],
    ["preimages", "--poly", "x^3-x^2", "--prime", "5", "--precision", "3",
     "--target", "0"],
    ["preimages", "--poly", "x^3-x^2", "--prime", "5", "--precision", "3",
     "--target", "0", "--format", "table"],
    ["preimages", "--poly", "x^2+1", "--prime", "3", "--precision", "4",
     "--target", "5"],
    ["tree", "--poly", "x^2", "--prime", "7", "--precision", "1", "--seed", "2",
     "--depth", "2"],
    ["tree", "--poly", "x^3-x^2", "--prime", "5", "--precision", "2",
     "--seed", "0", "--depth", "3", "--format", "dot"],
    ["tree", "--poly", "x^3-x^2", "--prime", "5", "--precision", "2",
     "--seed", "3", "--depth", "3", "--format", "dot"],
    ["tree", "--poly", "x^2-2", "--prime", "7", "--precision", "3", "--seed", "2",
     "--depth", "3", "--format", "table"],
    ["tree", "--poly", "x^2", "--prime", "7", "--precision", "1", "--seed", "2",
     "--depth", "6", "--max-nodes", "3"],
    ["orbit", "--poly", "x^2", "--prime", "7", "--precision", "1", "--seed", "3",
     "--steps", "3"],
    ["orbit", "--poly", "x^2+1", "--prime", "5", "--precision", "2", "--seed", "1",
     "--steps", "6", "--format", "table"],
    ["dist", "--s", "0,2,0", "--t", "0,0,1", "--prime", "5"],
    ["dist", "--s", "1,2,3,4", "--t", "1,2,3,9", "--metric", "first-diff",
     "--format", "table"],
    # --prime is optional for dist and only checked by the series metric
    ["dist", "--s", "1,2", "--t", "1,3", "--metric", "first-diff", "--prime", "4"],
    # shared steps fail in order: parse --poly, check --prime, cap p^k
    ["lift", "--poly", "x^^2", "--prime", "9", "--precision", "300", "--seed", "0"],
    ["lift", "--poly", "x", "--prime", "9", "--precision", "300", "--seed", "0"],
    ["lift", "--poly", "x", "--prime", "7", "--precision", "300", "--seed", "0"],
    ["--help"],
    *[[cmd, "--help"] for cmd in
      ["roots", "oracle", "lift", "preimages", "tree", "orbit", "dist"]],
    # translated powers whose constant is wider than p^k
    ["lift", "--poly",
     "(x+123456789012345678901234567890123456789012345678901234567)^3"
     "-123456789012345678901234567890123456789012345678901234567",
     "--prime", "7", "--precision", "33", "--seed", "3"],
    ["preimages", "--poly",
     "(x+98765432109876543210987654321098765432109876543210987654321098765432"
     "109876543210987654321)^2-9876543210987654321098765432109876543210987654"
     "3210987654321098765432109876543210987654321",
     "--prime", "257", "--precision", "17", "--target", "9"],
]


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    return code, buf.getvalue()


def record():
    os.environ["COLUMNS"] = "80"
    cases = []
    for argv in CASES:
        code, out = run(argv)
        cases.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")


def _load():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_cases():
    assert [c["argv"] for c in _load()] == CASES


@pytest.mark.parametrize(
    "i", range(len(CASES)), ids=[f"{i:02d}-{a[0]}" for i, a in enumerate(CASES)]
)
def test_stdout_is_byte_identical(i, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    case = _load()[i]
    code, out = run(case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])
    if "--format" not in case["argv"] and "--help" not in case["argv"]:
        name = case["argv"][0] if code == 0 else "error"
        jsonschema.validate(json.loads(out), SCHEMAS[name])


if __name__ == "__main__":
    record()
