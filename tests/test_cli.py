import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import padicdyn
from padicdyn import cli
from padicdyn.cli import main
from padicdyn.schemas import SCHEMAS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def run_python(*args, timeout=5):
    """Run a fresh interpreter with the package importable, as a user
    runs the CLI; a memory cap keeps a runaway child from growing large."""
    env = dict(os.environ, PYTHONPATH=str(Path(padicdyn.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=timeout, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
    )


def loads_numpy(code):
    proc = run_python("-c", code + "\nimport sys; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


class TestSubcommands:
    def test_oracle_paper_example(self, capsys):
        code, payload = run_json(
            capsys, "oracle", "--poly", "x^2-7x+2", "--modulus", "10"
        )
        assert code == 0
        assert payload["solutions"] == [3, 4, 8, 9]
        jsonschema.validate(payload, SCHEMAS["oracle"])

    def test_roots(self, capsys):
        code, payload = run_json(
            capsys, "roots", "--poly", "x^2", "--prime", "7", "--target", "2"
        )
        assert code == 0
        assert [r["residue"] for r in payload["roots"]] == [3, 4]
        assert payload["degenerate"] is False
        jsonschema.validate(payload, SCHEMAS["roots"])

    def test_lift_ladder(self, capsys):
        code, payload = run_json(
            capsys,
            "lift", "--poly", "x^2-2", "--prime", "7", "--precision", "3",
            "--seed", "3",
        )
        assert code == 0
        assert payload["ladder"] == [3, 10, 108]
        assert payload["root"] == 108
        assert payload["digits"] == [3, 1, 2]
        jsonschema.validate(payload, SCHEMAS["lift"])

    def test_preimages(self, capsys):
        code, payload = run_json(
            capsys,
            "preimages", "--poly", "x^2", "--prime", "7", "--precision", "2",
            "--target", "2",
        )
        assert code == 0
        assert payload["lifted"] == [10, 39]
        assert payload["singular"] == []
        jsonschema.validate(payload, SCHEMAS["preimages"])

    def test_tree_json(self, capsys):
        code, payload = run_json(
            capsys,
            "tree", "--poly", "x^2", "--prime", "7", "--precision", "1",
            "--seed", "2", "--depth", "2",
        )
        assert code == 0
        assert len(payload["nodes"]) == 5
        assert payload["complete"] is True
        jsonschema.validate(payload, SCHEMAS["tree"])

    def test_tree_dot(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "tree", "--poly", "x^2", "--prime", "7", "--precision", "1",
            "--seed", "2", "--depth", "2", "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph backward_tree {")
        assert out.count("label=") == 5
        assert out.count("->") == 4

    def test_orbit(self, capsys):
        code, payload = run_json(
            capsys,
            "orbit", "--poly", "x^2", "--prime", "7", "--precision", "1",
            "--seed", "3", "--steps", "3",
        )
        assert code == 0
        assert payload["orbit"] == [3, 2, 4, 2]
        assert payload["preperiodic"] is True
        assert payload["tail_length"] == 1
        assert payload["cycle_length"] == 2
        jsonschema.validate(payload, SCHEMAS["orbit"])

    def test_dist_series(self, capsys):
        code, payload = run_json(
            capsys, "dist", "--s", "0,2,0", "--t", "0,0,1", "--prime", "5"
        )
        assert code == 0
        assert payload["distance"] == "11/25"
        jsonschema.validate(payload, SCHEMAS["dist"])

    def test_dist_first_diff(self, capsys):
        code, payload = run_json(
            capsys, "dist", "--s", "1,2,3,4", "--t", "1,2,3,9",
            "--metric", "first-diff",
        )
        assert code == 0
        assert payload["distance"] == "1/8"
        jsonschema.validate(payload, SCHEMAS["dist"])

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--poly", "x^2-7x+2", "--modulus", "10",
            "--format", "table",
        )
        assert code == 0
        assert out == "3 4 8 9\n"


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        argv = [
            "tree", "--poly", "x^2-2", "--prime", "7", "--precision", "3",
            "--seed", "2", "--depth", "3",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        _, dot1, _ = run_cli(capsys, *argv, "--format", "dot")
        _, dot2, _ = run_cli(capsys, *argv, "--format", "dot")
        assert dot1 == dot2


class TestLargePrime:
    def test_roots_at_a_ten_digit_prime_finishes(self):
        # a cold process, as a user runs it; the O(p) scan this replaces
        # did not finish within 10 s
        proc = run_python(
            "-m", "padicdyn.cli", "roots", "--poly", "x^2-2", "--prime", "1000000007"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert [r["residue"] for r in payload["roots"]] == [59713600, 940286407]
        jsonschema.validate(payload, SCHEMAS["roots"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["roots", "--poly", "1000000007x", "--prime", "1000000007"],
            ["preimages", "--poly", "1000000007x^2+5", "--prime", "1000000007",
             "--precision", "2", "--target", "5"],
            ["tree", "--poly", "1000000007x^2+5", "--prime", "1000000007",
             "--precision", "1", "--seed", "5", "--depth", "2"],
        ],
        ids=["roots", "preimages", "tree"],
    )
    def test_degenerate_congruence_is_refused_at_once(self, argv):
        # every one of the 10^9 + 7 residues is a root; listing them would
        # build one object per residue
        proc = run_python("-m", "padicdyn.cli", *argv, timeout=1)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert "every residue mod 1000000007" in payload["error"]["message"]

    def test_degenerate_congruence_at_small_prime_lists_every_residue(self, capsys):
        code, payload = run_json(capsys, "roots", "--poly", "7x", "--prime", "7")
        assert code == 0
        assert payload["degenerate"] is True
        assert [r["residue"] for r in payload["roots"]] == list(range(7))


class TestParserLimits:
    @pytest.mark.parametrize(
        "poly",
        ["(" * 5000 + "x" + ")" * 5000, "((x+1)^1000)^1000", "(x+1)^10000",
         "(99^10000)^10000"],
        ids=["deep-nesting", "huge-degree", "huge-expansion", "huge-constant"],
    )
    def test_runaway_polynomial_is_a_parse_error(self, poly):
        # each used to end in a RecursionError traceback or a hang
        proc = run_python(
            "-m", "padicdyn.cli", "roots", "--poly", poly, "--prime", "7", timeout=1
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"]["type"] == "PolyParseError"


class TestWorkLimits:
    @pytest.mark.parametrize("precision", ["10000000", "1000000000"])
    def test_modulus_cap_refuses_without_computing_the_power(self, precision):
        # computing 7^k first took 10 s at k = 10^7 and longer at 10^9
        proc = run_python(
            "-m", "padicdyn.cli", "lift", "--poly", "x", "--prime", "7",
            "--precision", precision, "--seed", "0", timeout=1,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"]["message"] == (
            f"7^{precision} exceeds the default modulus cap 2^256; pass --allow-large"
        )

    def test_orbit_steps_are_capped(self, capsys, monkeypatch):
        # 10^8 steps had not finished after 10 s
        proc = run_python(
            "-m", "padicdyn.cli", "orbit", "--poly", "x^2+1", "--prime", "7",
            "--precision", "3", "--seed", "1", "--steps", "100000000", timeout=1,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert "--steps 100000000 exceeds the limit" in payload["error"]["message"]
        monkeypatch.setattr(cli, "MAX_STEPS", 5)
        argv = ["orbit", "--poly", "x", "--prime", "2", "--precision", "1",
                "--seed", "0", "--steps"]
        code, payload = run_json(capsys, *argv, "6")
        assert code == 1
        assert payload["error"]["message"] == "--steps 6 exceeds the limit 5"
        code, payload = run_json(capsys, *argv, "5")
        assert code == 0
        assert payload["orbit"] == [0] * 6


    def test_negative_precision_is_a_domain_error(self):
        # p^-1 is a float, which ended in a TypeError traceback
        proc = run_python(
            "-m", "padicdyn.cli", "preimages", "--poly", "x", "--prime", "7",
            "--precision", "-1", "--target", "2", timeout=1,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"] == {
            "type": "ValueError", "message": "precision must be at least 1"
        }

    def test_output_past_the_int_digit_limit_is_a_domain_error(self):
        # the target, -1 mod 2^(10^7), has about 3 * 10^6 digits; printing
        # the payload raised outside main's try: a traceback, empty stdout
        proc = run_python(
            "-m", "padicdyn.cli", "preimages", "--poly", "49x^2", "--prime", "2",
            "--precision", "10000000", "--target", "-1", "--allow-large",
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"]["type"] == "ValueError"

    def test_series_distance_past_the_int_digit_limit_is_refused(self):
        # 1000003^4999 has about 30 000 digits; summing 5000 Fractions
        # first took over 20 s
        s, t = ",".join(["1"] * 5000), ",".join(["2"] * 5000)
        proc = run_python(
            "-m", "padicdyn.cli", "dist", "--s", s, "--t", t, "--prime", "1000003",
            timeout=1,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMAS["error"])
        assert payload["error"]["type"] == "PadicDynError"
        assert "1000003^4999 has more than" in payload["error"]["message"]

    def test_series_distance_up_to_the_int_digit_limit_prints(self, capsys):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("no digit limit in this interpreter")
        # 7^n has floor(n log10 7) + 1 digits, at most `limit` up to n_max
        n_max = int(limit / math.log10(7))
        for n, code in [(n_max, 0), (n_max + 1, 1)]:
            s, t = ",".join(["0"] * (n + 1)), ",".join(["0"] * n + ["1"])
            got, payload = run_json(capsys, "dist", "--s", s, "--t", t, "--prime", "7")
            assert got == code
            if code == 0:
                assert payload["distance"] == f"1/{7**n}"


class TestDispatcher:
    def test_shared_steps_are_looked_up_at_call_time(self, capsys, monkeypatch):
        # perfbench's tracer counts calls by patching these module attributes
        calls = []

        def counting(name):
            real = getattr(cli, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(cli, name, wrapper)

        for name in ["parse_poly", "as_prime", "_check_modulus_size"]:
            counting(name)
        code, _, _ = run_cli(
            capsys, "lift", "--poly", "x^2-2", "--prime", "7", "--precision", "3",
            "--seed", "3",
        )
        assert code == 0
        assert calls == ["parse_poly", "as_prime", "_check_modulus_size"]
        calls.clear()
        run_cli(capsys, "oracle", "--poly", "x^2", "--modulus", "10")
        assert calls == ["parse_poly"]
        calls.clear()
        run_cli(capsys, "dist", "--s", "1", "--t", "2", "--metric", "first-diff",
                "--prime", "4")
        assert calls == []


class TestLazyNumpy:
    def test_importing_the_package_and_cli_skips_numpy(self):
        assert not loads_numpy("import padicdyn, padicdyn.cli")

    def test_oracle_below_the_cutoff_skips_numpy(self):
        assert not loads_numpy(
            "from padicdyn import cli\n"
            "cli.main(['oracle', '--poly=5x^2-7x+3', '--modulus=9999', '--target=1'])"
        )

    def test_oracle_at_the_cutoff_loads_numpy(self):
        assert loads_numpy(
            "from padicdyn import congruence, parse_poly\n"
            "congruence.solve_congruence_bruteforce("
            "parse_poly('x^2+1'), 0, congruence._VECTOR_MIN)"
        )


class TestErrors:
    def test_composite_prime_is_domain_error(self, capsys):
        code, payload = run_json(capsys, "roots", "--poly", "x", "--prime", "9")
        assert code == 1
        assert payload["error"]["type"] == "NotPrimeError"
        jsonschema.validate(payload, SCHEMAS["error"])

    def test_singular_seed_is_domain_error(self, capsys):
        code, payload = run_json(
            capsys,
            "lift", "--poly", "x^2", "--prime", "5", "--precision", "3",
            "--seed", "0",
        )
        assert code == 1
        assert payload["error"]["type"] == "SingularRootError"

    def test_non_root_seed_is_domain_error(self, capsys):
        code, payload = run_json(
            capsys,
            "lift", "--poly", "x^2-2", "--prime", "7", "--precision", "3",
            "--seed", "1",
        )
        assert code == 1
        assert payload["error"]["type"] == "NotARootError"

    def test_parse_error_is_domain_error(self, capsys):
        code, payload = run_json(capsys, "roots", "--poly", "x^^2", "--prime", "7")
        assert code == 1
        assert payload["error"]["type"] == "PolyParseError"

    def test_budget_exhaustion_is_domain_error(self, capsys):
        code, payload = run_json(
            capsys,
            "tree", "--poly", "x^2", "--prime", "7", "--precision", "1",
            "--seed", "2", "--depth", "6", "--max-nodes", "3",
        )
        assert code == 1
        assert payload["error"]["type"] == "BudgetExceededError"

    def test_env_var_overrides_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("PADIC_DYN_MAX_NODES", "3")
        code, payload = run_json(
            capsys,
            "tree", "--poly", "x^2", "--prime", "7", "--precision", "1",
            "--seed", "2", "--depth", "6",
        )
        assert code == 1
        assert payload["error"]["type"] == "BudgetExceededError"
        # explicit flag wins over the environment
        code, payload = run_json(
            capsys,
            "tree", "--poly", "x^2", "--prime", "7", "--precision", "1",
            "--seed", "2", "--depth", "2", "--max-nodes", "100",
        )
        assert code == 0

    def test_oversized_modulus_needs_allow_large(self, capsys):
        argv = [
            "lift", "--poly", "x-1", "--prime", "2", "--precision", "300",
            "--seed", "1",
        ]
        code, payload = run_json(capsys, *argv)
        assert code == 1
        assert "--allow-large" in payload["error"]["message"]
        code, payload = run_json(capsys, *argv, "--allow-large")
        assert code == 0
        assert payload["root"] == 1

    def test_table_errors_go_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "roots", "--poly", "x", "--prime", "9", "--format", "table"
        )
        assert code == 1
        assert out == ""
        assert "not prime" in err

    def test_usage_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--poly", "x"])  # missing --prime
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--poly", "x", "--modulus", "10", "--format", "dot"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["unknown-command"])
        assert exc.value.code == 2
