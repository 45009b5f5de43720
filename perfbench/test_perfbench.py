"""Tests of the benchmark itself: seeded inputs, correctness checks and
self-time arithmetic.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import contextlib
import dataclasses
import io
import json
import subprocess

import pytest

import run
import spans
import workloads
from padicdyn import backward, cli


@pytest.fixture(scope="module")
def made():
    return {cls.name: cls(7) for cls in workloads.WORKLOADS.values()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed_and_index(made, name):
    again = workloads.WORKLOADS[name](7)
    for i in (0, 1, 5, made[name].pool_size + 2):
        assert made[name].input(i) == again.input(i)
    other = workloads.WORKLOADS[name](workloads.HOLDOUT_SEED)
    assert [other.input(i) for i in range(6)] != [again.input(i) for i in range(6)]


def test_inputs_do_not_repeat_within_a_run(made):
    for cls in workloads.WORKLOADS.values():
        seen = []
        for part in range(3):
            wl = cls(7, part)
            seen += [repr(wl.generate(-wl.offset - j)) for j in range(1, wl.warmup_calls + 1)]
            seen += [repr(wl.input(i)) for i in range(wl.pool_size + 5)]
        assert len(set(seen)) == len(seen)


def _corrupt_tree(tree, node_id, delta):
    nodes = list(tree.nodes)
    nodes[node_id] = dataclasses.replace(nodes[node_id], value=nodes[node_id].value + delta)
    return backward.BackwardTree(tree.prime, tree.precision, tree.polynomial, tree.seed,
                                 tree.max_depth, nodes, {}, tree.complete)


@pytest.mark.parametrize("i", [0, 1])
def test_tree_check_rejects_a_child_off_by_p_to_k_minus_1(made, i):
    wl = made["tree_smallp"]
    inp = wl.input(i)
    tree, text, dot = wl.call(inp)
    assert wl.check(inp, (tree, text, dot))
    lifted = next(n.id for n in tree.nodes[1:] if n.status != "singular-leaf")
    bad = _corrupt_tree(tree, lifted, wl.P ** (wl.K - 1))
    assert not wl.check(inp, (bad, text, dot))
    assert not wl.check(inp, (tree, text, dot.replace(" -> ", " ", 1)))


def test_step_check_rejects_a_root_off_by_p_to_k_minus_1(made):
    wl = made["step_largep"]
    inp = wl.input(1)
    lifted, singular = wl.call(inp)
    assert wl.check(inp, (lifted, singular))
    p, k = inp[2], inp[3]
    assert not wl.check(inp, ([lifted[0] + p ** (k - 1)] + lifted[1:], singular))
    assert not wl.check(inp, (lifted[1:], singular))


def test_oracle_check_rejects_missing_or_wrong_solutions(made):
    wl = made["oracle_scan"]
    inp = wl.input(2)
    sols = wl.call(inp)
    assert wl.check(inp, sols)
    r = inp[3]
    assert not wl.check(inp, [x for x in sols if x != r])
    assert not wl.check(inp, sorted(sols + [(r + 1) % inp[2]]))


def _cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return subprocess.CompletedProcess(argv, code, buf.getvalue(), "")


@pytest.mark.parametrize("i", range(14))
def test_cli_check_accepts_real_output_and_rejects_corruption(made, i):
    wl = made["cli_cold"]
    inp = wl.input(i)
    proc = _cli_stdout(inp[0])
    assert wl.check(inp, proc)
    assert not wl.check(inp, subprocess.CompletedProcess(inp[0], 1, proc.stdout, ""))
    if inp[0][-1] == "--format=json":
        payload = json.loads(proc.stdout)
        extra = dict(payload, extra=1)  # violates additionalProperties
        assert not wl.check(inp, subprocess.CompletedProcess(
            inp[0], 0, json.dumps(extra), ""))
    # The real output for another input of the same subcommand and format.
    assert not wl.check(wl.input(i + 14), proc)


def test_lift_check_rejects_a_root_off_by_p_to_k_minus_1(made):
    wl = made["cli_cold"]
    inp = next(wl.input(i) for i in range(14) if wl.input(i)[0][0] == "lift"
               and wl.input(i)[0][-1] == "--format=json")
    payload = json.loads(_cli_stdout(inp[0]).stdout)
    args = dict(a.split("=", 1) for a in inp[0][1:])
    p, k = int(args["--prime"]), int(args["--precision"])
    payload["ladder"][-1] = payload["root"] = payload["root"] + p ** (k - 1)
    bad = subprocess.CompletedProcess(inp[0], 0, json.dumps(payload), "")
    assert not wl.check(inp, bad)


def test_self_times_on_nested_spans():
    # call [0, 10) holds a [1, 6) and a [7, 9); the first a holds b [2, 4).
    trace = [("call", 0.0, 10.0, -1), ("a", 1.0, 6.0, 0), ("b", 2.0, 4.0, 1),
             ("a", 7.0, 9.0, 0)]
    got = spans.self_times(trace)
    assert got == {"call": [1, 3.0], "a": [2, 5.0], "b": [1, 2.0]}
    assert sum(v[1] for v in got.values()) == 10.0


def test_tracer_wraps_every_lookup_site_and_restores_it():
    import padicdyn
    from padicdyn import congruence, hensel, parse_poly

    original = congruence.roots_mod_p
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert backward.roots_mod_p is congruence.roots_mod_p is padicdyn.roots_mod_p
        assert backward.roots_mod_p is not original
        tracer.span("call", backward.backward_tree, parse_poly("x^2"), 1, 7, 2, 2)
    finally:
        tracer.uninstall()
    assert backward.roots_mod_p is original and hensel.hensel_step.__name__ == "hensel_step"
    summary = tracer.summary()
    calls = {name: v[0] for name, v in summary["self"].items()}
    assert calls["call"] == calls["backward.backward_tree"] == 1
    assert calls["congruence.roots_mod_p"] == calls["backward.preimages"]
    assert summary["counts"]["hensel.hensel_step"] == summary["sizes"]["hensel.hensel_lift"]
    top = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(v[1] for v in summary["self"].values()) == pytest.approx(top)


def test_tail_is_the_eleventh_largest_sample_per_window():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 1)
    # Two windows of 200: 11th largest of each is 189 and 389.
    assert run.tail([float(i) for i in range(400)]) == (289.0, 95.0, 2)
