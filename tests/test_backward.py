import dataclasses
import json
import math
import random
import time
from fractions import Fraction

import pytest

import padicdyn
from padicdyn import (
    backward,
    IntPoly,
    backward_tree,
    distance_first_difference,
    distance_series,
    eval_mod,
    forward_orbit,
    preimages,
    solve_congruence_bruteforce,
)
from helpers import exhaustive_roots, random_int_poly, tree_shape

SQUARE = IntPoly((0, 0, 1))


def random_tree_inputs(rng):
    p = rng.choice([2, 3, 5, 7])
    k = rng.randint(1, 3)
    depth = rng.randint(1, 4)
    f = random_int_poly(rng, 4, min_deg=1)
    seed = rng.randrange(p**k)
    return f, seed, p, k, depth


class TestPreimages:
    def test_two_lifted_roots(self):
        lifted, singular = preimages(SQUARE, 2, 7, 2)
        assert lifted == [10, 39]
        assert singular == []
        assert exhaustive_roots(SQUARE, 2, 49) == [10, 39]

    def test_nonresidue_has_no_preimages(self):
        lifted, singular = preimages(SQUARE, 3, 7, 2)
        assert lifted == [] and singular == []
        assert exhaustive_roots(SQUARE, 3, 7) == []

    def test_singular_root_left_unexpanded(self):
        lifted, singular = preimages(SQUARE, 0, 5, 2)
        assert lifted == []
        assert [r.residue for r in singular] == [0]

    def test_lifted_values_solve_the_congruence(self):
        rng = random.Random(89)
        for _ in range(100):
            f, seed, p, k, _ = random_tree_inputs(rng)
            target = rng.randrange(p**k)
            lifted, singular = preimages(f, target, p, k)
            for v in lifted:
                assert eval_mod(f, v, p**k) == target
            for r in singular:
                assert eval_mod(f, r.residue, p) == target % p
            # children are pairwise distinct mod p
            residues = [v % p for v in lifted] + [r.residue for r in singular]
            assert len(residues) == len(set(residues))

    def test_coefficients_matter_only_mod_p_to_the_k(self):
        # the lift cuts f mod p^k before its first stage: adding p^k * h,
        # with h's coefficients far wider than p^k, changes nothing
        rng = random.Random(97)
        for _ in range(100):
            f, _, p, k, _ = random_tree_inputs(rng)
            k += rng.randint(0, 6)
            target = rng.randrange(-(p ** (2 * k)), p ** (2 * k))
            h = random_int_poly(rng, 5, -(p ** (3 * k)), p ** (3 * k))
            assert preimages(f + p**k * h, target, p, k) == preimages(f, target, p, k)

    def test_wide_quadratics_match_the_oracle(self):
        # every solution mod p^k above a nonsingular root mod p is lifted,
        # and nothing else is
        rng = random.Random(101)
        for _ in range(60):
            p = rng.choice([2, 3, 5, 7, 11, 13, 101, 997])
            k = rng.randint(1, int(math.log(10**6, p)))
            m = p**k
            f = IntPoly(tuple(rng.randrange(-(m**3), m**3) for _ in range(3)))
            if f.coeffs[-1] % p == 0:
                f += IntPoly((0, 0, 1))
            t = rng.randrange(-(m**2), m**2)
            lifted, singular = preimages(f, t, p, k)
            df = f.derivative()
            oracle = solve_congruence_bruteforce(f, t, m)
            assert lifted == [x for x in oracle if eval_mod(df, x, p)]
            assert all(eval_mod(df, r.residue, p) == 0 for r in singular)
            assert {x % p for x in oracle} <= {x % p for x in lifted} | {
                r.residue for r in singular
            }

    @pytest.mark.parametrize("k", [0, -1])
    def test_precision_below_one_rejected(self, k):
        # p^-1 is a float; the check has to come before it is formed
        with pytest.raises(ValueError, match="precision must be at least 1"):
            preimages(SQUARE, 2, 7, k)


class TestLastRootFromCoefficientSum:
    """A step whose g = f - t has deg g nonsingular roots mod p, whatever
    its unit lead c_d, lifts exactly all but one; the last is
    -c_(d-1)/c_d less the others."""

    @staticmethod
    def counted_lifts(monkeypatch):
        from padicdyn import backward

        calls = []
        lift = backward.hensel_lift

        def counted(*args, **kwargs):
            calls.append(args[1])
            return lift(*args, **kwargs)

        monkeypatch.setattr(backward, "hensel_lift", counted)
        return calls

    @staticmethod
    def planted(rng, p, roots, lead=1, extra=()):
        # lead * prod(x - r) + p * h: the roots stay those mod p, and
        # distinct ones stay nonsingular
        f = IntPoly((lead,))
        for r in roots:
            f = f * IntPoly((-r, 1))
        h = IntPoly(tuple(rng.randint(-p**3, p**3) for _ in range(len(roots))))
        return f + p * h + IntPoly(tuple(extra))

    @staticmethod
    def lifted_one_by_one(f, t, p, k):
        from padicdyn import hensel_lift, roots_mod_p

        return sorted(
            hensel_lift(f, r.residue, k, p, target=t % p**k).root
            for r in roots_mod_p(f, t, p)
            if not r.singular
        )

    @pytest.mark.parametrize("lead", ["monic", "unit-lead", "lead-1-mod-p"])
    def test_split_steps_lift_all_but_one(self, monkeypatch, lead):
        # and match lifting every root one by one, and the oracle
        rng = random.Random(131)
        calls = self.counted_lifts(monkeypatch)
        primes = [2, 3, 7, 11, 13, 101, 997, 40009, 2**61 - 1]
        for _ in range(150):
            p = rng.choice(primes[1:] if lead == "unit-lead" else primes)
            d = rng.randint(2, min(p, 6))
            k = rng.randint(2 if lead == "lead-1-mod-p" else 1, 40)
            m = p**k
            if lead == "monic":
                # a lead = 1 (mod p^k) need not be 1
                c = 1 + m * rng.choice([0, 0, 1, -3, p**5])
            elif lead == "unit-lead":
                c = rng.randint(2, p - 1) + m * rng.randint(-3, 3)
            else:
                # = 1 (mod p), not (mod p^k): every unit lead at p = 2
                c = 1 + rng.choice([-1, 1]) * p * rng.randrange(1, p ** (k - 1))
            f = self.planted(rng, p, rng.sample(range(p), d), c)
            assert (f.coeffs[-1] % m == 1) == (lead == "monic")
            t = p * rng.randrange(-(m**2), m**2)
            calls.clear()
            lifted, singular = preimages(f, t, p, k)
            assert len(calls) == d - 1 and singular == []
            assert lifted == self.lifted_one_by_one(f, t, p, k)
            assert len(lifted) == d
            if m <= 10**6:
                assert lifted == solve_congruence_bruteforce(f, t, m)

    def test_linear_monic_step_lifts_nothing(self, monkeypatch):
        calls = self.counted_lifts(monkeypatch)
        f, p, k = IntPoly((12345, 1 + 7**30)), 7, 30
        assert preimages(f, 5, p, k) == ([(5 - 12345) % p**k], [])
        assert calls == []

    @pytest.mark.parametrize(
        "f, p, k",
        [
            (IntPoly((12345, 3 + 7**30)), 7, 30),
            (IntPoly((-4, -1)), 5, 8),
            (IntPoly((7, 1 + 11)), 11, 5),
            (IntPoly((1, 3)), 2, 19),
            (IntPoly((10**40 + 1, 5 - 2**70)), 2, 64),
        ],
        ids=["3+7^30", "-1", "1+p", "p=2", "p=2-wide"],
    )
    def test_linear_step_with_a_unit_lead_lifts_nothing(self, monkeypatch, f, p, k):
        calls = self.counted_lifts(monkeypatch)
        m = p**k
        c0, c1 = f.coeffs
        assert c1 % m != 1
        for t in (0, 5, -(10**30), m - 1):
            x = (t - c0) * pow(c1, -1, m) % m
            assert preimages(f, t, p, k) == ([x], [])
            if m <= 10**6:
                assert [x] == solve_congruence_bruteforce(f, t, m)
        assert calls == []

    @pytest.mark.parametrize("case", ["lead-divisible-by-p", "singular"])
    def test_other_steps_lift_every_root(self, monkeypatch, case):
        rng = random.Random(137)
        calls = self.counted_lifts(monkeypatch)
        for _ in range(40):
            p = rng.choice([7, 11, 13, 101])
            k = rng.randint(1, int(math.log(10**6, p)))
            m = p**k
            d = rng.randint(2, 5)
            roots = rng.sample(range(p), d)
            if case == "lead-divisible-by-p":
                # deg f = d + 1, one more than its roots mod p
                f = self.planted(rng, p, roots, extra=[0] * (d + 1) + [p])
            else:
                f = self.planted(rng, p, roots + roots[:1])
            t = p * rng.randrange(m)
            calls.clear()
            lifted, singular = preimages(f, t, p, k)
            seeds = sorted(roots[1:] if case == "singular" else roots)
            assert sorted(calls) == seeds
            assert [r.residue for r in singular] == (
                [roots[0]] if case == "singular" else []
            )
            assert lifted == self.lifted_one_by_one(f, t, p, k)
            df = f.derivative()
            oracle = solve_congruence_bruteforce(f, t, m)
            assert lifted == [x for x in oracle if eval_mod(df, x, p)]


class TestBackwardTree:
    def test_square_tree_structure(self):
        tree = backward_tree(SQUARE, 2, 7, 1, 2)
        assert len(tree) == 5
        assert tree.complete
        root = tree.root
        assert root.value == 2 and root.status == "expanded"
        d1 = {n.value: n.status for n in tree.nodes_at_depth(1)}
        assert d1 == {3: "no-preimage-leaf", 4: "expanded"}
        d2 = {n.value: n.status for n in tree.nodes_at_depth(2)}
        assert d2 == {2: "frontier", 5: "frontier"}

    def test_identity_map_single_path(self):
        tree = backward_tree(IntPoly((0, 1)), 4, 5, 2, 3)
        assert len(tree) == 4
        assert [n.value for n in tree.nodes] == [4, 4, 4, 4]
        assert tree.paths() == [(4, 4, 4, 4)]

    def test_branching_bound_attained(self):
        tree = backward_tree(SQUARE, 2, 7, 1, 1)
        assert len(tree.nodes_at_depth(1)) == 2  # == deg(f)^1

    def test_depth_zero_tree(self):
        tree = backward_tree(SQUARE, 2, 7, 1, 0)
        assert len(tree) == 1
        assert tree.root.status == "frontier"

    def test_singular_leaves_recorded(self):
        tree = backward_tree(SQUARE, 0, 5, 2, 1)
        assert len(tree) == 2
        leaf = tree.nodes[1]
        assert leaf.status == "singular-leaf"
        assert leaf.value == 0

    def test_forward_consistency_random(self):
        rng = random.Random(97)
        for _ in range(50):
            f, seed, p, k, depth = random_tree_inputs(rng)
            tree = backward_tree(f, seed, p, k, depth)
            assert tree.complete
            for node in tree.nodes:
                if node.parent is None:
                    continue
                parent_value = tree.node(node.parent).value
                if node.status == "singular-leaf":
                    assert eval_mod(f, node.value, p) == parent_value % p
                else:
                    assert eval_mod(f, node.value, p**k) == parent_value

    def test_branching_bound_random(self):
        rng = random.Random(103)
        for _ in range(50):
            f, seed, p, k, depth = random_tree_inputs(rng)
            tree = backward_tree(f, seed, p, k, depth)
            for m in range(depth + 1):
                lifted_nodes = [
                    n
                    for n in tree.nodes_at_depth(m)
                    if n.status != "singular-leaf"
                ]
                assert len(lifted_nodes) <= f.degree**m

    def test_depth1_children_match_mod_p_tree(self):
        rng = random.Random(107)
        for _ in range(50):
            f, seed, p, k, _ = random_tree_inputs(rng)
            big = backward_tree(f, seed, p, k, 1)
            small = backward_tree(f, seed % p, p, 1, 1)

            def summary(tree, reduce_mod):
                return sorted(
                    (
                        n.value % reduce_mod
                        if n.status != "singular-leaf"
                        else n.value,
                        n.status == "singular-leaf",
                    )
                    for n in tree.nodes_at_depth(1)
                )

            assert summary(big, p) == summary(small, p)

    def test_reduction_to_lower_precision_is_a_valid_tree(self):
        rng = random.Random(109)
        for _ in range(50):
            f, seed, p, k, depth = random_tree_inputs(rng)
            if k == 1:
                k = 2
                seed %= p**k
            big = backward_tree(f, seed, p, k, depth)
            small = backward_tree(f, seed % p ** (k - 1), p, k - 1, depth)
            assert tree_shape(big, 0, reduce_to=p ** (k - 1)) == tree_shape(small, 0)

    def test_mod_p_paths_satisfy_backward_relation(self):
        rng = random.Random(113)
        for _ in range(25):
            f, seed, p, _, depth = random_tree_inputs(rng)
            tree = backward_tree(f, seed % p, p, 1, depth)
            for path in tree.paths():
                for prev, nxt in zip(path, path[1:]):
                    assert eval_mod(f, nxt, p) == prev

    def test_budget_exhaustion_flags_incomplete(self):
        tree = backward_tree(SQUARE, 2, 7, 1, 5, max_nodes=4)
        assert not tree.complete
        assert len(tree) <= 4
        # unexpanded nodes stay frontier
        assert all(
            n.status in {"expanded", "frontier", "no-preimage-leaf", "singular-leaf"}
            for n in tree.nodes
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            backward_tree(SQUARE, 2, 7, 1, -1)
        with pytest.raises(ValueError):
            backward_tree(SQUARE, 2, 7, 0, 1)
        with pytest.raises(ValueError):
            backward_tree(SQUARE, 2, 7, 1, 1, max_nodes=0)


class TestForwardOrbit:
    def test_square_orbit_mod_7(self):
        orbit = forward_orbit(SQUARE, 3, 7, 1, 3)
        assert orbit.terms == (3, 2, 4, 2)
        assert orbit.preperiodic
        assert orbit.tail_length == 1
        assert orbit.cycle_length == 2

    def test_constant_orbit(self):
        orbit = forward_orbit(IntPoly((0, 1)), 5, 11, 1, 4)
        assert orbit.terms == (5, 5, 5, 5, 5)
        assert orbit.tail_length == 0
        assert orbit.cycle_length == 1

    def test_reverses_preimage_example(self):
        assert forward_orbit(SQUARE, 10, 7, 2, 1).terms == (10, 2)

    def test_no_repeat_detected_within_steps(self):
        orbit = forward_orbit(SQUARE, 3, 7, 1, 1)
        assert orbit.terms == (3, 2)
        assert not orbit.preperiodic
        assert orbit.tail_length is None

    def test_every_orbit_repeats_within_state_space(self):
        rng = random.Random(127)
        for _ in range(50):
            f, seed, p, k, _ = random_tree_inputs(rng)
            orbit = forward_orbit(f, seed, p, k, p**k)
            assert orbit.preperiodic
            assert orbit.tail_length + orbit.cycle_length <= p**k

    @pytest.mark.parametrize(
        "k, steps, message",
        [(0, 1, "precision must be at least 1"),
         (-1, 1, "precision must be at least 1"),
         (1, -1, "steps must be nonnegative")],
        ids=["k=0", "k=-1", "steps=-1"],
    )
    def test_rejects_bad_arguments(self, k, steps, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            forward_orbit(SQUARE, 3, 7, k, steps)


class TestDistances:
    def test_series_examples(self):
        assert distance_series([1, 2, 3], [1, 2, 3], 5) == 0
        assert distance_series([1, 0], [0, 0], 5) == 1
        assert distance_series([0, 2, 0], [0, 0, 1], 5) == Fraction(11, 25)

    def test_first_difference_examples(self):
        assert distance_first_difference([4, 4], [4, 4]) == 0
        assert distance_first_difference([1, 0], [0, 0]) == 1
        assert distance_first_difference([1, 2, 3, 4], [1, 2, 3, 5]) == Fraction(1, 8)

    def test_series_matches_a_sum_of_fractions(self):
        rng = random.Random(137)
        for n in [0, 1, 2, 3, 10, 200]:
            p = rng.choice([2, 3, 7, 1_000_003])
            s = [rng.randint(-50, 50) for _ in range(n)]
            t = [rng.choice([a, rng.randint(-50, 50)]) for a in s]
            expected = sum(
                (Fraction(abs(a - b), p**i) for i, (a, b) in enumerate(zip(s, t))),
                Fraction(0),
            )
            assert distance_series(s, t, p) == expected

    def test_series_is_not_quadratic_in_fractions(self):
        # one Fraction add per term took 20 s at n = 4000
        rng = random.Random(139)
        s = [rng.randint(0, 99) for _ in range(4000)]
        t = [rng.randint(0, 99) for _ in range(3999)] + [s[-1] + 1]
        start = time.perf_counter()
        d = distance_series(s, t, 1_000_003)
        assert time.perf_counter() - start < 1
        # the last term, 1 / p^3999, keeps the full denominator
        assert d.denominator == 1_000_003**3999

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            distance_series([1], [1, 2], 5)
        with pytest.raises(ValueError):
            distance_first_difference([1], [1, 2])

    @staticmethod
    def random_sequences(rng, count):
        n = rng.randint(1, 8)
        return [tuple(rng.randint(0, 30) for _ in range(n)) for _ in range(count)]

    def test_metric_axioms(self):
        rng = random.Random(131)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7])
            s, t, u = self.random_sequences(rng, 3)
            for dist in (
                lambda a, b: distance_series(a, b, p),
                distance_first_difference,
            ):
                assert dist(s, t) == dist(t, s)
                assert (dist(s, t) == 0) == (s == t)
                assert dist(s, u) <= dist(s, t) + dist(t, u)
            # the first-difference metric is an ultrametric
            assert distance_first_difference(s, u) <= max(
                distance_first_difference(s, t), distance_first_difference(t, u)
            )


GOLDEN_JSON = """{
  "p": 7,
  "k": 1,
  "poly": [
    0,
    0,
    1
  ],
  "seed": 2,
  "depth": 2,
  "complete": true,
  "nodes": [
    {
      "id": 0,
      "value": 2,
      "depth": 0,
      "status": "expanded",
      "parent": null
    },
    {
      "id": 1,
      "value": 3,
      "depth": 1,
      "status": "no-preimage-leaf",
      "parent": 0
    },
    {
      "id": 2,
      "value": 4,
      "depth": 1,
      "status": "expanded",
      "parent": 0
    },
    {
      "id": 3,
      "value": 2,
      "depth": 2,
      "status": "frontier",
      "parent": 2
    },
    {
      "id": 4,
      "value": 5,
      "depth": 2,
      "status": "frontier",
      "parent": 2
    }
  ]
}"""

GOLDEN_DOT = """digraph backward_tree {
  node [shape=circle];
  n0 [label="2 (mod 7)"];
  n1 [label="3 (mod 7)", shape=box, style=dashed];
  n2 [label="4 (mod 7)"];
  n3 [label="2 (mod 7)"];
  n4 [label="5 (mod 7)"];
  n0 -> n1;
  n0 -> n2;
  n2 -> n3;
  n2 -> n4;
}
"""


class TestSerialization:
    def test_json_golden_file(self):
        tree = backward_tree(SQUARE, 2, 7, 1, 2)
        assert tree.to_json() == GOLDEN_JSON

    def test_dot_golden_file(self):
        tree = backward_tree(SQUARE, 2, 7, 1, 2)
        assert tree.to_dot() == GOLDEN_DOT

    def test_json_round_trips_and_field_order(self):
        tree = backward_tree(SQUARE, 2, 7, 2, 2)
        payload = json.loads(tree.to_json())
        assert list(payload) == ["p", "k", "poly", "seed", "depth", "complete", "nodes"]
        assert list(payload["nodes"][0]) == ["id", "value", "depth", "status", "parent"]
        assert payload["p"] == 7 and payload["k"] == 2

    def test_serialization_is_deterministic(self):
        a = backward_tree(SQUARE, 2, 7, 2, 3)
        b = backward_tree(SQUARE, 2, 7, 2, 3)
        assert a.to_json() == b.to_json()
        assert a.to_dot() == b.to_dot()

    def test_singular_leaf_styled_distinctly(self):
        tree = backward_tree(SQUARE, 0, 5, 2, 1)
        dot = tree.to_dot()
        assert 'n1 [label="0 (mod 5)", shape=box, style=filled, fillcolor=gray80];' in dot


class TestLazyNodeType:
    # BackwardNode lives in padicdyn.node, reached through a module
    # __getattr__ in padicdyn and padicdyn.backward
    def test_node_type_is_one_dataclass(self):
        assert padicdyn.BackwardNode is backward.BackwardNode
        assert dataclasses.is_dataclass(backward.BackwardNode)
        node = backward_tree(SQUARE, 2, 7, 1, 1).root
        assert type(node) is padicdyn.BackwardNode
        assert dataclasses.replace(node, value=3).value == 3

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from padicdyn import *", namespace)
        assert set(padicdyn.__all__) <= namespace.keys()
        assert namespace["BackwardNode"] is backward.BackwardNode

    @pytest.mark.parametrize("module", [padicdyn, backward])
    def test_unknown_attribute_raises(self, module):
        with pytest.raises(AttributeError, match="NoSuchName"):
            module.NoSuchName
        assert getattr(module, "NoSuchName", None) is None
