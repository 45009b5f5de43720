"""Backward dynamics over Z/p^kZ: preimage trees, forward orbits, and
sequence-space distances.

A backward step at a target value solves f(x) = target (mod p^k) by
finding roots mod p and Hensel-lifting the nonsingular ones.  Repeating
the step breadth-first yields a tree of iterated preimages whose
branching at depth m is bounded by deg(f)^m.  Singular mod-p roots are
kept as explicit leaf markers (their values are residues mod p, there
being no unique lift to carry them higher), so the tree records why a
branch ends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Union

from .congruence import DEFAULT_NODE_BUDGET, RootModP, roots_mod_p
from .hensel import hensel_lift
from .padic import Frozen, Prime, as_prime
from .polynomial import IntPoly, eval_mod

if TYPE_CHECKING:
    from fractions import Fraction

    from .node import BackwardNode

EXPANDED = "expanded"
SINGULAR_LEAF = "singular-leaf"
NO_PREIMAGE_LEAF = "no-preimage-leaf"
FRONTIER = "frontier"


def preimages(
    f: IntPoly,
    target: int,
    p: Union[int, Prime],
    k: int,
) -> tuple[list[int], list[RootModP]]:
    """One backward step: solutions of f(x) = target (mod p^k).

    Returns (lifted, singular): the nonsingular mod-p roots lifted to
    residues mod p^k (ascending), and the singular mod-p roots left
    unexpanded.  Both lists may be empty.

    When g = f - target has d = deg f nonsingular roots mod p, g mod p
    has degree d, so its lead c_d is a unit and g splits over Z_p into d
    distinct linear factors: its roots sum to -c_(d-1)/c_d.  Then only
    d - 1 roots are lifted, and the last one mod p^k is that sum less
    the lifted ones.  Any other step lifts every nonsingular root.
    """
    prime = as_prime(p)
    if k < 1:
        raise ValueError("precision must be at least 1")
    roots = roots_mod_p(f, target, prime)
    seeds = [r.residue for r in roots if not r.singular]
    singular = [r for r in roots if r.singular]
    # each lift cuts f - target mod p^k itself, for its own stages
    m = prime.p**k
    target %= m
    d = f.degree
    split = d >= 1 and len(seeds) == d
    lifted = [
        hensel_lift(f, a, k, prime, target=target).root
        for a in (seeds[:-1] if split else seeds)
    ]
    if split:
        # c_(d-1) of f - target, which differs from f's only at d = 1
        c = f.coeff(d - 1) - (target if d == 1 else 0)
        lifted.append((-c * pow(f.coeffs[-1], -1, m) - sum(lifted)) % m)
    return sorted(lifted), singular


def __getattr__(name: str):
    # BackwardNode is a dataclass: `dataclasses` loads with the first use
    if name == "BackwardNode":
        from .node import BackwardNode
        return BackwardNode
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class BackwardTree:
    """Rooted tree of iterated preimages, expanded breadth-first with
    children in ascending value order, so identical inputs always build
    the identical tree."""

    def __init__(
        self,
        prime: Prime,
        precision: int,
        polynomial: IntPoly,
        seed: int,
        max_depth: int,
        nodes: list[BackwardNode],
        children: dict[int, list[int]],
        complete: bool,
    ):
        self.prime = prime
        self.precision = precision
        self.polynomial = polynomial
        self.seed = seed
        self.max_depth = max_depth
        self.nodes = nodes
        self._children = children
        self.complete = complete

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> BackwardNode:
        return self.nodes[0]

    def node(self, node_id: int) -> BackwardNode:
        return self.nodes[node_id]

    def children_of(self, node_id: int) -> list[BackwardNode]:
        return [self.nodes[c] for c in self._children.get(node_id, [])]

    def nodes_at_depth(self, depth: int) -> list[BackwardNode]:
        return [n for n in self.nodes if n.depth == depth]

    def paths(self) -> list[tuple[int, ...]]:
        """Seed-to-leaf value sequences, one per leaf, in node-id order."""
        out = []
        for node in self.nodes:
            if self._children.get(node.id):
                continue
            path = []
            cur: int | None = node.id
            while cur is not None:
                path.append(self.nodes[cur].value)
                cur = self.nodes[cur].parent
            out.append(tuple(reversed(path)))
        return out

    def to_json_dict(self) -> dict:
        return {
            "p": self.prime.p,
            "k": self.precision,
            "poly": self.polynomial.coeff_list(),
            "seed": self.seed,
            "depth": self.max_depth,
            "complete": self.complete,
            "nodes": [
                {
                    "id": n.id,
                    "value": n.value,
                    "depth": n.depth,
                    "status": n.status,
                    "parent": n.parent,
                }
                for n in self.nodes
            ],
        }

    def to_json(self) -> str:
        # Field order is fixed by construction; output must stay
        # byte-identical for identical trees.
        import json
        return json.dumps(self.to_json_dict(), indent=2)

    def to_dot(self) -> str:
        q = self.prime.p
        lifted_mod = f"{q}" if self.precision == 1 else f"{q}^{self.precision}"
        lines = ["digraph backward_tree {", "  node [shape=circle];"]
        for n in self.nodes:
            if n.status == SINGULAR_LEAF:
                label = f"{n.value} (mod {q})"
                style = ", shape=box, style=filled, fillcolor=gray80"
            else:
                label = f"{n.value} (mod {lifted_mod})"
                style = ", shape=box, style=dashed" if n.status == NO_PREIMAGE_LEAF else ""
            lines.append(f'  n{n.id} [label="{label}"{style}];')
        for n in self.nodes:
            if n.parent is not None:
                lines.append(f"  n{n.parent} -> n{n.id};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def backward_tree(
    f: IntPoly,
    seed: int,
    p: Union[int, Prime],
    k: int,
    depth: int,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> BackwardTree:
    """Expand the iterated-preimage tree of f from `seed` to the given
    depth, breadth-first.

    Depth-d nodes are the preimages of depth-(d-1) values, one
    `preimages` step per expanded node.  Node ids are creation order,
    which is breadth-first order, so the walk reads the node list
    itself: no queue is kept beside it.  Nodes at the requested depth
    are marked frontier; nodes whose congruence has no solutions become
    no-preimage leaves; singular mod-p roots become singular leaves.
    The budget is checked before a node is marked: if its children
    would take the tree past max_nodes, the expansion stops there and
    the partial tree is flagged incomplete (unexpanded nodes stay
    frontier).
    """
    from .node import BackwardNode
    prime = as_prime(p)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if k < 1:
        raise ValueError("precision must be at least 1")
    if max_nodes < 1:
        raise ValueError("node budget must be positive")
    modulus = prime.p**k
    seed %= modulus

    # one row [value, depth, status, parent] per node, in creation order;
    # a status of None marks a row still to expand
    rows: list[list] = [[seed, 0, FRONTIER if depth == 0 else None, None]]
    children: dict[int, list[int]] = {}
    complete = True
    for nid, row in enumerate(rows):
        if row[2] is not None:
            continue
        lifted, singular = preimages(f, row[0], prime, k)
        kids = sorted(
            [(v, False) for v in lifted] + [(r.residue, True) for r in singular]
        )
        if len(rows) + len(kids) > max_nodes:
            complete = False
            break
        if not kids:
            row[2] = NO_PREIMAGE_LEAF
            continue
        row[2] = EXPANDED
        child_depth = row[1] + 1
        lifted_status = FRONTIER if child_depth == depth else None
        children[nid] = list(range(len(rows), len(rows) + len(kids)))
        for value, is_singular in kids:
            status = SINGULAR_LEAF if is_singular else lifted_status
            rows.append([value, child_depth, status, nid])

    # Anything left unexpanded (budget stop) is a frontier of the
    # partial tree.
    nodes = [
        BackwardNode(i, value, node_depth, status or FRONTIER, parent)
        for i, (value, node_depth, status, parent) in enumerate(rows)
    ]
    return BackwardTree(prime, k, f, seed, depth, nodes, children, complete)


class OrbitResult(Frozen):
    """A forward orbit (x0, f(x0), ...) mod p^k with its first detected
    repeat, if any: tail_length steps before entering a cycle of
    cycle_length."""

    _fields = ("terms", "tail_length", "cycle_length")

    def __init__(
        self, terms: tuple[int, ...], tail_length: int | None, cycle_length: int | None
    ):
        self.__dict__.update(
            terms=terms, tail_length=tail_length, cycle_length=cycle_length
        )

    @property
    def preperiodic(self) -> bool:
        return self.cycle_length is not None


def forward_orbit(
    f: IntPoly,
    x0: int,
    p: Union[int, Prime],
    k: int,
    steps: int,
) -> OrbitResult:
    """Iterate f forward `steps` times mod p^k, reporting cycle entry.

    The state space is finite, so any orbit repeats within p^k steps;
    detection covers only the terms actually computed.
    """
    prime = as_prime(p)
    if k < 1:
        raise ValueError("precision must be at least 1")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    modulus = prime.p**k
    # reduced once, so that no step carries a coefficient wider than p^k
    f = f.reduced(modulus)
    x = x0 % modulus
    terms = [x]
    first_seen = {x: 0}
    tail = cycle = None
    for i in range(1, steps + 1):
        x = eval_mod(f, x, modulus)
        terms.append(x)
        seen = first_seen.setdefault(x, i)
        if cycle is None and seen < i:
            tail, cycle = seen, i - seen
    return OrbitResult(tuple(terms), tail, cycle)


def distance_series(
    s: Sequence[int],
    t: Sequence[int],
    p: Union[int, Prime],
) -> Fraction:
    """Sequence distance sum(|s_i - t_i| / p^i), as an exact Fraction."""
    from fractions import Fraction
    if len(s) != len(t):
        raise ValueError("sequences must have the same length")
    q = as_prime(p).p
    if not s:
        return Fraction(0)
    # numerator over the common denominator p^(n-1), by Horner; one
    # Fraction (one gcd) at the end instead of one per term
    num = 0
    for a, b in zip(s, t):
        num = num * q + abs(a - b)
    return Fraction(num, q ** (len(s) - 1))


def distance_first_difference(s: Sequence[int], t: Sequence[int]) -> Fraction:
    """Distance 2^(-l) for l the first differing index; 0 when equal."""
    from fractions import Fraction
    if len(s) != len(t):
        raise ValueError("sequences must have the same length")
    for i, (a, b) in enumerate(zip(s, t)):
        if a != b:
            return Fraction(1, 2**i)
    return Fraction(0)
