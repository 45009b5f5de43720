"""The node type of backward trees, in a module of its own so that
`dataclasses` loads with the first tree, not with `import padicdyn`."""

from dataclasses import dataclass


@dataclass(frozen=True)
class BackwardNode:
    """One tree node: a residue reached after `depth` backward steps.

    Lifted nodes hold residues mod p^k and satisfy f(value) = parent
    value (mod p^k); singular-leaf nodes hold the unlifted mod-p root
    and satisfy the congruence mod p only.
    """

    id: int
    value: int
    depth: int
    status: str
    parent: int | None
