"""JSON Schemas for every CLI subcommand's --format json output.

These are the documented, stable output contracts; the test suite
validates real CLI output against them.  Every object is a record: each
of its fields is required and no other field is allowed.
"""


def _record(**properties) -> dict:
    """An object schema with exactly these fields, all required."""
    return {
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


def _array(items: dict) -> dict:
    return {"type": "array", "items": items}


_BOOL = {"type": "boolean"}
_INT = {"type": "integer"}
_NAT = {"type": "integer", "minimum": 0}
_PRECISION = {"type": "integer", "minimum": 1}
_OPTIONAL_INT = {"type": ["integer", "null"]}
_COEFFS = {**_array(_INT), "minItems": 1}

_ROOT = _record(residue=_NAT, singular=_BOOL, derivative_residue=_NAT)

_NODE = _record(
    id=_NAT, value=_NAT, depth=_NAT,
    status={"enum": ["expanded", "singular-leaf", "no-preimage-leaf", "frontier"]},
    parent=_OPTIONAL_INT,
)

ROOTS_SCHEMA = _record(
    poly=_COEFFS, prime=_INT, target=_INT, roots=_array(_ROOT), degenerate=_BOOL
)

ORACLE_SCHEMA = _record(
    poly=_COEFFS, modulus={"type": "integer", "minimum": 2}, target=_INT,
    solutions=_array(_NAT),
)

LIFT_SCHEMA = _record(
    poly=_COEFFS, prime=_INT, precision=_PRECISION, seed=_INT, target=_INT,
    ladder=_array(_NAT), root=_NAT, digits=_array(_NAT),
)

PREIMAGES_SCHEMA = _record(
    poly=_COEFFS, prime=_INT, precision=_PRECISION, target=_NAT,
    lifted=_array(_NAT), singular=_array(_ROOT),
)

TREE_SCHEMA = _record(
    p=_INT, k=_PRECISION, poly=_COEFFS, seed=_NAT, depth=_NAT, complete=_BOOL,
    nodes={**_array(_NODE), "minItems": 1},
)

ORBIT_SCHEMA = _record(
    poly=_COEFFS, prime=_INT, precision=_PRECISION, start=_INT, steps=_NAT,
    orbit=_array(_NAT), preperiodic=_BOOL,
    tail_length=_OPTIONAL_INT, cycle_length=_OPTIONAL_INT,
)

DIST_SCHEMA = _record(
    metric={"enum": ["series", "first-diff"]}, prime=_OPTIONAL_INT,
    s=_array(_INT), t=_array(_INT),
    distance={"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"},
)

ERROR_SCHEMA = _record(
    error=_record(type={"type": "string"}, message={"type": "string"})
)

SCHEMAS = {
    "roots": ROOTS_SCHEMA,
    "oracle": ORACLE_SCHEMA,
    "lift": LIFT_SCHEMA,
    "preimages": PREIMAGES_SCHEMA,
    "tree": TREE_SCHEMA,
    "orbit": ORBIT_SCHEMA,
    "dist": DIST_SCHEMA,
    "error": ERROR_SCHEMA,
}
