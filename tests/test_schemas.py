"""The JSON Schemas of the CLI's output, pinned.

`tests/golden/schemas.json` holds `json.dumps(SCHEMAS, indent=2)` as it
was before the schemas were built by one record rule; any change to a
schema shows as a diff of that file.  Each record schema (every object:
a subcommand's payload, a `roots` or `singular` item, a tree node, the
error and its body) must reject a real payload that lacks any one of its
fields or carries one more.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import jsonschema
import pytest

from padicdyn.cli import main
from padicdyn.schemas import SCHEMAS

GOLDEN = Path(__file__).parent / "golden" / "schemas.json"

# one argv per schema, each reaching every record of its schema
ARGVS = {
    "roots": ["roots", "--poly", "x^3-x", "--prime", "3"],
    "oracle": ["oracle", "--poly", "x^2-7x+2", "--modulus", "10"],
    "lift": ["lift", "--poly", "x^2-2", "--prime", "7", "--precision", "3",
             "--seed", "3"],
    "preimages": ["preimages", "--poly", "x^3-x^2", "--prime", "5",
                  "--precision", "3", "--target", "0"],
    "tree": ["tree", "--poly", "x^2", "--prime", "7", "--precision", "1",
             "--seed", "2", "--depth", "2"],
    "orbit": ["orbit", "--poly", "x^2+1", "--prime", "5", "--precision", "2",
              "--seed", "0", "--steps", "4"],
    "dist": ["dist", "--s", "1,2,3", "--t", "1,2,4", "--prime", "5"],
    "error": ["roots", "--poly", "x", "--prime", "9"],
}


def _payload(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return json.loads(out.getvalue())


def _records(instance, schema: dict, path: tuple = ()):
    """Yield (path, schema) of each record schema that describes a part
    of instance, reading the first item of each array."""
    if "required" in schema:
        yield path, schema
        for name, sub in schema["properties"].items():
            yield from _records(instance[name], sub, path + (name,))
    elif "items" in schema and instance:
        yield from _records(instance[0], schema["items"], path + (0,))


def _all_records(schema: dict):
    """Every record schema within schema."""
    if "required" in schema:
        yield schema
        for sub in schema["properties"].values():
            yield from _all_records(sub)
    elif "items" in schema:
        yield from _all_records(schema["items"])


def _at(instance, path: tuple):
    for step in path:
        instance = instance[step]
    return instance


def test_schemas_match_the_golden_file():
    assert json.dumps(SCHEMAS, indent=2) + "\n" == GOLDEN.read_text()


def test_every_record_schema_is_reached():
    reached = {
        id(record)
        for name, argv in ARGVS.items()
        for _, record in _records(_payload(argv), SCHEMAS[name])
    }
    every = {id(r) for schema in SCHEMAS.values() for r in _all_records(schema)}
    assert reached == every


@pytest.mark.parametrize("name", list(ARGVS))
def test_a_record_needs_each_field_and_no_other(name):
    schema = SCHEMAS[name]
    payload = _payload(ARGVS[name])
    jsonschema.validate(payload, schema)
    for path, record in _records(payload, schema):
        assert list(_at(payload, path)) == record["required"], path
        for field in record["required"]:
            lacking = copy.deepcopy(payload)
            del _at(lacking, path)[field]
            with pytest.raises(jsonschema.ValidationError, match="required"):
                jsonschema.validate(lacking, schema)
        extra = copy.deepcopy(payload)
        _at(extra, path)["extra"] = 0
        with pytest.raises(jsonschema.ValidationError, match="Additional properties"):
            jsonschema.validate(extra, schema)
