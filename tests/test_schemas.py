"""``schemas.check``: the draft-07 keywords it reads, the paths its errors
name, and the depth of its recursion."""

import json

import pytest

from realgw import schemas
from realgw.cli import main
from realgw.schemas import GRAPH_SCHEMA, INVARIANTS_SCHEMA, REPORT_SCHEMA, SCHEMAS, check

# The keywords ``check`` interprets, and those it may skip as annotations.
INTERPRETED = {
    "type", "enum", "pattern", "minimum", "maximum", "multipleOf",
    "required", "anyOf", "properties", "patternProperties", "additionalProperties",
    "items", "additionalItems", "minItems", "maxItems",
}
ANNOTATIONS = {"$schema", "title", "description"}


def subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    if isinstance(schema, bool):
        return
    for key in ("properties", "patternProperties"):
        for sub in schema.get(key, {}).values():
            yield from subschemas(sub)
    for key in ("items", "additionalProperties", "additionalItems"):
        subs = schema.get(key, [])
        for sub in subs if isinstance(subs, list) else [subs]:
            yield from subschemas(sub)


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_every_keyword_is_read(kind):
    for schema in subschemas(SCHEMAS[kind]):
        if isinstance(schema, bool):
            continue
        assert set(schema) <= INTERPRETED | ANNOTATIONS, set(schema) - INTERPRETED - ANNOTATIONS
        # check reads an anyOf of required lists, and nothing else in it
        assert all(set(alternative) == {"required"} for alternative in schema.get("anyOf", []))
        assert schema.get("type", "object") in schemas._TYPES


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_every_pattern_has_a_description(kind):
    # a pattern error names the rule, its description, not the regex
    patterned = [schema for schema in subschemas(SCHEMAS[kind])
                 if not isinstance(schema, bool) and "pattern" in schema]
    assert all(type(schema.get("description")) is str for schema in patterned)
    assert patterned or kind != "invariants"


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_printed_schema_is_valid_draft7(kind, capsys):
    # other readers validate with the schema `realgw schema` prints
    jsonschema = pytest.importorskip("jsonschema")
    assert main(["schema", kind]) == 0
    jsonschema.Draft7Validator.check_schema(json.loads(capsys.readouterr().out))


def graph_doc(**flag):
    return {
        "n": 5, "a": [5], "phi": "tau",
        "vertices": [{"genus": 0, "theta": 1, "flags": [
            {"b": 0, "p": 0, "sminus": False}, {"b": 0, "p": 0, "sminus": False, **flag},
        ]}],
        "edges": [{"kind": "real", "degree": 1, "ends": [0, 0]}] * 2,
    }


@pytest.mark.parametrize(
    "doc,schema,message",
    [
        (graph_doc(b=-1), GRAPH_SCHEMA, "vertices[0].flags[1].b must be >= 0, got -1"),
        (graph_doc(sminus=0), GRAPH_SCHEMA, "vertices[0].flags[1].sminus must be a JSON boolean, got 0"),
        ([], GRAPH_SCHEMA, "input document must be a JSON object, got []"),
        ({"phi": "tau"}, GRAPH_SCHEMA, "input document is missing 'n'"),
        (
            {"c1B": 0, "convention": "sinh", "gw": {"00": "1"}},
            INVARIANTS_SCHEMA, "gw['00'] is not allowed",
        ),
        (
            {"c1B": 0, "convention": "sinh", "E": {"0": "1/2 "}},
            INVARIANTS_SCHEMA,
            "E['0'] must be a rational p/q or p in ASCII digits, with a nonzero q and no whitespace, got '1/2 '",
        ),
        ({"c1B": 3, "convention": "sin", "E": {}}, INVARIANTS_SCHEMA, "c1B must be a multiple of 2, got 3"),
        (
            {"c1B": 0, "convention": "sin", "E": {}, "max_genus": 129},
            INVARIANTS_SCHEMA, "max_genus must be <= 128, got 129",
        ),
        (
            {"c1B": 0, "convention": "sin"},
            INVARIANTS_SCHEMA, "input document is missing 'gw' or 'E'",
        ),
        (
            {"c1B": 0, "convention": "sin", "E": {}, "violations": [[0, "1/3", 1]]},
            INVARIANTS_SCHEMA, "violations[0][2] is not allowed",
        ),
        ({"c1B": 0, "convention": "Sin", "E": {}}, INVARIANTS_SCHEMA, "convention must be 'sinh' or 'sin', got 'Sin'"),
    ],
)
def test_error_names_the_first_bad_path(doc, schema, message):
    with pytest.raises(ValueError) as caught:
        check(doc, schema)
    assert str(caught.value) == message


def test_depth_follows_the_schema():
    # check never descends below the schema, however deeply a value nests:
    # a failure entry is any array, and a key outside the genus map is
    # refused without reading its value.
    nested = []
    for _ in range(100_000):
        nested = [nested]
    check({"identity": "x", "grid_size": 1, "holds": False, "failures": [nested]}, REPORT_SCHEMA)
    with pytest.raises(ValueError, match=r"^gw\['x'\] is not allowed$"):
        check({"c1B": 0, "convention": "sin", "gw": {"x": nested}}, INVARIANTS_SCHEMA)
