"""JSON schema documents for the wire formats the CLI speaks, and
:func:`check`, through which the CLI reads every input document.

Rationals travel as ``"p/q"`` strings (plain ``"p"`` for integers) so that
no downstream tool can coerce them to floats.  A string that passes
``check`` against ``RATIONAL_PATTERN`` is a valid ``fractions.Fraction``
argument, so each is matched once, here, and then parsed once.  Schemas
are static data and byte-stable across runs.  Of the rules the schemas do
not state, ``check`` refuses an integral float such as ``2.0``, and
``InvariantVector`` a genus key above the document's ``max_genus``, an
empty genus map without one and a genus map over the digit budget
(``realgw.multicover.MAX_DIGITS``).
"""

from __future__ import annotations

import functools
import re

from . import _shown

#: A ``p/q`` string: optional sign, ASCII digits, a nonzero denominator, no
#: whitespace.  ``[0-9]`` and ``(?!\n)$`` keep it exact under Python ``re``
#: as well as ECMA-262, where ``\d`` may match any Unicode digit and ``$`` a
#: final newline.
RATIONAL_PATTERN = r"^[+-]?[0-9]+(/0*[1-9][0-9]*)?(?!\n)$"

#: ``realgw.multicover.MAX_GENUS``, written out so that this module imports
#: no layer; a test keeps the two equal.
_MAX_GENUS = 128
#: ``realgw.multicover.MAX_C1B``, likewise.
_MAX_C1B = 10**6

# A ``pattern``'s ``description`` is the rule a mismatch error names.
_RATIONAL = {
    "type": "string",
    "pattern": RATIONAL_PATTERN,
    "description": "a rational p/q or p in ASCII digits, with a nonzero q and no whitespace",
}
_GENUS_MAP = {
    "type": "object",
    # canonical decimal genera 0.._MAX_GENUS: no sign, no leading zero
    "patternProperties": {r"^(0|[1-9][0-9]?|1[01][0-9]|12[0-8])(?!\n)$": _RATIONAL},
    "additionalProperties": False,
}

GRAPH_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "DecoratedGraph",
    "description": (
        "Quotient data of a decorated fixed-point graph: vertices with "
        "genus/fixed-point labels and per-edge-end flags, real edges and "
        "conjugate edge pairs with covering degrees. Edge ends are 0-based "
        "indices into the vertices array; a real edge repeats its single "
        "quotient vertex."
    ),
    "type": "object",
    "required": ["n", "a", "phi", "vertices", "edges"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "a": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "phi": {"enum": ["tau", "eta"]},
        "vertices": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["genus", "theta", "flags"],
                "properties": {
                    "genus": {"type": "integer", "minimum": 0},
                    "theta": {"type": "integer", "minimum": 1},
                    "flags": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["b", "p", "sminus"],
                            "properties": {
                                "b": {"type": "integer", "minimum": 0},
                                "p": {"type": "integer", "minimum": 0},
                                "sminus": {"type": "boolean"},
                            },
                        },
                    },
                },
            },
        },
        "edges": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "degree", "ends"],
                "properties": {
                    "kind": {"enum": ["real", "conj"]},
                    "degree": {"type": "integer", "minimum": 1},
                    "ends": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
        },
    },
}

INVARIANTS_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "InvariantVector",
    "description": (
        "Genus-indexed rational invariants with the even pairing <c1,B> and "
        "the cover-series convention. 'gw' holds moduli-space invariants "
        "(input to invert, output of transform); 'E' holds the integer-count "
        "side (output of invert, input to transform). Three rules are "
        "checked by the CLI only, as draft-07 cannot state them: an integer "
        "field must not be written as an integral float such as 2.0, no "
        "genus key may exceed the document's max_genus, and a genus map keeps "
        "to the digit budget: no value longer than 3000 characters, and "
        "lcm(denominators) * max |numerator| below 10^3000."
    ),
    "type": "object",
    "required": ["c1B", "convention"],
    "anyOf": [{"required": ["gw"]}, {"required": ["E"]}],
    "properties": {
        "c1B": {"type": "integer", "multipleOf": 2, "minimum": -_MAX_C1B, "maximum": _MAX_C1B},
        "convention": {"enum": ["sinh", "sin"]},
        "gw": _GENUS_MAP,
        "E": _GENUS_MAP,
        "max_genus": {"type": "integer", "minimum": 0, "maximum": _MAX_GENUS},
        "integral": {"type": "boolean"},
        "violations": {
            "type": "array",
            "items": {
                "type": "array",
                "items": [{"type": "integer"}, _RATIONAL],
                "minItems": 2,
                "additionalItems": False,
            },
        },
    },
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "IdentityReport",
    "description": (
        "Outcome of sweeping one derivation identity over a parameter grid."
    ),
    "type": "object",
    "required": ["identity", "grid_size", "holds", "failures"],
    "properties": {
        "identity": {"type": "string"},
        "grid_size": {"type": "integer", "minimum": 0},
        "holds": {"type": "boolean"},
        "failures": {"type": "array", "items": {"type": "array"}},
    },
}

SCHEMAS = {
    "graph": GRAPH_SCHEMA,
    "invariants": INVARIANTS_SCHEMA,
    "report": REPORT_SCHEMA,
}


# ``re.compile`` with a cache of its own: ``check`` compiles each pattern
# once and then matches through the compiled object.
_compiled = functools.cache(re.compile)

# JSON type name -> the Python type ``json.loads`` gives it.  Exact types:
# a bool is not an ``integer``, and neither is ``2.0``.
_TYPES = {"object": dict, "array": list, "string": str, "integer": int, "boolean": bool}


def check(doc, schema, where: str = "") -> None:
    """Raise ``ValueError`` naming the first path in ``doc``, such as
    ``vertices[0].flags[1].b``, that breaks ``schema``; ``where`` is the
    path of ``doc`` itself ("" for a whole document).  Reads only the
    draft-07 keywords ``SCHEMAS`` use (``anyOf`` only of ``required``) and
    boolean schemas.  Stricter than draft-07: an ``integer`` is a JSON
    integer, not a bool or ``2.0``.  The recursion follows the schema, never
    deeper than it however ``doc`` nests, and a message shows at most 60
    characters of an offending value or key (``realgw._shown``).  A
    ``pattern`` mismatch names the rule, the schema's ``description``.
    """
    name = where or "input document"
    if schema is True:
        return
    if schema is False:
        raise ValueError(f"{name} is not allowed")
    if "type" in schema and type(doc) is not _TYPES[schema["type"]]:
        raise ValueError(f"{name} must be a JSON {schema['type']}, got {_shown(doc)}")
    if "enum" in schema and doc not in schema["enum"]:
        raise ValueError(f"{name} must be {' or '.join(map(repr, schema['enum']))}, got {_shown(doc)}")
    if "pattern" in schema and type(doc) is str and not _compiled(schema["pattern"]).search(doc):
        raise ValueError(f"{name} must be {schema['description']}, got {_shown(doc)}")
    if type(doc) in (int, float):
        if doc < schema.get("minimum", doc):
            raise ValueError(f"{name} must be >= {schema['minimum']}, got {_shown(doc)}")
        if doc > schema.get("maximum", doc):
            raise ValueError(f"{name} must be <= {schema['maximum']}, got {_shown(doc)}")
        if doc % schema.get("multipleOf", 1):
            raise ValueError(f"{name} must be a multiple of {schema['multipleOf']}, got {_shown(doc)}")
    elif type(doc) is dict:
        for key in schema.get("required", ()):
            if key not in doc:
                raise ValueError(f"{name} is missing {key!r}")
        options = [alternative["required"] for alternative in schema.get("anyOf", ())]
        if options and not any(all(key in doc for key in keys) for keys in options):
            wanted = " or ".join(" and ".join(map(repr, keys)) for keys in options)
            raise ValueError(f"{name} is missing {wanted}")
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in doc:
                check(doc[key], sub, f"{where}.{key}" if where else key)
        patterns = schema.get("patternProperties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in doc.items() if patterns or extra is not True else ():
            subs = [sub for p, sub in patterns.items() if type(key) is str and _compiled(p).search(key)]
            for sub in subs or ([] if key in properties else [extra]):
                check(value, sub, f"{where}[{_shown(key)}]")
    elif type(doc) is list:
        low, high = schema.get("minItems", 0), schema.get("maxItems", len(doc))
        if not low <= len(doc) <= high:
            bound = f"exactly {low}" if low == high else (
                f"at least {low}" if len(doc) < low else f"at most {high}")
            raise ValueError(f"{name} must have {bound} items, got {len(doc)}")
        items = schema.get("items", True)
        leading = items if type(items) is list else []
        rest = schema.get("additionalItems", True) if type(items) is list else items
        for i, value in enumerate(doc):
            check(value, leading[i] if i < len(leading) else rest, f"{where}[{i}]")
