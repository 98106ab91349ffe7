"""JSON schema documents for the wire formats the CLI speaks.

Rationals travel as ``"p/q"`` strings (plain ``"p"`` for integers) so that
no downstream tool can coerce them to floats.  Schemas are static data and
byte-stable across runs.
"""

from __future__ import annotations

#: A ``p/q`` string: optional sign, ASCII digits, no whitespace.
#: ``series.parse_rational`` matches the whole text against this pattern.
#: ``[0-9]`` and ``(?!\n)$`` keep it exact under Python ``re`` as well as
#: ECMA-262, where ``\d`` may match any Unicode digit and ``$`` a final
#: newline.
RATIONAL_PATTERN = r"^[+-]?[0-9]+(/[0-9]+)?(?!\n)$"

#: ``realgw.multicover.MAX_GENUS``, written out so that this module imports
#: no layer; a test keeps the two equal.
_MAX_GENUS = 128

_RATIONAL = {"type": "string", "pattern": RATIONAL_PATTERN}
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
        "side (output of invert, input to transform). Two rules are "
        "checked by the CLI only, as draft-07 cannot state them: an integer "
        "field must not be written as an integral float such as 2.0, and no "
        "genus key may exceed the document's max_genus."
    ),
    "type": "object",
    "required": ["c1B", "convention"],
    "anyOf": [{"required": ["gw"]}, {"required": ["E"]}],
    "properties": {
        "c1B": {"type": "integer", "multipleOf": 2},
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
