"""Schemas for the JSON bodies the command line prints, plus a small
validator for them.

The validator covers the subset of JSON Schema actually used here: the
type keyword (with unions), required/properties for objects, items for
arrays, and enum.  Unknown object keys are allowed everywhere; reports may
grow fields without breaking old readers.
"""

from __future__ import annotations

from .errors import InputError

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, name):
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])


def validate(instance, schema, path="$"):
    """Raise InputError at the first violation; return None when valid."""
    t = schema.get("type")
    if t is not None:
        names = t if isinstance(t, list) else [t]
        if not any(_type_ok(instance, name) for name in names):
            raise InputError(
                "%s: expected %s, got %r" % (path, " or ".join(names), type(instance).__name__)
            )
    if "enum" in schema and instance not in schema["enum"]:
        raise InputError("%s: %r not in %r" % (path, instance, schema["enum"]))
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                raise InputError("%s: missing required key %r" % (path, key))
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                validate(instance[key], sub, "%s.%s" % (path, key))
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            validate(item, schema["items"], "%s[%d]" % (path, i))


_SCALAR = {"type": ["string", "integer"]}

LAW = {
    "type": "object",
    "required": ["dim", "basis", "brackets"],
    "properties": {
        "dim": {"type": "integer"},
        "basis": {"type": "array", "items": {"type": "string"}},
        "brackets": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["i", "j", "k", "c"],
                "properties": {
                    "i": {"type": "integer"},
                    "j": {"type": "integer"},
                    "k": {"type": "integer"},
                    "c": _SCALAR,
                },
            },
        },
    },
}

FAMILY = {
    "type": "object",
    "required": ["w"],
    "properties": {
        "w": {"type": "array", "items": {"type": "string"}},
        "P": {"type": "array", "items": {"type": "array", "items": _SCALAR}},
    },
}

COCHAIN = {
    "type": "object",
    "required": ["module", "degree", "dim", "terms"],
    "properties": {
        "module": {"enum": ["trivial", "adjoint"]},
        "degree": {"type": "integer"},
        "dim": {"type": "integer"},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["indices", "c"],
                "properties": {
                    "indices": {"type": "array", "items": {"type": "integer"}},
                    "k": {"type": "integer"},
                    "c": _SCALAR,
                },
            },
        },
    },
}

_NULLABLE_LAW = {"type": ["object", "null"], **{k: v for k, v in LAW.items() if k != "type"}}

CHECK = {
    "type": "object",
    "required": ["source", "jacobi_ok"],
    "properties": {
        "source": {"type": "string"},
        "jacobi_ok": {"type": "boolean"},
        "failing_triple": {"type": ["array", "null"], "items": {"type": "integer"}},
        "residual": {"type": ["array", "null"], "items": _SCALAR},
        "fingerprint": {
            "type": ["object", "null"],
            "properties": {
                "dim": {"type": "integer"},
                "lower_central_dims": {"type": "array", "items": {"type": "integer"}},
                "derived_dims": {"type": "array", "items": {"type": "integer"}},
                "center_dim": {"type": "integer"},
                "nilpotent": {"type": "boolean"},
                "solvable": {"type": "boolean"},
                "betti": {"type": "array", "items": {"type": "integer"}},
                "der_dim": {"type": "integer"},
                "inner_dim": {"type": "integer"},
                "outer_dim": {"type": "integer"},
            },
        },
    },
}

COHOMOLOGY = {
    "type": "object",
    "required": ["source", "module", "degree", "dim"],
    "properties": {
        "source": {"type": "string"},
        "module": {"enum": ["trivial", "adjoint"]},
        "degree": {"type": "integer"},
        "dim": {"type": "integer"},
        "representatives": {"type": "array", "items": COCHAIN},
    },
}

CONTRACT = {
    "type": "object",
    "required": ["source", "diverges"],
    "properties": {
        "source": {"type": "string"},
        "diverges": {"type": "boolean"},
        "limit": _NULLABLE_LAW,
        "jacobi_ok": {"type": ["boolean", "null"]},
        "entries": {
            "type": ["array", "null"],
            "items": {
                "type": "object",
                "required": ["i", "j", "k", "exponent", "c"],
                "properties": {
                    "i": {"type": "integer"},
                    "j": {"type": "integer"},
                    "k": {"type": "integer"},
                    "exponent": {"type": "integer"},
                    "c": _SCALAR,
                },
            },
        },
    },
}

OBSTRUCT = {
    "type": "object",
    "required": ["source", "target", "obstructed", "semicontinuity"],
    "properties": {
        "source": {"type": "string"},
        "target": {"type": "string"},
        "obstructed": {"type": "boolean"},
        "semicontinuity": {
            "type": "object",
            "required": ["obstructed", "rows"],
            "properties": {
                "obstructed": {"type": "boolean"},
                "rows": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["name", "source", "target", "violated"],
                        "properties": {
                            "name": {"type": "string"},
                            "source": {"type": "integer"},
                            "target": {"type": "integer"},
                            "violated": {"type": "boolean"},
                        },
                    },
                },
            },
        },
        "spectral": {
            "type": ["object", "null"],
            "properties": {
                "status": {"type": "string"},
                "reason": {"type": "string"},
                "char_source": {"type": ["array", "null"], "items": _SCALAR},
                "char_target": {"type": ["array", "null"], "items": _SCALAR},
            },
        },
    },
}

CERTIFY = {
    "type": "object",
    "required": ["source", "method", "applies", "reason"],
    "properties": {
        "source": {"type": "string"},
        "method": {"enum": ["lauret", "h2c"]},
        "applies": {"type": "boolean"},
        "reason": {"type": "string"},
        "family": {"type": ["object", "null"], **{k: v for k, v in FAMILY.items() if k != "type"}},
        "limit": _NULLABLE_LAW,
        "target": {"type": ["string", "null"]},
    },
}

REDUCE = {
    "type": "object",
    "required": ["source", "g1", "g_inf", "r_dim", "w_dim", "weights", "depths"],
    "properties": {
        "source": {"type": "string"},
        "g1": LAW,
        "g_inf": LAW,
        "r_dim": {"type": "integer"},
        "w_dim": {"type": "integer"},
        "weights": {"type": "array", "items": {"type": "array", "items": _SCALAR}},
        "depths": {"type": "array", "items": {"type": "integer"}},
        "family": {"type": ["object", "null"], **{k: v for k, v in FAMILY.items() if k != "type"}},
        "h_quotient": _NULLABLE_LAW,
    },
}

MODIFY = {
    "type": "object",
    "required": ["source", "closure", "twisting", "jacobi_ok", "law", "delta"],
    "properties": {
        "source": {"type": "string"},
        "closure": {"type": "boolean"},
        "twisting": {"type": "boolean"},
        "jacobi_ok": {"type": "boolean"},
        "law": LAW,
        "delta": LAW,
    },
}

CLASSIFY = {
    "type": "object",
    "required": ["source", "target", "evidence"],
    "properties": {
        "source": {"type": "string"},
        "target": {"enum": ["real_hyperbolic", "complex_hyperbolic_plane", "none"]},
        "n": {"type": ["integer", "null"]},
        "commable_to": {"type": ["string", "null"]},
        "evidence": {"type": "array", "items": {"type": "string"}},
    },
}

_TABLE2_ROW = {
    "type": "object",
    "required": ["label", "target", "cdim", "topdim"],
    "properties": {
        "label": {"type": "string"},
        "target": {"type": "string"},
        "n": {"type": ["integer", "null"]},
        "commable_to": {"type": ["string", "null"]},
        "cdim": _SCALAR,
        "topdim": {"type": "integer"},
        "purely_real": {"type": "boolean"},
        "carnot_type": {"type": "boolean"},
    },
}

TABLE2 = {
    "type": "object",
    "required": ["blocks", "consistent", "dashed", "dashed_note"],
    "properties": {
        "blocks": {"type": "array", "items": {"type": "array", "items": _TABLE2_ROW}},
        "consistent": {"type": "array", "items": {"type": "boolean"}},
        "dashed": {"type": "array", "items": {"type": "integer"}},
        "dashed_note": {"type": "string"},
    },
}

PINCH = {
    "type": "object",
    "required": ["eps", "samples", "seed", "sec_min", "sec_max", "ratio", "bianchi_max"],
    "properties": {
        "eps": {"type": "number"},
        "samples": {"type": "integer"},
        "seed": {"type": "integer"},
        "sec_min": {"type": "number"},
        "sec_max": {"type": "number"},
        "ratio": {"type": ["number", "null"]},   # null: sec_max >= 0
        "bianchi_max": {"type": "number"},
        "pansu": {
            "type": ["object", "null"],
            "required": ["b_est", "trace", "bound", "holds"],
            "properties": {
                "b_est": {"type": ["number", "null"]},
                "trace": {"type": "number"},
                "bound": {"type": ["number", "null"]},
                "holds": {"type": "boolean"},
            },
        },
    },
}

BUILDINGS_CDIM = {
    "type": "object",
    "required": ["p", "q", "value", "exact_one", "tau"],
    "properties": {
        "p": {"type": "integer"},
        "q": {"type": "integer"},
        "value": {"type": "number"},
        "exact_one": {"type": "boolean"},
        "tau": {"type": "array", "items": _SCALAR},
    },
}

_WITNESS = {"type": "array", "items": {"type": "integer"}}

BUILDINGS_TYSON = {
    "type": "object",
    "required": ["p", "q", "p2", "q2", "bound", "witnesses"],
    "properties": {
        "p": {"type": "integer"},
        "q": {"type": "integer"},
        "p2": {"type": "integer"},
        "q2": {"type": "integer"},
        "bound": {"type": "integer"},
        "witnesses": {"type": "array", "items": _WITNESS},
    },
}

BUILDINGS_SEARCH = {
    "type": "object",
    "required": ["p_max", "q_max", "bound", "hits"],
    "properties": {
        "p_max": {"type": "integer"},
        "q_max": {"type": "integer"},
        "bound": {"type": "integer"},
        "hits": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["p", "q", "p2", "q2", "witnesses", "cdim", "cdim2"],
                "properties": {
                    "p": {"type": "integer"},
                    "q": {"type": "integer"},
                    "p2": {"type": "integer"},
                    "q2": {"type": "integer"},
                    "witnesses": {"type": "array", "items": _WITNESS},
                    "cdim": {"type": "number"},
                    "cdim2": {"type": "number"},
                },
            },
        },
    },
}

CATALOG_LIST = {
    "type": "object",
    "required": ["names"],
    "properties": {"names": {"type": "array", "items": {"type": "string"}}},
}

SCHEMAS = {
    "law": LAW,
    "family": FAMILY,
    "cochain": COCHAIN,
    "check": CHECK,
    "cohomology": COHOMOLOGY,
    "contract": CONTRACT,
    "obstruct": OBSTRUCT,
    "certify": CERTIFY,
    "reduce": REDUCE,
    "modify": MODIFY,
    "classify": CLASSIFY,
    "table2": TABLE2,
    "pinch": PINCH,
    "buildings_cdim": BUILDINGS_CDIM,
    "buildings_tyson": BUILDINGS_TYSON,
    "buildings_search": BUILDINGS_SEARCH,
    "catalog_list": CATALOG_LIST,
}
