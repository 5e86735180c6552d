"""JSON interchange for laws, matrices, scaling families, cochains and the
result dataclasses the command line prints.

Scalars are exact rationals rendered as "p" or "p/q" strings.  Bracket and
cochain indices are 1-based on the wire; the in-memory objects are 0-based.
Serialization is deterministic (entries sorted by index) and round-trips
bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from fractions import Fraction

from .errors import InputError
from .laws import LieLaw

# A value can be a Cochain or a ScalingFamily only once its module is loaded,
# so _wire looks those modules up instead of importing them.
_COHOMOLOGY = __package__ + ".cohomology"
_DEFORMATION = __package__ + ".deformation"
_SCALAR_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")


def parse_scalar(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise InputError("scalar must be a string like \"3\" or \"-2/5\", got %r" % (s,))
    m = _SCALAR_RE.match(s.strip())
    if not m:
        raise InputError("malformed rational %r" % (s,))
    num = int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = int(m.group(2))
    if den == 0:
        raise InputError("zero denominator in rational %r" % (s,))
    return Fraction(num, den)


def format_scalar(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def to_wire(value, *fields):
    """The JSON form of a result.

    A dataclass becomes an object over the named fields, or over all its
    fields in declared order when none are named.  A Fraction becomes its
    format_scalar string, a finite float stays a float and a non-finite one
    becomes None (JSON has no infinity).  Laws, scaling families and
    cochains take their wire objects; tuples and lists become lists.
    """
    if fields:
        return {name: _wire(getattr(value, name)) for name in fields}
    return _wire(value)


def _wire(value):
    if isinstance(value, LieLaw):
        return law_to_dict(value)
    deformation = sys.modules.get(_DEFORMATION)
    if deformation is not None and isinstance(value, deformation.ScalingFamily):
        return family_to_dict(value)
    cohomology = sys.modules.get(_COHOMOLOGY)
    if cohomology is not None and isinstance(value, cohomology.Cochain):
        return cochain_to_dict(value)
    if isinstance(value, Fraction):
        return format_scalar(value)
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, (tuple, list)):
        return [_wire(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _wire(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(
            "JSON parse error at line %d column %d: %s" % (e.lineno, e.colno, e.msg)
        ) from None


def _require(obj, key, where):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError("missing %r in %s" % (key, where))
    return obj[key]


# ---------------------------------------------------------------- laws ----

def law_to_dict(law: LieLaw) -> dict:
    brackets = []
    for (i, j) in sorted(law.table):
        for k in sorted(law.table[(i, j)]):
            brackets.append(
                {"i": i + 1, "j": j + 1, "k": k + 1, "c": format_scalar(law.table[(i, j)][k])}
            )
    return {"dim": law.dim, "basis": list(law.basis), "brackets": brackets}


def law_from_dict(data) -> LieLaw:
    dim = _require(data, "dim", "law object")
    if not isinstance(dim, int) or dim < 1:
        raise InputError("law dim must be a positive integer, got %r" % (dim,))
    basis = data.get("basis")
    if basis is not None:
        if not isinstance(basis, list) or len(basis) != dim:
            raise InputError("basis must list %d labels" % dim)
    table = {}
    for pos, entry in enumerate(_require(data, "brackets", "law object")):
        i = _require(entry, "i", "bracket %d" % pos)
        j = _require(entry, "j", "bracket %d" % pos)
        k = _require(entry, "k", "bracket %d" % pos)
        for name, v in (("i", i), ("j", j), ("k", k)):
            if not isinstance(v, int) or not 1 <= v <= dim:
                raise InputError(
                    "bracket %d: index %s=%r out of range 1..%d" % (pos, name, v, dim)
                )
        if i >= j:
            raise InputError(
                "bracket %d: need i < j, got i=%d, j=%d" % (pos, i, j)
            )
        c = parse_scalar(_require(entry, "c", "bracket %d" % pos))
        row = table.setdefault((i - 1, j - 1), {})
        if k - 1 in row:
            raise InputError("bracket %d duplicates entry (%d,%d)->%d" % (pos, i, j, k))
        row[k - 1] = c
    return LieLaw(dim, table, basis=tuple(basis) if basis else None)


def law_dumps(law: LieLaw) -> str:
    return json.dumps(law_to_dict(law), indent=2) + "\n"


def law_loads(text: str) -> LieLaw:
    return law_from_dict(loads(text))


# ------------------------------------------------------------- matrices ----

def matrix_to_list(m) -> list:
    return [[format_scalar(x) for x in row] for row in m]


def matrix_from_list(data, square_of=None) -> list:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise InputError("matrix must be a non-empty list of rows")
    width = len(data[0])
    out = []
    for r, row in enumerate(data):
        if len(row) != width:
            raise InputError("matrix row %d has %d entries, expected %d" % (r, len(row), width))
        out.append([parse_scalar(x) for x in row])
    if square_of is not None and (len(out) != square_of or width != square_of):
        raise InputError("matrix must be %dx%d" % (square_of, square_of))
    return out


# ---------------------------------------------------------- scaling maps ----

def family_to_dict(family) -> dict:
    out = {"w": [str(e) for e in family.w]}
    if family.p is not None:
        out["P"] = matrix_to_list(family.p)
    return out


def family_from_dict(data, dim=None):
    from .deformation import ScalingFamily

    w_raw = _require(data, "w", "scaling family")
    if not isinstance(w_raw, list) or not w_raw:
        raise InputError("scaling family w must be a non-empty list")
    w = []
    for e in w_raw:
        if isinstance(e, int) and not isinstance(e, bool):
            w.append(e)
        elif isinstance(e, str) and re.match(r"^-?\d+$", e.strip()):
            w.append(int(e.strip()))
        else:
            raise InputError("scaling exponent %r is not an integer" % (e,))
    p = None
    if data.get("P") is not None:
        p = matrix_from_list(data["P"], square_of=len(w))
    if dim is not None and len(w) != dim:
        raise InputError("scaling family has %d exponents for dimension %d" % (len(w), dim))
    return ScalingFamily(w=tuple(w), p=p)


# -------------------------------------------------------------- cochains ----

def cochain_to_dict(c) -> dict:
    terms = []
    for (indices, k) in sorted(c.terms, key=lambda t: (t[0], -1 if t[1] is None else t[1])):
        item = {"indices": [i + 1 for i in indices], "c": format_scalar(c.terms[(indices, k)])}
        if k is not None:
            item["k"] = k + 1
        terms.append(item)
    return {"module": c.module, "degree": c.degree, "dim": c.dim, "terms": terms}


def cochain_from_dict(data):
    from .cohomology import Cochain

    module = _require(data, "module", "cochain")
    if module not in ("trivial", "adjoint"):
        raise InputError("cochain module must be 'trivial' or 'adjoint', got %r" % (module,))
    degree = _require(data, "degree", "cochain")
    dim = _require(data, "dim", "cochain")
    for name, v in (("degree", degree), ("dim", dim)):
        if not isinstance(v, int) or v < 0:
            raise InputError("cochain %s must be a non-negative integer" % name)
    terms = {}
    for pos, entry in enumerate(_require(data, "terms", "cochain")):
        idx_raw = _require(entry, "indices", "cochain term %d" % pos)
        if not isinstance(idx_raw, list) or len(idx_raw) != degree:
            raise InputError("cochain term %d needs %d indices" % (pos, degree))
        idx = []
        for v in idx_raw:
            if not isinstance(v, int) or not 1 <= v <= dim:
                raise InputError("cochain term %d: index %r out of range 1..%d" % (pos, v, dim))
            idx.append(v - 1)
        if sorted(idx) != idx or len(set(idx)) != len(idx):
            raise InputError("cochain term %d: indices must be strictly increasing" % pos)
        k = None
        if module == "adjoint":
            kv = _require(entry, "k", "cochain term %d" % pos)
            if not isinstance(kv, int) or not 1 <= kv <= dim:
                raise InputError("cochain term %d: value index %r out of range" % (pos, kv))
            k = kv - 1
        c = parse_scalar(_require(entry, "c", "cochain term %d" % pos))
        key = (tuple(idx), k)
        terms[key] = terms.get(key, Fraction(0)) + c
    terms = {key: v for key, v in terms.items() if v != 0}
    return Cochain(dim=dim, degree=degree, module=module, terms=terms)
