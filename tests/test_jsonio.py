import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

from lie_sbe import catalog, catalog_names, law_dumps, law_loads
from lie_sbe.cohomology import Cochain
from lie_sbe.deformation import ScalingFamily
from lie_sbe.errors import InputError
from lie_sbe.jsonio import (
    cochain_from_dict,
    cochain_to_dict,
    family_from_dict,
    family_to_dict,
    format_scalar,
    law_from_dict,
    law_to_dict,
    matrix_from_list,
    matrix_to_list,
    parse_scalar,
    to_wire,
)


def test_scalar_round_trip():
    for s in ("0", "7", "-3", "2/3", "-11/4"):
        assert format_scalar(parse_scalar(s)) == s
    assert parse_scalar(5) == Fraction(5)
    assert parse_scalar("4/6") == Fraction(2, 3)


def test_scalar_rejections():
    with pytest.raises(InputError):
        parse_scalar("1/0")
    with pytest.raises(InputError):
        parse_scalar("0.5")
    with pytest.raises(InputError):
        parse_scalar("two")
    with pytest.raises(InputError):
        parse_scalar(1.5)
    with pytest.raises(InputError):
        parse_scalar(True)


def test_law_round_trip_is_bit_exact_on_catalog():
    for name in catalog_names():
        law = catalog(name)
        text = law_dumps(law)
        again = law_loads(text)
        assert again == law
        assert again.basis == law.basis
        assert law_dumps(again) == text


def test_law_dict_shape():
    d = law_to_dict(catalog("heis(3)"))
    assert d["dim"] == 3
    assert d["brackets"] == [{"i": 1, "j": 2, "k": 3, "c": "1"}]


def test_law_dict_rejections():
    with pytest.raises(InputError):
        law_from_dict({"brackets": []})  # no dim
    with pytest.raises(InputError):
        law_from_dict({"dim": 2, "brackets": [{"i": 2, "j": 1, "k": 1, "c": "1"}]})
    with pytest.raises(InputError):
        law_from_dict({"dim": 2, "brackets": [{"i": 1, "j": 2, "k": 5, "c": "1"}]})
    with pytest.raises(InputError):
        law_from_dict({"dim": 2, "brackets": [{"i": 1, "j": 2, "c": "1"}]})
    with pytest.raises(InputError):
        law_from_dict(
            {"dim": 2, "brackets": [
                {"i": 1, "j": 2, "k": 1, "c": "1"},
                {"i": 1, "j": 2, "k": 1, "c": "2"},
            ]}
        )
    with pytest.raises(InputError):
        law_from_dict({"dim": 3, "basis": ["A"], "brackets": []})


def test_parse_error_carries_position():
    with pytest.raises(InputError) as err:
        law_loads("{\n  \"dim\": 2,\n  oops\n}")
    assert "line 3" in str(err.value)


def test_matrix_round_trip():
    m = [[Fraction(1, 2), Fraction(0)], [Fraction(-3), Fraction(5, 7)]]
    lst = matrix_to_list(m)
    assert lst == [["1/2", "0"], ["-3", "5/7"]]
    assert matrix_from_list(lst) == m
    with pytest.raises(InputError):
        matrix_from_list([["1", "2"], ["3"]])
    with pytest.raises(InputError):
        matrix_from_list(lst, square_of=3)
    with pytest.raises(InputError):
        matrix_from_list([])


def test_family_round_trip():
    fam = ScalingFamily(w=(0, -1), p=None)
    d = family_to_dict(fam)
    back = family_from_dict(d, dim=2)
    assert tuple(back.w) == (0, -1) and back.p is None
    with pytest.raises(InputError):
        family_from_dict(d, dim=3)
    with pytest.raises(InputError):
        family_from_dict({"w": ["1/2", "0"]})


def test_cochain_round_trip():
    c = Cochain(4, 2, "adjoint", {((0, 3), 1): Fraction(-2, 3)})
    d = cochain_to_dict(c)
    back = cochain_from_dict(d)
    assert back.terms == c.terms
    assert (back.dim, back.degree, back.module) == (4, 2, "adjoint")
    t = Cochain(3, 1, "trivial", {((2,), None): Fraction(1)})
    assert cochain_from_dict(cochain_to_dict(t)).terms == t.terms


@dataclass(frozen=True)
class _Result:
    ratio: float
    scalars: tuple
    law: object
    family: object
    nested: object = None


def test_to_wire_follows_the_dataclass():
    law = catalog("heis(3)")
    fam = ScalingFamily(w=(0, -1, -1), p=None)
    r = _Result(-1.5, (Fraction(3, 2), (1, 2)), law, fam, _Result(math.inf, (), None, None))
    wire = to_wire(r)
    assert list(wire) == ["ratio", "scalars", "law", "family", "nested"]
    assert wire["ratio"] == -1.5 and wire["scalars"] == ["3/2", [1, 2]]
    assert wire["law"] == law_to_dict(law) and wire["family"] == family_to_dict(fam)
    assert wire["nested"] == {"ratio": None, "scalars": [], "law": None, "family": None,
                              "nested": None}
    assert to_wire(r, "family", "ratio") == {"family": {"w": ["0", "-1", "-1"]}, "ratio": -1.5}
    assert to_wire(float("nan")) is None and to_wire(-math.inf) is None
    c = Cochain(3, 1, "trivial", {((2,), None): Fraction(1)})
    assert to_wire([c]) == [cochain_to_dict(c)]
