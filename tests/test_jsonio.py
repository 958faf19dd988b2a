"""The artifact JSON encoding: one rule table, strict JSON out."""

import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest

from hypotorus.jsonio import dumps, plain, unlimited_int_digits, write

BIG = 2 ** 64          # 65 bits: the first integer written as a string
HUGE = 7 ** 12000      # beyond CPython's default 4300-digit str() guard


class Opaque:
    def __str__(self):
        return "opaque!"


@pytest.mark.parametrize("value, expected", [
    (None, None),
    (True, True),
    (np.bool_(False), False),
    (np.int64(3), 3),
    (-7, -7),
    (BIG - 1, BIG - 1),
    (-(BIG - 1), -(BIG - 1)),
    (BIG, str(BIG)),
    (-BIG, str(-BIG)),
    (1.5, 1.5),
    (np.float32(0.5), 0.5),
    (math.nan, None),
    (np.float64("nan"), None),
    (math.inf, None),
    (-math.inf, None),
    ("text", "text"),
    (np.str_("np"), "np"),
    (Fraction(-3, 4), {"num": "-3", "den": "4"}),
    (Fraction(1, BIG), {"num": "1", "den": str(BIG)}),
    (1 + 2j, {"re": 1.0, "im": 2.0}),
    (np.complex128(complex(math.inf, -1.0)), {"re": None, "im": -1.0}),
    ((1, 2.0), [1, 2.0]),
    (np.array([[1, 2], [3, 4]]), [[1, 2], [3, 4]]),
    (np.array([0.5, np.nan]), [0.5, None]),
    ({1: "a", 2.5: "b"}, {"1": "a", "2.5": "b"}),
    (OrderedDict(x=Fraction(1, 2)), {"x": {"num": "1", "den": "2"}}),
    ({"a": [{"b": (np.int8(1), math.nan, Fraction(2))}]},
     {"a": [{"b": [1, None, {"num": "2", "den": "1"}]}]}),
    (frozenset([3]), "frozenset({3})"),
    (Opaque(), "opaque!"),
])
def test_plain_rules(value, expected):
    out = plain(value)
    assert out == expected
    assert type(out) is type(expected)


def test_negative_zero_keeps_its_sign():
    out = plain(-0.0)
    assert out == 0.0 and math.copysign(1.0, out) == -1.0
    assert dumps(-0.0) == "-0.0"


def test_integers_past_the_str_guard():
    with unlimited_int_digits():
        digits = str(HUGE)
    assert plain(HUGE) == digits
    assert plain(Fraction(1, HUGE)) == {"num": "1", "den": digits}


def test_default_hook_maps_its_types_and_nothing_else():
    def hook(v):
        if isinstance(v, Opaque):
            return {"opaque": (1, math.nan)}
        raise TypeError(type(v).__name__)

    assert plain([Opaque(), {1}], default=hook) == [{"opaque": [1, None]}, "{1}"]


@dataclass(frozen=True)
class Point:
    x: float
    label: str = "p"
    tags: tuple = field(default=())


@dataclass(frozen=True)
class Pair:
    first: Point
    ratio: Fraction


def test_dataclass_encodes_as_its_fields():
    p = Point(1.5, tags=(Fraction(1, 2),))
    fields = {"x": 1.5, "label": "p", "tags": [{"num": "1", "den": "2"}]}
    assert plain(p) == fields
    assert plain([p, {"k": p}]) == [fields, {"k": fields}]
    assert plain(Pair(p, Fraction(3))) == {"first": fields,
                                           "ratio": {"num": "3", "den": "1"}}


def test_dataclass_non_finite_field_is_null():
    assert plain(Point(math.nan)) == {"x": None, "label": "p", "tags": []}
    assert json.loads(dumps(Point(-math.inf)))["x"] is None


def test_default_hook_wins_over_the_dataclass_rule():
    def hook(v):
        if isinstance(v, Point):
            return {"summary": v.label}
        raise TypeError(type(v).__name__)

    pair = Pair(Point(2.0, "q"), Fraction(1, 4))
    assert plain(pair, default=hook) == {"first": {"summary": "q"},
                                         "ratio": {"num": "1", "den": "4"}}


def test_dataclass_class_is_not_encoded_as_data():
    assert plain(Point) == str(Point)
    assert plain({"type": Pair}) == {"type": str(Pair)}


def test_dumps_is_sorted_indented_and_strict(tmp_path):
    obj = {"b": math.nan, "a": [1, Fraction(1, 3)], "c": BIG}
    text = dumps(obj)
    assert text == json.dumps(plain(obj), indent=2, sort_keys=True)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    assert json.loads(text, parse_constant=refuse)["b"] is None
    path = tmp_path / "out.json"
    write(path, obj)
    assert path.read_text(encoding="utf-8") == text + "\n"
