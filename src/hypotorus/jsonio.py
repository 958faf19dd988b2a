"""The JSON encoding of every artifact the package writes.

One recursive converter, :func:`plain`, maps program values to JSON data:

* ``Fraction`` -> ``{"num": str, "den": str}``, exact at any size;
* complex -> ``{"re", "im"}``;
* non-finite floats -> ``null`` (NaN and Infinity are not JSON);
* integers beyond 64 bits -> decimal strings, as most JSON readers lose
  precision past that;
* numpy scalars -> Python scalars; ``bool`` is tested before ``int``;
* mapping keys -> ``str``; tuples and arrays -> lists;
* a ``default`` hook (json's own ``default=`` convention: return a stand-in
  or raise ``TypeError``) maps any other value it knows;
* a dataclass instance that the hook leaves alone -> the mapping of its
  fields, so a result object is written as its fields;
* anything else -> ``str(v)``.

:func:`dumps` writes the result with ``indent=2`` and sorted keys, and
:func:`write` stores it with a trailing newline.  Certificates carry
integers with tens of thousands of digits, so conversion runs with
CPython's integer-string guard lifted (:func:`unlimited_int_digits`).
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

__all__ = ["plain", "dumps", "write", "unlimited_int_digits"]


@contextmanager
def unlimited_int_digits():
    """Lift CPython's int <-> str digit limit for the duration of the block."""
    get = getattr(sys, "get_int_max_str_digits", None)
    set_ = getattr(sys, "set_int_max_str_digits", None)
    if get is None or set_ is None:  # pragma: no cover - older interpreters
        yield
        return
    old = get()
    set_(0)
    try:
        yield
    finally:
        set_(old)


def _plain(v, default):
    if isinstance(v, np.generic):
        v = v.item()
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, int):
        return int(v) if v.bit_length() <= 64 else str(v)
    if isinstance(v, float):
        return float(v) if math.isfinite(v) else None
    if isinstance(v, complex):
        return {"re": _plain(v.real, None), "im": _plain(v.imag, None)}
    if isinstance(v, Fraction):
        return {"num": str(v.numerator), "den": str(v.denominator)}
    if isinstance(v, Mapping):
        return {str(k): _plain(x, default) for k, x in v.items()}
    if isinstance(v, np.ndarray):
        return _plain(v.tolist(), default)
    if isinstance(v, (list, tuple)):
        return [_plain(x, default) for x in v]
    if default is not None:
        try:
            stand_in = default(v)
        except TypeError:
            pass
        else:
            return _plain(stand_in, default)
    if is_dataclass(v) and not isinstance(v, type):
        return {f.name: _plain(getattr(v, f.name), default) for f in fields(v)}
    return str(v)


def plain(v, default=None):
    """``v`` as JSON data under the rules in the module docstring."""
    with unlimited_int_digits():
        return _plain(v, default)


def dumps(obj) -> str:
    """The artifact text of ``obj``: indented, keys sorted, no trailing newline."""
    return json.dumps(plain(obj), indent=2, sort_keys=True)


def write(path, obj) -> None:
    """Write :func:`dumps` of ``obj`` to ``path`` (UTF-8) with a trailing newline."""
    Path(path).write_text(dumps(obj) + "\n", encoding="utf-8")
