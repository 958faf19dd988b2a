"""The CSV format of every table artifact the package writes and reads.

A table is a header line of column names, then one line per row of
comma-separated cells; every line ends with ``'\\n'`` and files are UTF-8.
:func:`cells` renders a column, :func:`rows` joins rendered columns,
:func:`pieces` yields the header and then the rows a block at a time,
:func:`text` joins those pieces and :func:`write` stores either the text or
the pieces as they come, so a large table is never held whole:

* a float is its ``repr``, so it reads back bit for bit (NaN is ``nan``);
* an int is its decimal ``str`` at any size (under
  :func:`~hypotorus.jsonio.unlimited_int_digits`);
* a bool is ``true`` or ``false``; numpy scalars are their Python values;
* a column made only of str holds cells rendered already and is written
  as it is.

:class:`SampleRows` is the one reader.  It types each column by its name:
``j`` and ``k`` int64, ``lambda`` an exact int or else a float, every other
column float64.  Numbers take Python's syntax in ASCII without ``_``
separators, and fields are not unquoted.
"""

from __future__ import annotations

import functools
import io
import warnings
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError
from .jsonio import unlimited_int_digits

__all__ = ["cells", "rows", "pieces", "text", "write", "SampleRows"]

_BLOCK_ROWS = 1 << 12   # rows rendered at a time by pieces


def _cell(v) -> str:
    v = v.item() if isinstance(v, np.generic) else v
    return ("true" if v else "false") if isinstance(v, bool) else repr(v)


def cells(values) -> list[str]:
    """The cells of one column under the rules in the module docstring."""
    floats = isinstance(values, np.ndarray) and values.dtype.kind == "f"
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    with unlimited_int_digits():
        types = set() if floats else set(map(type, values))
        if types <= {int, float}:
            return list(map(repr, values))   # repr(int) is its str
        return values if types == {str} else [_cell(v) for v in values]


def rows(*cell_columns) -> str:
    """One line per row of the rendered columns, each ended by ``'\\n'``."""
    lines = list(map(",".join, zip(*cell_columns)))
    lines.append("")
    return "\n".join(lines)


def pieces(names, *columns) -> Iterator[str]:
    """The header line of ``names``, then the rows of ``columns`` by
    :func:`cells`, one block of rows at a time; ``columns`` are sequences."""
    yield ",".join(names) + "\n"
    size = min(map(len, columns), default=0)
    for lo in range(0, size, _BLOCK_ROWS):
        yield rows(*(cells(col[lo:lo + _BLOCK_ROWS]) for col in columns))


def text(names, *columns) -> str:
    """The table as one string: :func:`pieces` joined."""
    return "".join(pieces(names, *columns))


def write(path, text: str | Iterable[str]) -> None:
    """Store ``text`` at ``path`` as UTF-8, line ends untranslated; ``text`` is
    a string or an iterable of string pieces, each written as it comes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _dtype(name: str):
    return np.int64 if name in ("j", "k") else object if name == "lambda" else np.float64


def _number(s: str, dtype) -> int | float:
    """``s`` as loadtxt reads it into ``dtype`` under the rules of the module
    docstring: an int64 within its range, an ``object`` an int or a float."""
    if "_" in s or not s.isascii():
        raise ValueError(s)
    try:
        v = float(s) if dtype is np.float64 else int(s)
    except ValueError:
        if dtype is not object:
            raise
        return float(s)
    if dtype is np.int64 and not -2**63 <= v < 2**63:
        raise ValueError(s)
    return v


_int_or_float = functools.partial(_number, dtype=object)   # the ``lambda`` converter


def _text_lines(text: str):
    """The lines of ``text`` as ``io.StringIO(text)`` yields them, read
    through 64k-character pieces cut after a newline, so the text is never
    copied whole."""
    i = 0
    while i < len(text):
        j = text.find("\n", i + (1 << 16)) + 1 or len(text)
        yield from io.StringIO(text[i:j])
        i = j


class SampleRows:
    """The data rows of a CSV table, by column.

    The first line must be the header ``names`` (spaces around a name are
    ignored); every later line holds one comma-separated field per name.
    Empty lines are skipped, and errors give the file line, counting the
    header as line 1.  Columns are typed by name (see the module docstring);
    floats parse by CPython's string-to-double conversion, so a ``repr``
    float comes back bit for bit.

    One ``np.loadtxt`` pass parses every row, reading a handle in chunks.  If
    it fails, the rows are split again in Python to find the fault: a wrong
    field count raises at once, a value that does not parse raises when its
    column is asked for, so each reader keeps its own check order.  The file
    is re-read only on that path and when ``line`` is called, so ``source``
    is the CSV text or a seekable text handle positioned at the header.  Text
    is split into lines lazily, never copied whole.
    """

    def __init__(self, source, names: tuple[str, ...], what: str):
        self._src, self._lines = source, None
        self._start = None if isinstance(source, str) else source.tell()
        lines = self._read()
        if [h.strip() for h in next(lines, "").split(",")] != list(names):
            raise ConfigError(f"{what} must have header {','.join(names)}")
        dtype = [(name, _dtype(name)) for name in names]
        converters = {k: _int_or_float for k, name in enumerate(names) if name == "lambda"}
        self._errors: dict[str, str] = {}
        try:
            with warnings.catch_warnings(), unlimited_int_digits():
                warnings.simplefilter("ignore", UserWarning)  # no data rows: see below
                self._table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                         ndmin=1, converters=converters)
            self.size = len(self._table)
        except ValueError as e:
            self._table = self._diagnose(names, what)
            if not self._errors:
                raise ConfigError(f"{what}: {e}") from None
            self.size = len(self._lines)
        if self.size == 0:
            raise ConfigError(f"{what} needs data rows of {len(names)} fields "
                              f"{','.join(names)}")

    def _read(self):
        """The source's lines from the header on: the handle rewound, or the
        text split lazily."""
        if self._start is None:
            return _text_lines(self._src)
        self._src.seek(self._start)
        return self._src

    def _data_lines(self):
        """(file line, text) of every non-empty line after the header."""
        lines = self._read()
        next(lines, None)
        return [(ln, s) for ln, s in enumerate((s.rstrip("\r\n") for s in lines), 2) if s]

    def _diagnose(self, names, what) -> dict[str, np.ndarray]:
        """The columns that parse, split in Python after loadtxt failed;
        ``_errors`` names the first bad line of every other column."""
        rows = self._data_lines()
        self._lines = [ln for ln, _ in rows]
        fields = [s.split(",") for _, s in rows]
        for ln, f in zip(self._lines, fields):
            if len(f) != len(names):
                raise ConfigError(f"line {ln}: {len(f)} fields; {what} rows hold "
                                  f"{len(names)} ({','.join(names)})")
        table = {}
        for k, name in enumerate(names):
            dtype = _dtype(name)
            vals = []
            try:
                with unlimited_int_digits():
                    for r, f in enumerate(fields):
                        vals.append(_number(f[k], dtype))
            except ValueError:
                kind = "an int or float" if dtype is object else dtype.__name__
                self._errors[name] = (f"line {self._lines[r]}: {name} = {fields[r][k]!r} "
                                      f"does not parse as {kind}")
            else:
                table[name] = np.array(vals, dtype=dtype)
        return table

    def column(self, name: str) -> np.ndarray:
        if name in self._errors:
            raise ConfigError(self._errors[name])
        return self._table[name]

    def line(self, r: int) -> int:
        """File line of data row ``r``."""
        if self._lines is None:
            self._lines = [ln for ln, _ in self._data_lines()]
        return self._lines[r]

    def check_t(self, t: np.ndarray, expected: np.ndarray) -> None:
        """Refuse a ``t`` column that strays from its grid points.

        ``t[r]``, read from data row r, must lie within 1e-9 of
        ``expected[r]``; rows stored in another order would otherwise load as
        a different (e.g. time-reversed) function.
        """
        bad = np.flatnonzero(~(np.abs(t - expected) <= 1e-9))
        if bad.size:
            r = int(bad[0])
            raise ConfigError(
                f"line {self.line(r)}: t = {float(t[r])!r} is not the grid point "
                f"{float(expected[r])!r}; samples must run through t = 2*pi*i/n in order")
