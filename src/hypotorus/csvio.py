"""The CSV format of every table artifact the package writes and reads.

A table is a header line of column names, then one line per row of
comma-separated cells; every line ends with ``'\\n'`` and files are UTF-8.
:func:`cells` renders a column, :func:`rows` joins rendered columns,
:func:`pieces` makes a :class:`Table` that renders the rows a block at a
time, :func:`text` joins its pieces and :func:`write` stores either the text
or a table's pieces as they come, so a large table is never held whole:

* a float is its ``repr``, so it reads back bit for bit (NaN is ``nan``);
* an int is its decimal ``str`` at any size (under
  :func:`~hypotorus.jsonio.unlimited_int_digits`);
* a bool is ``true`` or ``false``; numpy scalars are their Python values;
* a column made only of str holds cells rendered already and is written
  as it is.

Rendering is ``repr`` bound (about 1.1 us a float on a 2-vCPU x86-64 VM,
where a vectorised Schubfach renderer ran no faster) and holds the GIL, so a
thread cannot share it.  :func:`write` hands the second half of a large
table's blocks to one forked child, which renders them from the arrays it
shares with the parent while the parent renders the first half.  A field
of 128 modes of 512 samples then writes in a median 51 ms instead of 87 ms
of wall time (in-process, same machine), at no less CPU time.

:class:`SampleRows` is the one reader, of the two CSV inputs the CLI takes:
the ``j,t,re,im`` mode field and the ``t,re,im`` samples.  The ``j`` column
is int64 and every other column float64.  Numbers take Python's syntax in
ASCII without ``_`` separators, and fields are not unquoted.
"""

from __future__ import annotations

import io
import os
import shutil
import tempfile
import threading
import warnings
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError
from .jsonio import unlimited_int_digits

__all__ = ["cells", "rows", "pieces", "text", "write", "Table", "SampleRows"]

_BLOCK_ROWS = 1 << 12   # rows rendered at a time by pieces
_SPLIT_CELLS = 1 << 16  # cells from which write renders a table in two processes


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
    """One line per row of the rendered columns, each ended by ``'\\n'``;
    the columns must be of one length."""
    lines = list(map(",".join, zip(*cell_columns, strict=True)))
    lines.append("")
    return "\n".join(lines)


class Table:
    """A table streamed in blocks: its header line, then ``render(key)`` for
    each of ``keys`` in order, each rendered when it is asked for.
    Iterating yields these pieces; ``cells`` counts the cells of all blocks,
    which :func:`write` reads to decide whether to split the rendering.  A
    plain class, because a dataclass adds about 1 ms to every import."""

    __slots__ = ("header", "keys", "render", "cells")

    def __init__(self, header: str, keys: Sequence, render: Callable[..., str], cells: int):
        self.header, self.keys, self.render, self.cells = header, keys, render, cells

    def __iter__(self) -> Iterator[str]:
        yield self.header
        yield from map(self.render, self.keys)


def pieces(names, *columns) -> Table:
    """The table of ``names`` over the rows of ``columns`` (sequences of one
    length) by :func:`cells`, one block per ``_BLOCK_ROWS`` rows."""
    size = len(columns[0]) if columns else 0
    if any(len(col) != size for col in columns):
        raise ValueError(f"columns of unequal lengths {[len(col) for col in columns]}")

    def block(lo: int) -> str:
        return rows(*(cells(col[lo:lo + _BLOCK_ROWS]) for col in columns))
    return Table(",".join(names) + "\n", range(0, size, _BLOCK_ROWS), block,
                 size * len(columns))


def text(names, *columns) -> str:
    """The table as one string: :func:`pieces` joined."""
    return "".join(pieces(names, *columns))


def write(path, text: str | Iterable[str]) -> None:
    """Store ``text`` at ``path`` as UTF-8, line ends untranslated; ``text`` is
    a string or an iterable of string pieces, each written as it comes.

    A :class:`Table` of two blocks or more and at least ``_SPLIT_CELLS``
    cells is rendered in two processes.  One forked child renders the second
    half of the blocks into an unnamed temporary file in ``path``'s
    directory and leaves by ``os._exit``, so it never returns into the
    caller or flushes its buffers; the parent renders the first half into
    ``path`` meanwhile, reaps the child and appends its bytes.  The
    threshold is measured: on a 2-vCPU x86-64 VM the fork, the wait and the
    copy cost about 3 ms, the split broke even at about 2^15 cells (8 modes
    of 1024 samples) and took 0.78 of the serial time at 2^16.  If the
    child fails, :func:`write` raises ``OSError``; if the parent's own half
    raises, the child is killed and reaped first.  No child outlives the
    call.  If another Python thread is alive (a forked child would hold
    copies of locks it cannot release) or ``os.fork`` fails, the parent
    renders every block itself.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        child = None
        if isinstance(text, Table) and len(text.keys) >= 2 and text.cells >= _SPLIT_CELLS:
            mid = len(text.keys) // 2
            child = _fork(path, text.render, text.keys[mid:])
        if child is None:
            fh.writelines([text] if isinstance(text, str) else text)
            return
        pid, tmp = child
        with tmp:
            try:
                fh.write(text.header)
                fh.writelines(map(text.render, text.keys[:mid]))
            except BaseException:
                import signal
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status:
                raise OSError(f"{path}: the child process rendering the table's second half "
                              f"exited with status {status}")
            fh.flush()
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh.buffer)


def _fork(path, render, keys):
    """(pid, file): a forked child rendering ``render(key)`` for each of
    ``keys`` into ``file``, an unnamed temporary file beside ``path``; None
    if another Python thread is alive or the fork fails (or the platform
    has none)."""
    if threading.active_count() > 1 or not hasattr(os, "fork"):
        return None
    tmp = tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns of native threads too (a BLAS pool); the
            # child runs no code of theirs
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        tmp.close()
        return None
    if pid == 0:
        status = 1
        try:
            import gc
            gc.disable()    # a collection would copy every page it touches
            with open(tmp.fileno(), "w", encoding="utf-8", newline="", closefd=False) as out:
                out.writelines(map(render, keys))
            status = 0
        finally:
            os._exit(status)
    return pid, tmp


def _dtype(name: str):
    return np.int64 if name == "j" else np.float64


def _number(s: str, dtype) -> int | float:
    """``s`` as loadtxt reads it into ``dtype`` under the rules of the module
    docstring; an int64 must lie within its range."""
    if "_" in s or not s.isascii():
        raise ValueError(s)
    v = float(s) if dtype is np.float64 else int(s)
    if dtype is np.int64 and not -2**63 <= v < 2**63:
        raise ValueError(s)
    return v


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
        self._errors: dict[str, str] = {}
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows: see below
                self._table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                         ndmin=1)
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
                for r, f in enumerate(fields):
                    vals.append(_number(f[k], dtype))
            except ValueError:
                self._errors[name] = (f"line {self._lines[r]}: {name} = {fields[r][k]!r} "
                                      f"does not parse as {dtype.__name__}")
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
