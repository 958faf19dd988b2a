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
where a vectorised Schubfach renderer ran no faster) and parsing is
``np.loadtxt`` bound; both hold the GIL, so a thread cannot share them.
Above a measured size each direction takes a second CPU from one forked
child instead, through one helper, :func:`_in_two`: :func:`write` shares a
large table's blocks with the child by demand, and :class:`SampleRows`
parses the first half of a large file's bytes in the child.  The output
file and the parsed columns are those of one process, and every error
falls back to, or is, the serial one.  A field of 128 modes of 1024
samples (8.8 MB) then parses in a median 88 ms instead of 116 ms of wall
time (in-process, same machine).  Neither saves CPU time: pinned to one CPU
a benchmark iteration that writes and reads that field costs 4.6% more.

:class:`SampleRows` is the one reader, of the two CSV inputs the CLI takes:
the ``j,t,re,im`` mode field and the ``t,re,im`` samples.  The ``j`` column
is int64 and every other column float64.  Numbers take Python's syntax in
ASCII without ``_`` separators, and fields are not unquoted.
"""

from __future__ import annotations

import codecs
import io
import os
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
_SPLIT_BYTES = 1 << 21  # bytes from which SampleRows parses a file in two processes


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
    cells is rendered in two processes (:func:`_in_two`) that claim blocks
    by demand: the parent takes them from the front, straight into
    ``path``, and one forked child from the back.  The child appends each
    block to an unnamed temporary file in ``path``'s directory as soon as
    it renders it and records the block's byte length in a shared anonymous
    ``mmap``, so it holds one block at a time; once it is reaped, the parent
    copies its blocks back in key order.  A claim moves a counter pair in
    the map under an ``fcntl.lockf`` lock on the temporary file, so neither
    process idles while blocks are left, whichever CPU runs slower.  The
    threshold is measured: on a 2-vCPU x86-64 VM the fork, the wait and the
    copy cost about 3 ms, the split broke even at about 2^15 cells (8 modes
    of 1024 samples) and took 0.78 of the serial time at 2^16.  If the child
    fails, :func:`write` raises ``OSError``; if the parent's own blocks
    raise, the child is killed and reaped first; if the parent dies, the
    child sees it between blocks and leaves with status 1.  If another
    Python thread is alive or ``os.fork`` fails, the parent renders every
    block itself.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if not (isinstance(text, Table) and len(text.keys) >= 2 and text.cells >= _SPLIT_CELLS
                and _write_split(path, fh, text)):
            fh.writelines([text] if isinstance(text, str) else text)


def _write_split(path, fh, table: Table) -> bool:
    """Render ``table`` into ``fh`` in two processes as :func:`write` tells;
    False, with nothing written, if no child could be forked."""
    import fcntl
    import mmap
    import struct
    n = len(table.keys)
    # the parent's next key and the end of the keys left to the child, then
    # the byte length of each block the child rendered
    shared = mmap.mmap(-1, 8 * (n + 2))
    struct.pack_into("qq", shared, 0, 0, n)
    with shared, tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))) as tmp:
        fd = tmp.fileno()

        def claim(front: bool) -> int | None:
            """The next key from the front or the back; None when none is left."""
            fcntl.lockf(fd, fcntl.LOCK_EX)
            try:
                lo, hi = struct.unpack_from("qq", shared)
                if lo == hi:
                    return None
                struct.pack_into("qq", shared, 0, lo + front, hi - (not front))
                return lo if front else hi - 1
            finally:
                fcntl.lockf(fd, fcntl.LOCK_UN)

        def child(parent: int) -> None:
            with open(fd, "wb", closefd=False) as out:
                while (k := claim(False)) is not None:
                    _exit_if_orphaned(parent)
                    block = table.render(table.keys[k]).encode("utf-8")
                    out.write(block)
                    struct.pack_into("q", shared, 8 * (k + 2), len(block))

        def parent() -> None:
            fh.write(table.header)
            while (k := claim(True)) is not None:
                fh.write(table.render(table.keys[k]))

        done = _in_two(child, parent)
        if done is None:
            return False
        if done[0]:
            raise OSError(f"{path}: the child process rendering the table's last blocks "
                          f"exited with status {done[0]}")
        fh.flush()
        hi = struct.unpack_from("q", shared, 8)[0]
        sizes = struct.unpack_from(f"{n - hi}q", shared, 8 * (hi + 2))
        end = sum(sizes)
        for size in sizes:  # key order; the child wrote them last key first
            end -= size
            fh.buffer.write(os.pread(fd, size, end))
    return True


def _in_two(child: Callable[[int], None], parent: Callable[[], object]):
    """(status, result): ``result`` is ``parent()``, run here while one
    forked child runs ``child(pid)``, ``pid`` being this process's, and
    ``status`` is the child's exit status once it is reaped.  None, with
    neither run, if another Python thread is alive (a forked child would
    hold copies of locks it cannot release) or the fork fails (or the
    platform has none).

    The child leaves by ``os._exit``, 0 if ``child`` returns and 1 if it
    raises, so it never returns into the caller or flushes the parent's
    buffers.  If ``parent()`` raises, the child is killed and reaped before
    the error propagates.  No child outlives the call, and one whose parent
    dies leaves by :func:`_exit_if_orphaned`, which ``child`` calls between
    its steps."""
    if threading.active_count() > 1 or not hasattr(os, "fork"):
        return None
    here = os.getpid()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns of native threads too (a BLAS pool); the
            # child runs no code of theirs
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            import gc
            gc.disable()    # a collection would copy every page it touches
            child(here)
            status = 0
        finally:
            os._exit(status)
    try:
        result = parent()
    except BaseException:
        import signal
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return status, result


def _exit_if_orphaned(parent: int) -> None:
    """Leave this forked child with status 1 once ``parent`` is no longer
    its parent (killed, so the child was handed to another)."""
    if os.getppid() != parent:
        os._exit(1)


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


def _records(lines, dtype) -> np.ndarray:
    """The data rows of ``lines`` as records of ``dtype``: the one
    ``np.loadtxt`` call of :class:`SampleRows` (no rows, no records)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows: SampleRows refuses them
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _line_end(fd: int, at: int, end: int) -> int | None:
    """The offset just past the first ``b"\\n"`` of the file open at ``fd``
    from ``at`` on, before ``end``; None if there is none."""
    while at < end:
        chunk = os.pread(fd, min(1 << 16, end - at), at)
        if not chunk:
            return None
        i = chunk.find(b"\n")
        if i >= 0:
            return at + i + 1
        at += len(chunk)
    return None


class _Bytes(io.RawIOBase):
    """Bytes ``lo`` to ``hi`` of the file open at ``fd``, read by
    ``os.pread``, which moves no process's file offset."""

    def __init__(self, fd: int, lo: int, hi: int):
        self._fd, self._at, self._hi = fd, lo, hi

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        data = os.pread(self._fd, min(len(b), self._hi - self._at), self._at)
        b[:len(data)] = data
        self._at += len(data)
        return len(data)


class _Joined:
    """Two record arrays read as one: a column is joined when it is asked
    for, so the halves' whole tables are never joined at once."""

    __slots__ = ("halves",)

    def __init__(self, *halves: np.ndarray):
        self.halves = halves

    def __len__(self) -> int:
        return sum(map(len, self.halves))

    def __getitem__(self, name: str) -> np.ndarray:
        return np.concatenate([h[name] for h in self.halves])


class SampleRows:
    """The data rows of a CSV table, by column.

    The first line must be the header ``names`` (spaces around a name are
    ignored); every later line holds one comma-separated field per name.
    Empty lines are skipped, and errors give the file line, counting the
    header as line 1.  Columns are typed by name (see the module docstring);
    floats parse by CPython's string-to-double conversion, so a ``repr``
    float comes back bit for bit.

    Rows are parsed by ``np.loadtxt``, reading a handle in chunks.  A file
    handle of ``_SPLIT_BYTES`` or more in UTF-8 is parsed in two processes
    (see :meth:`_halves`): each reads its own byte range by ``os.pread``
    with the handle's encoding and errors and universal newlines (the
    ``open`` default), so neither holds its half's text whole or moves the
    other's file offset.  A cut after ``b"\\n"`` splits no UTF-8 sequence
    and no ``\\r\\n``, so the halves hold exactly the lines of the whole.
    The threshold is measured: on a 2-vCPU x86-64 VM the split broke even
    at about 1 MB and took 0.8 of the serial time at 2 MB.  Text, a
    smaller file, a live thread or a failed fork take the serial path: one
    ``np.loadtxt`` pass over every row.  The child checks that its parent
    lives before it writes its records, and leaves with status 1 if not.

    If a parse fails (either half included: the serial path then runs
    again from the header), the rows are split again in Python to find the
    fault: a wrong field count raises at once, a value that does not parse
    raises when its column is asked for, so each reader keeps its own check
    order and every message and line number is the serial one.  The file
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
        self._table = self._halves(dtype)
        if self._table is None:
            try:
                self._table = _records(lines, dtype)
            except ValueError as e:
                self._table = self._diagnose(names, what)
                if not self._errors:
                    raise ConfigError(f"{what}: {e}") from None
        self.size = len(self._table) if self._lines is None else len(self._lines)
        if self.size == 0:
            raise ConfigError(f"{what} needs data rows of {len(names)} fields "
                              f"{','.join(names)}")

    def _halves(self, dtype) -> "_Joined | None":
        """The records of a large UTF-8 file, parsed in two processes: the
        bytes from the header on are cut after the first ``b"\\n"`` from
        their midpoint, one forked child parses the first half and passes
        its records back through an unnamed temporary file, and this
        process parses the second half meanwhile (:func:`_in_two`).  None
        if the source is text, under ``_SPLIT_BYTES`` or of another
        encoding, if no child could be forked, or if either half fails to
        parse; the serial path then reads the rows and finds the fault."""
        src, start = self._src, self._start
        try:
            fd = src.fileno()
        except (AttributeError, OSError, ValueError):     # text, or no file
            return None
        # a cookie of 2^64 or more carries decoder state, not a byte offset
        if start >> 64 or codecs.lookup(src.encoding).name != "utf-8":
            return None
        size = os.fstat(fd).st_size
        cut = size - start >= _SPLIT_BYTES and _line_end(fd, (start + size) // 2, size)
        if not cut:
            return None

        def half(lo: int, hi: int):
            return io.TextIOWrapper(io.BufferedReader(_Bytes(fd, lo, hi), 1 << 16),
                                    encoding=src.encoding, errors=src.errors)

        def child(parent: int) -> None:
            with half(start, cut) as lines:
                next(lines)    # the header
                first = _records(lines, dtype)
            _exit_if_orphaned(parent)
            with open(tmp.fileno(), "wb", closefd=False) as out:
                out.write(first.view(np.uint8))

        def parent() -> np.ndarray:
            with half(cut, size) as lines:
                return _records(lines, dtype)

        try:
            tmp = tempfile.TemporaryFile()
        except OSError:
            return None
        with tmp:
            try:
                done = _in_two(child, parent)
            except ValueError:
                return None
            if done is None or done[0]:
                return None
            tmp.seek(0)
            return _Joined(np.fromfile(tmp, dtype=dtype), done[1])

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
