"""The CSV format of every table artifact the package writes and reads.

A table is a header line of column names, then one line per row of
comma-separated cells; every line ends with ``'\\n'`` and files are UTF-8.
:func:`pieces` makes a :class:`Table` that renders the rows a block at a
time, :func:`text` joins its pieces and :func:`write` stores either the text
or a table's pieces as they come, so a large table is never held whole:

* a float is its ``repr``, so it reads back bit for bit (NaN is ``nan``);
* an int is its decimal ``str`` at any size (under
  :func:`~hypotorus.jsonio.unlimited_int_digits`);
* a bool is ``true`` or ``false``; numpy scalars are their Python values;
* a column made only of str holds cells rendered already and is written
  as it is.

A block is rendered as one (rows, width) uint8 matrix: each cell is laid
out in its own NUL-padded slot, the commas and newlines are fixed columns,
and the NULs are deleted when the matrix is packed into text.  A column of
int64 values is cut into groups of four digits by :func:`ints`, and a
float64 column of ``_KERNEL_MIN`` values or more by :func:`floats`, whose
shortest-digits kernel gives ``repr``'s bytes without calling it (after
Loitsch, PLDI 2010, and Adams, "Ryu", PLDI 2018).  For a finite nonzero
x = M 2^e it takes e10 = floor(log10 |x|), corrected by one where needed,
and D = |x| 10^(16 - e10) in [1e16, 1e17) as one 80-bit ``longdouble``
product: 10^q is the 64-bit significand nearest to it and the product
rounds once more, so D is off by at most 2^-8 + 1e17 2^-64 < 0.0093 units,
and the half-gap 2^(e-1) 10^q between x and its neighbours (taken in
``longdouble`` too, by an exact power of two) by at most 5e16 2^-64 <
0.0027.  Everything after that is int64, or float64 for fractions below 2:
the integers of the rounding interval, the largest 10^k with a multiple
among them, the multiple nearest to D and the layout.  A value whose
answer could change within ``_GUARD`` = 2^-6 > 0.0093 + 0.0027 of an
interval end or of a rounding tie takes ``repr`` instead: about 2% of
random bit patterns and of a solved field's values.  So do inf and nan; ±0
are laid out as 0.  The tables are built on the first call, and where
``longdouble`` has fewer than 64 significand bits every cell takes
``repr``.  Measured on a 2-vCPU x86-64 VM: below 300-500 values the
kernel's fixed cost (about 0.2 ms) exceeds ``repr``'s; 8192 values at a
time keep its temporaries under 128 KiB, where the allocator reuses memory
(16384 at a time was 30% slower, in page faults); and it renders a solved
field in 0.19-0.26 of ``repr``'s time (0.8-1.9 us a float there).

:class:`SampleRows` is the one reader, of the two CSV inputs the CLI takes:
the ``j,t,re,im`` mode field and the ``t,re,im`` samples.  The ``j`` column
is int64 and every other column float64.  Numbers take Python's syntax in
ASCII without ``_`` separators, and fields are not unquoted.  Parsing is
``np.loadtxt`` bound and holds the GIL, so a thread cannot share it: a large
file's first half is parsed by one forked child instead (:func:`_in_two`).
A field of 128 modes of 1024 samples (8.8 MB) then parses in a median 88 ms
instead of 116 ms of wall time (in-process, same machine), for no less CPU
time.
"""

from __future__ import annotations

import codecs
import functools
import io
import os
import tempfile
import threading
import warnings
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError
from .jsonio import unlimited_int_digits

__all__ = ["cells", "floats", "ints", "lines", "pieces", "text", "write", "Table",
           "SampleRows"]

_BLOCK_CELLS = 1 << 15  # cells rendered at a time by pieces and ModeField.csv_pieces
_KERNEL_MIN = 1 << 9    # floats from which floats() runs its kernel rather than repr
_CHUNK = 1 << 13        # floats the kernel takes at a time
_SPLIT_BYTES = 1 << 21  # bytes from which SampleRows parses a file in two processes
_GUARD = 2.0 ** -6      # the error margin of the float kernel, in units of D
_Q = 294                # the kernel's powers of ten are 10^q for -_Q <= q <= 342


def _cell(v) -> str:
    v = v.item() if isinstance(v, np.generic) else v
    return ("true" if v else "false") if isinstance(v, bool) else repr(v)


def cells(values) -> list[str]:
    """The cells of one column by the module's rules, one ``repr`` at a time."""
    all_floats = isinstance(values, np.ndarray) and values.dtype.kind == "f"
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    with unlimited_int_digits():
        types = set() if all_floats else set(map(type, values))
        if types <= {int, float}:
            return list(map(repr, values))   # repr(int) is its str
        return values if types == {str} else [_cell(v) for v in values]


@functools.cache
def _kit():
    """The kernels' tables, built on the first call: "0000".."9999" as
    uint32, 10^0..10^19 as uint64 and, by digit count, the uint32 masks of
    an int's digits, then for :func:`_shortest` 10^q and 2^(b-1076) in
    ``longdouble``, the layouts (:func:`_layouts`) and the masks of the
    digits shown; or None there where ``longdouble`` has fewer than 64
    significand bits."""
    d, nd = np.arange(10000), np.arange(21)[:, None]
    quads = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], 1) + 48
    return (quads.astype(np.uint8).view(np.uint32).ravel(),
            10 ** np.arange(20, dtype=np.uint64),
            (np.arange(20) >= 20 - nd).astype(np.uint8).view(np.uint32) * np.uint32(255),
            None if np.finfo(np.longdouble).nmant < 63 else (
                _powers_of_ten(), np.ldexp(np.longdouble(1), np.arange(2047) - 1076),
                _layouts(), (np.arange(1, 17) < nd[:18]).astype(np.uint8)
                .view(np.uint32) * np.uint32(255)))


def _powers_of_ten() -> np.ndarray:
    """10^q for q = -_Q .. 342 in ``longdouble``: the nearest 64-bit integer
    m to 10^q 2^-s, m >= 2^63, by exact integer arithmetic, then ldexp."""
    sig, shift = [], []
    for q in range(-_Q, 343):
        if q >= 0:
            s = (10 ** q).bit_length() - 64
            m = 10 ** q << -s if s < 0 else (10 ** q + (1 << s >> 1)) >> s
        else:
            s = -(10 ** -q).bit_length() - 63
            m = ((1 << -s) + 10 ** -q // 2) // 10 ** -q
        sig.append(m >> (m >> 64))              # a carry to 2^64 halves it
        shift.append(s + (m >> 64))
    return np.ldexp(np.array(sig, np.uint64).astype(np.longdouble), np.array(shift))


def _layouts() -> np.ndarray:
    """The positional ``repr`` of exponent E = -4 .. 15 (row E + 4) as 24
    indices into a cell of :func:`_shortest` in exponent form: sign, digit,
    '.', 16 digits, 'e', sign, three exponent digits.  That cell's hundreds
    digit (21) is then a NUL and its tens digit (22) a '0'."""
    table = np.full((20, 24), 21, dtype=np.intp)
    for E in range(-4, 16):
        cell = ([0, 22, 2] + [22] * (-E - 1) + [1, *range(3, 19)] if E < 0
                else [0, 1, *range(3, 3 + E), 2, *range(3 + E, 19)])
        table[E + 4, :len(cell)] = cell
    return table


def _shortest(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the ``repr`` of each float64 of ``x`` into its row of ``out``
    (24 wide, zeroed) by the kernel of the module docstring; the indices
    of the values left to ``repr``, whose rows hold garbage."""
    quads, ten, _, (pow10, pow2, layouts, masks) = _kit()
    ten = ten[:18].astype(np.int64)
    bits = x.view(np.uint64)
    b = (bits >> np.uint64(52)).astype(np.int64) & 0x7FF     # biased exponent
    nonfinite = b == 0x7FF
    zero = (bits << np.uint64(1)) == 0
    ax = np.abs(x)
    special = np.flatnonzero(nonfinite | zero)
    ax[special], b[special] = 1.0, 1023                      # placeholders
    e10 = np.floor(np.log10(ax)).astype(np.int64)
    axl = ax.astype(np.longdouble)
    p = pow10[_Q + 16 - e10]
    D = axl * p
    off = (D >= 1e17).astype(np.int64) - (D < 1e16)
    fix = np.flatnonzero(off)
    if fix.size:
        e10[fix] += off[fix]
        p[fix] = pow10[_Q + 16 - e10[fix]]
        D[fix] = axl[fix] * p[fix]
    Di = D.astype(np.int64)
    Df = (D - Di).astype(np.float64)            # exact: D - Di is a multiple of D's ulp
    # the half-gaps above and below x in units of D, as int + fraction: the
    # gap below a power of two is half the gap above (but at b = 1)
    h = p * pow2[np.maximum(b, 1)]              # 2^(e-1) 10^q, e = max(b, 1) - 1075
    hi = h.astype(np.int64)
    hf = (h - hi).astype(np.float64)
    below = ((bits << np.uint64(12)) == 0) & (b > 1)
    li, lf = np.where(below, hi >> 1, hi), np.where(below, ((hi & 1) + hf) / 2, hf)
    lo_i, lo_f, hi_i, hi_f = Di - li, Df - lf, Di + hi, Df + hf
    # k: the largest 10^k with a multiple among the integers that perhaps
    # lie in the rounding interval; R: the multiple nearest to D
    Lw = lo_i + np.ceil(lo_f - _GUARD).astype(np.int64)
    Hw = hi_i + np.floor(hi_f + _GUARD).astype(np.int64)
    k = np.zeros(x.size, np.int64)
    rows = np.arange(x.size)
    for t in ten[1:].tolist():
        rows = rows[Hw[rows] // t * t >= Lw[rows]]
        if not rows.size:
            break
        k[rows] += 1
    t = ten[k]
    q = Di // t
    above = (Di - q * t - t // 2).astype(np.float64) + (Df - 0.5 * (k == 0))
    R = (q + (above > 0)) * t
    # sure iff R lies in the interval narrowed by the guard and D is not
    # within it of a tie: then no multiple of 10^(k+1) lies in the interval
    # and R is its nearest multiple of 10^k
    bad = ((np.abs(above) < _GUARD) | (R < ten[16])
           | (R < lo_i + np.ceil(lo_f + _GUARD).astype(np.int64))
           | (R > hi_i + np.floor(hi_f - _GUARD).astype(np.int64)))
    big = R >= 10 ** 17                         # R = 10^17: one digit, E one higher
    R[big] = ten[16]
    R[zero] = 0                                 # the placeholder's 1e16, so nd 1, E 0
    bad = (bad & ~zero) | nonfinite
    nd, E = np.where(big, 1, 17 - k), e10 + big
    # each cell in exponent form, digits past the last shown NUL; then the
    # positional ones are moved into place, one gather per exponent
    positional = (E >= -4) & (E <= 15)
    shown = np.where(positional & (E >= 0), np.maximum(nd, E + 2), nd)
    out[:, 0] = (bits >> np.uint64(63)).astype(np.uint8) * np.uint8(45)
    lead = R // ten[16]
    out[:, 1] = lead + 48
    out[:, 2] = 46 * ((nd > 1) | positional)
    R -= lead * ten[16]
    hi8 = R // ten[8]
    lo8 = R - hi8 * ten[8]
    h4, l4 = hi8 // 10000, lo8 // 10000
    digits = quads[np.stack([h4, hi8 - h4 * 10000, l4, lo8 - l4 * 10000], axis=1)]
    digits &= masks[shown]
    out[:, 3:19].view(np.uint32)[:] = digits
    out[:, 19] = 101
    aE = np.abs(E)
    out[:, 20:24].view(np.uint32)[:, 0] = quads[aE]
    out[:, 20] = 43 + 2 * (E < 0)
    out[:, 21] *= aE >= 100
    at = np.flatnonzero(positional)
    at = at[np.argsort(E[at], kind="stable")]
    for part in np.split(at, np.flatnonzero(np.diff(E[at])) + 1) if at.size else ():
        out[part] = out[part][:, layouts[E[part[0]] + 4]]
    return np.flatnonzero(bad)


def floats(x) -> np.ndarray:
    """The cells of the float64 values ``x`` as an (n, width <= 24) uint8
    matrix, each its ``repr`` in ASCII padded with NULs (see the module
    docstring)."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    out = np.zeros((x.size, 24), np.uint8)
    if x.size >= _KERNEL_MIN and _kit()[3] is not None:
        rest = np.concatenate([lo + _shortest(x[lo:lo + _CHUNK], out[lo:lo + _CHUNK])
                               for lo in range(0, x.size, _CHUNK)])
    else:
        rest = np.arange(x.size)
    if rest.size:
        text = np.array(list(map(repr, x[rest].tolist())), dtype="S24")
        out[rest] = text.view(np.uint8).reshape(-1, 24)
    return out[:, :24 - np.argmax(out.any(axis=0)[::-1])]   # trailing NUL columns cut


def ints(v) -> np.ndarray:
    """The cells of the int64 values ``v`` as an (n, width <= 20) uint8
    matrix, each its decimal ``str`` in ASCII padded with NULs."""
    v = np.asarray(v, dtype=np.int64).ravel()
    a = np.abs(v).view(np.uint64)               # |-2^63| wraps to 2^63
    quads, ten, masks, _ = _kit()
    groups = np.empty((5, v.size), np.intp)     # four digits each, last first
    for i in range(4, -1, -1):
        q = a // np.uint64(10000)
        groups[i] = a - q * np.uint64(10000)
        a = q
    nd = np.maximum(np.searchsorted(ten, np.abs(v).view(np.uint64), side="right"), 1)
    out = np.empty((v.size, 20), np.uint8)
    out.view(np.uint32)[:] = quads[groups].T & masks[nd]
    neg = np.flatnonzero(v < 0)
    out[neg, 19 - nd[neg]] = 45
    return out[:, 20 - max(nd.max(initial=1) + (neg.size > 0), 1):]   # flush right


def _matrix(col) -> np.ndarray:
    """The cells of one column slice as a NUL-padded (rows, width) uint8
    matrix: a 2-D uint8 array is one already; int64 values go to
    :func:`ints`, float64 values to :func:`floats` and the rest to
    :func:`cells`.  A cell holds no NUL."""
    if isinstance(col, range):
        col = np.arange(col.start, col.stop, col.step, dtype=np.int64)
    elif not isinstance(col, np.ndarray):
        types = set(map(type, col))
        if types in ({int}, {float}):
            try:
                col = np.array(col, dtype=np.int64 if types == {int} else np.float64)
            except OverflowError:                # an int beyond int64
                pass
    if isinstance(col, np.ndarray):
        if col.ndim == 2:
            return col
        kind, size = col.dtype.kind, col.dtype.itemsize
        if kind == "f" and size <= 8:
            return floats(col)
        if kind == "i" or (kind == "u" and size < 8):
            return ints(col)
    encoded = [s.encode("utf-8") for s in cells(col)]
    return np.array(encoded, dtype=bytes).view(np.uint8).reshape(len(encoded), -1)


def lines(*matrices) -> str:
    """One line per row of the cell matrices (each (rows, width) uint8, of
    one row count), its cells joined by commas and ended by ``'\\n'``."""
    if len({len(m) for m in matrices}) != 1:
        raise ValueError(f"cell matrices of unequal lengths {[len(m) for m in matrices]}")
    widths = [m.shape[1] + 1 for m in matrices]
    buf = bytearray(len(matrices[0]) * sum(widths))
    frame = np.frombuffer(buf, np.uint8).reshape(-1, sum(widths))
    at = 0
    for m, width in zip(matrices, widths):
        frame[:, at:at + width - 1] = m
        frame[:, at + width - 1] = 44
        at += width
    frame[:, -1] = 10
    return buf.translate(None, b"\0").decode("utf-8")


class Table:
    """A table streamed in blocks: its header line, then ``render(key)`` for
    each of ``keys`` in order, each rendered when it is asked for.
    Iterating yields these pieces.  A plain class, because a dataclass adds
    about 1 ms to every import."""

    __slots__ = ("header", "keys", "render")

    def __init__(self, header: str, keys: Sequence, render: Callable[..., str]):
        self.header, self.keys, self.render = header, keys, render

    def __iter__(self) -> Iterator[str]:
        yield self.header
        yield from map(self.render, self.keys)


def pieces(names, *columns) -> Table:
    """The table of ``names`` over the rows of ``columns`` (sequences of one
    length), about ``_BLOCK_CELLS`` cells to a block."""
    size = len(columns[0]) if columns else 0
    if any(len(col) != size for col in columns):
        raise ValueError(f"columns of unequal lengths {[len(col) for col in columns]}")
    step = max(1, _BLOCK_CELLS // max(1, len(columns)))

    def block(lo: int) -> str:
        return lines(*(_matrix(col[lo:lo + step]) for col in columns))
    return Table(",".join(names) + "\n", range(0, size, step), block)


def text(names, *columns) -> str:
    """The table as one string: :func:`pieces` joined."""
    return "".join(pieces(names, *columns))


def write(path, text: str | Iterable[str]) -> None:
    """Store ``text`` at ``path`` as UTF-8, line ends untranslated; ``text`` is
    a string or an iterable of string pieces, each written as it comes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


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
