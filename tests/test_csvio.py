"""The CSV format: writer bytes pinned, and read back by int() and float()."""

import hashlib
import math
import os
import tempfile
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypotorus import csvio
from hypotorus.errors import ConfigError
from hypotorus.diophantine import DistanceSequence, construct_liouville, distance_sequence
from hypotorus.jsonio import unlimited_int_digits
from hypotorus.spectrum import build_eigensequence
from hypotorus.torusfn import TorusFunction
from hypotorus.witness import constant_witness


def _columns(seq):
    """The cells of ``seq.to_csv()`` by column, each headed by its name."""
    return tuple(zip(*(line.split(",") for line in seq.to_csv().splitlines())))


# --------------------------------------------------------------------------- #
# writer bytes
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("kind, values, text", [
    ("harmonic1d", None, "j,lambda\n0,1\n1,3\n2,5\n3,7\n4,9\n"),
    ("harmonic1d_power 3", None, "j,lambda\n0,1\n1,27\n2,125\n3,343\n4,729\n"),
    ("harmonic_nd 2", None, "j,lambda\n0,2\n1,4\n2,4\n3,6\n4,6\n"),
    ("table", [1, 4, 9, 16, 25], "j,lambda\n0,1\n1,4\n2,9\n3,16\n4,25\n"),
    ("table", list(np.array([2, 3, 7, 8, 9])), "j,lambda\n0,2\n1,3\n2,7\n3,8\n4,9\n"),
    ("table", [2**64 - 1, 2**64, 3**41, 3**41, 2**70],
     "j,lambda\n0,18446744073709551615\n1,18446744073709551616\n2,36472996377170786403\n"
     "3,36472996377170786403\n4,1180591620717411303424\n"),
    ("table", [0.5, -2.5, 3.0, 1e16, -0.1e17],
     "j,lambda\n0,0.5\n1,-2.5\n2,3.0\n3,1e+16\n4,-1e+16\n"),
])
def test_eigenvalue_csv_bytes(kind, values, text):
    # the j and lambda columns of distances.csv: an exact eigenvalue is its
    # int at any size, a float one its repr, and each parses back
    eigs = build_eigensequence(kind, 5, values=values)
    j, lam, _ = _columns(distance_sequence(Fraction(1, 3), eigs))
    assert "".join(f"{a},{b}\n" for a, b in zip(j, lam)) == text
    number = float if eigs.exact is None else int
    assert tuple(map(number, lam[1:])) == (eigs.exact or tuple(eigs.lambdas.tolist()))


def test_sample_csv_bytes_of_special_floats():
    f = TorusFunction([-0.0, complex(math.nan, math.inf), complex(5e-324, -math.inf), 1 / 3])
    text = ("t,re,im\n0.0,-0.0,0.0\n1.5707963267948966,nan,inf\n"
            "3.141592653589793,5e-324,-inf\n4.71238898038469,0.3333333333333333,0.0\n")
    assert f.to_sample_csv() == text
    assert TorusFunction.from_sample_csv(text).to_sample_csv() == text


def test_norms_csv_bytes_of_a_certificate_witness():
    eigs = build_eigensequence("harmonic1d", 40)
    cert = construct_liouville(eigs, 3, j_cap=None)
    b = constant_witness(cert, build_eigensequence("harmonic1d", 12))
    assert b.norms_csv() == ("j,sup_u,sup_f\n1,1.0,0.05263398782552977\n"
                             "9,1.0,1.525622835522602e-05\n32773,1.0,0.0\n")
    # the fourth level's index has 14234 digits, past CPython's str() guard
    cert = construct_liouville(eigs, 4, j_cap=None)
    text = constant_witness(cert, build_eigensequence("harmonic1d", 12)).norms_csv()
    assert len(text) == 14325
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b6f7eece7e2b08c4da297bccbb9d7fe355e8c49dcfced0253729238586e029b2")


def test_cells_render_each_kind():
    assert csvio.cells([True, np.bool_(False), np.int64(-3), np.float64(0.1), 10**30]) == [
        "true", "false", "-3", "0.1", "1" + "0" * 30]
    assert csvio.cells(np.array([1, 2])) == ["1", "2"]
    assert csvio.cells(x for x in (1.0, 2)) == ["1.0", "2"]
    assert csvio.text(("a", "b"), [], []) == "a,b\n"
    assert csvio.text(("a", "b"), [1, 2], ["x", "y"]) == "a,b\n1,x\n2,y\n"


def _rows(*cell_columns):
    """The lines of the rendered columns, as the writer once joined them."""
    return "".join(",".join(row) + "\n" for row in zip(*cell_columns, strict=True))


@pytest.mark.parametrize("kernel_min", [csvio._KERNEL_MIN, 0],
                         ids=["at-threshold", "kernel-all"])
def test_distance_csv_pieces_write_the_whole_text(tmp_path, monkeypatch, kernel_min):
    # three blocks of rows, the last one short; lambda columns of plain ints,
    # ints beyond 2^64 and a float among ints: the bytes csvio.write stores
    # from the pieces are to_csv's and those of one repr or str a cell, also
    # when every float column, however short, takes the float kernel
    monkeypatch.setattr(csvio, "_KERNEL_MIN", kernel_min)
    step = csvio._BLOCK_CELLS // 3
    J = 2 * step + 5
    d = np.random.default_rng(8).random(J)
    d[[0, 7, J - 1]] = (-0.0, math.inf, math.nan)
    for lambdas in (tuple(range(1, 2 * J, 2)),
                    tuple(2**70 + j for j in range(J)),
                    tuple(0.5 if j == J - 3 else j for j in range(J))):
        seq = DistanceSequence(kappa=Fraction(1, 3), e=Fraction(1), lambdas=lambdas, d=d,
                               exact=True)
        whole = "j,lambda,d\n" + _rows(*map(csvio.cells, (range(J), lambdas, d)))
        csvio.write(tmp_path / "d.csv", seq.csv_pieces())
        assert (tmp_path / "d.csv").read_bytes().decode("utf-8") == seq.to_csv() == whole
    assert len(list(seq.csv_pieces())) == 4


def test_distance_cells_are_keyed_on_bit_patterns():
    # an exact table at q = 7 renders each distinct bit pattern of d once:
    # -0.0 and 0.0 compare equal as floats but render apart, and a NaN, also
    # one with a sign or a payload, is "nan"
    J = csvio._BLOCK_CELLS + 7
    pool = np.array([-0.0, 0.0, math.inf, -math.inf, math.nan, 1 / 7, 2 / 7, 5e-324])
    pool = np.r_[pool, -pool[4:5], np.array([0x7FF8000000000001], np.uint64).view(float)]
    d = pool[np.random.default_rng(5).integers(0, pool.size, J)]
    d[:pool.size] = pool
    seq = DistanceSequence(kappa=Fraction(2, 7), e=Fraction(1),
                           lambdas=tuple(range(1, 2 * J, 2)), d=d, exact=True)
    assert list(seq.csv_pieces()) == list(csvio.pieces(("j", "lambda", "d"), range(J),
                                                       seq.lambdas, d))
    assert "\n0,1,-0.0\n1,3,0.0\n2,5,inf\n3,7,-inf\n4,9,nan\n" in seq.to_csv()


def test_columns_of_unequal_length_are_refused():
    # pieces and rows once cut every column to the shortest
    with pytest.raises(ValueError):
        csvio.pieces(("a", "b"), [1, 2], [1])
    with pytest.raises(ValueError):
        csvio.text(("a", "b"), range(5), [])
    with pytest.raises(ValueError):
        csvio.lines(csvio.ints([1, 2]), csvio.ints([1]))
    assert list(csvio.pieces(("a",))) == ["a\n"]


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)      # no child or zombie left


def test_cells_keep_rendered_strings():
    # the rendered d column of DistanceSequence.csv_pieces: an object array of str
    assert csvio.cells(np.array(["0.5", "-0.0", "nan"], dtype=object)) == ["0.5", "-0.0", "nan"]


# --------------------------------------------------------------------------- #
# the float and int kernels: every cell is repr's or str's bytes
# --------------------------------------------------------------------------- #

def _kernel_cells(x):
    """The cells of floats(x) with the kernel run on every value, however few."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_KERNEL_MIN", 0)
        return [bytes(row).replace(b"\0", b"").decode() for row in
                csvio.floats(np.asarray(x, dtype=np.float64))]


def _bits(*values):
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@example(_bits(5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16,
               9.999999999999999e15, 1e-5, 1e-4, 0.1, 1e22, 1e23))
@example(_bits(-5e-324, -0.0, 0.0, math.inf, -math.inf, math.nan, -1e23, 1e15, 1e-4))
@settings(max_examples=400, deadline=None)
def test_float_kernel_renders_every_bit_pattern_as_repr(bits):
    # normal, subnormal, +-0, +-inf and nan (with any sign and payload)
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _kernel_cells(x) == list(map(repr, x.tolist()))


def test_float_kernel_on_subnormals_and_powers():
    # the first 2^17 subnormals of each sign, then every power of two and of
    # ten, each with both neighbours, of each sign
    sub = np.arange(1, 2**17, dtype=np.uint64)
    powers = np.r_[np.ldexp(1.0, np.arange(-1074, 1024)),
                   [float(f"1e{k}") for k in range(-323, 309)]].view(np.uint64)
    near = np.r_[powers - np.uint64(1), powers, powers + np.uint64(1)].view(np.float64)
    near = near[np.isfinite(near)]
    for x in (sub.view(np.float64), near):
        for signed in (x, -x):
            assert _kernel_cells(signed) == list(map(repr, signed.tolist()))


def test_powers_of_ten_are_the_nearest_64_bit_significands():
    if csvio._kit()[3] is None:
        pytest.skip("longdouble has fewer than 64 significand bits here")
    for q, p in enumerate(csvio._kit()[3][0].tolist(), -csvio._Q):
        exact = Fraction(10) ** q
        assert abs(Fraction(*np.longdouble(p).as_integer_ratio()) - exact) <= exact / 2**64


def test_floats_without_an_80_bit_longdouble_take_repr(monkeypatch):
    # where longdouble has fewer than 64 significand bits every cell is repr's
    finfo = np.finfo
    monkeypatch.setattr(np, "finfo", lambda t: type("F", (), {"nmant": 52})()
                        if t is np.longdouble else finfo(t))
    csvio._kit.cache_clear()
    try:
        x = np.random.default_rng(4).standard_normal(3000) * 10.0 ** np.arange(-150, 150, 0.1)
        x[:4] = (-0.0, math.nan, 5e-324, 1e16)
        assert _kernel_cells(x) == list(map(repr, x.tolist()))
        assert csvio._kit()[3] is None
    finally:
        csvio._kit.cache_clear()


def test_int_cells_are_str_up_to_the_int64_bounds():
    v = [0, 1, -1, 9, 10, -10, 9999, 10000, 10**18, 2**63 - 1, -2**63, -2**63 + 1]
    assert [bytes(r).replace(b"\0", b"").decode() for r in csvio.ints(v)] == list(map(str, v))
    # a tuple of ints within int64 takes the kernel, one beyond it str
    for col in (tuple(v), (2**63, -2**63 - 1, 5)):
        assert csvio.text(("a",), col) == "a\n" + "".join(f"{i}\n" for i in col)


# --------------------------------------------------------------------------- #
# distances.csv read back by int() and float()
# --------------------------------------------------------------------------- #

def test_distance_csv_reads_integers_of_any_size():
    # lambda beyond 2^64 and of 5001 digits; d bit for bit, -0.0, inf and
    # nan included
    eigs = build_eigensequence("table", 3, values=[2**64 + 1, 2**70, 10**300])
    huge = DistanceSequence(kappa=Fraction(1, 3), e=Fraction(1),
                            lambdas=(2**70, 10**5000, 10**5000, 10**5000),
                            d=np.array([1 / 3, -0.0, math.inf, math.nan]), exact=True)
    for seq in (distance_sequence(Fraction(3, 7), eigs), huge):
        j, lam, d = _columns(seq)
        assert (j[0], lam[0], d[0]) == ("j", "lambda", "d")
        assert tuple(map(int, j[1:])) == tuple(range(len(seq)))
        with unlimited_int_digits():
            assert tuple(map(int, lam[1:])) == seq.lambdas
        assert np.array(list(map(float, d[1:]))).tobytes() == seq.d.tobytes()
    assert d[1:] == ("0.3333333333333333", "-0.0", "inf", "nan")


# --------------------------------------------------------------------------- #
# the split reader: one forked child parses the first half of a large file
# --------------------------------------------------------------------------- #

_FIELD = ("j", "t", "re", "im")


def _outcome(path, names=_FIELD):
    """What a reader of ``path`` sees: every column's bytes or ConfigError
    text, the row count and each row's file line; or the ConfigError text."""
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            rows = csvio.SampleRows(fh, names, "table")
            seen = []
            for name in names:
                try:
                    seen.append(rows.column(name).tobytes())
                except ConfigError as e:
                    seen.append(str(e))
            return seen, rows.size, [rows.line(r) for r in range(rows.size)]
    except ConfigError as e:
        return str(e)


def _split_and_serial(path, names=_FIELD, cut=None):
    """(split outcome, serial outcome, forks of the split read); ``cut``,
    if given, is the byte offset the split cuts at."""
    forks = []
    real_fork = os.fork
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_SPLIT_BYTES", 1 << 62)
        serial = _outcome(path, names)
        mp.setattr(csvio, "_SPLIT_BYTES", 0)
        mp.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        if cut is not None:
            mp.setattr(csvio, "_line_end", lambda fd, at, end: cut)
        split = _outcome(path, names)
    _assert_no_child()
    return split, serial, len(forks)


@pytest.fixture
def field(tmp_path):
    """A mode-field file of 4096 rows, and its outcome read serially."""
    rng = np.random.default_rng(31)
    j = np.repeat(np.arange(8), 512)
    path = tmp_path / "u.csv"
    path.write_text(csvio.text(_FIELD, j, rng.random(j.size), rng.standard_normal(j.size),
                               rng.standard_normal(j.size) * 1e-300), encoding="utf-8")
    split, serial, forks = _split_and_serial(path)
    assert split == serial and forks == 1
    return path, serial


def test_split_read_joins_the_halves(field, monkeypatch):
    path, serial = field
    assert serial[1] == 4096
    monkeypatch.setattr(csvio, "_SPLIT_BYTES", 0)
    with open(path, encoding="utf-8") as fh:
        rows = csvio.SampleRows(fh, _FIELD, "table")
    assert isinstance(rows._table, csvio._Joined)
    assert [len(h) for h in rows._table.halves] == [2048, 2048]  # rows of one width


def test_small_file_and_text_are_read_in_process(field, monkeypatch):
    path, serial = field
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    monkeypatch.setattr(csvio, "_SPLIT_BYTES", path.stat().st_size + 1)
    assert _outcome(path) == serial
    monkeypatch.setattr(csvio, "_SPLIT_BYTES", 0)
    rows = csvio.SampleRows(path.read_text(encoding="utf-8"), _FIELD, "table")
    assert [rows.column(n).tobytes() for n in _FIELD] == serial[0]


def test_failed_reader_child_reads_in_process(field, monkeypatch):
    # the child's half raises: the child exits 1 and the parent reads every
    # row itself
    path, serial = field
    parent, real = os.getpid(), csvio._records

    def records(lines, dtype):
        if os.getpid() != parent:
            raise RuntimeError("the child's half")
        return real(lines, dtype)
    monkeypatch.setattr(csvio, "_records", records)
    monkeypatch.setattr(csvio, "_SPLIT_BYTES", 0)
    assert _outcome(path) == serial
    _assert_no_child()


def test_failed_reader_parent_kills_and_reaps_its_child(field, monkeypatch):
    # the parent's half fails to parse while the child sleeps: the child is
    # killed and reaped, and the serial path reads every row
    path, serial = field
    parent, real, calls = os.getpid(), csvio._records, []

    def records(lines, dtype):
        if os.getpid() != parent:
            time.sleep(60)
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("the parent's half")
        return real(lines, dtype)
    monkeypatch.setattr(csvio, "_records", records)
    monkeypatch.setattr(csvio, "_SPLIT_BYTES", 0)
    t0 = time.monotonic()
    assert _outcome(path) == serial
    assert time.monotonic() - t0 < 30 and len(calls) == 2
    _assert_no_child()


def test_failed_fork_reads_in_process(field, monkeypatch):
    def refuse():
        raise OSError(11, "Resource temporarily unavailable")
    path, serial = field
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(csvio, "_SPLIT_BYTES", 0)
    assert _outcome(path) == serial
    _assert_no_child()


def test_live_thread_reads_in_process(field, monkeypatch):
    path, serial = field
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
    monkeypatch.setattr(csvio, "_SPLIT_BYTES", 0)
    stop = threading.Event()
    helper = threading.Thread(target=stop.wait)
    helper.start()
    try:
        assert _outcome(path) == serial
    finally:
        stop.set()
        helper.join()


def test_line_end_is_past_the_next_newline(tmp_path):
    (tmp_path / "b").write_bytes(b"ab\ncd\r\nef")
    fd = os.open(tmp_path / "b", os.O_RDONLY)
    try:
        assert [csvio._line_end(fd, at, 9) for at in (0, 2, 3, 7)] == [3, 3, 7, None]
    finally:
        os.close(fd)


# a table's lines: "\x01" stands for a byte that is no UTF-8 (read as U+FFFD)
_ROWS = ["0,0.0,1.5,-0.0", "1,0.1,nan,inf", "2,0.2,-inf,5e-324", "3,0.3,1e+300,0.25"]
_BAD = {"j": ["x", "1.5", "9" * 20, "\x01"], "t": ["", "1_0", " ", "\x01"],
        "re": ["0x1p3", "1.5.2", "\x01", "nann"], "im": ["--1", "i", "\x01", "1e"]}


def _bytes(header, lines, ends, last_end=True) -> bytes:
    """The table's bytes: ``ends[k]`` after line k (a header line first),
    the last line's end dropped unless ``last_end``."""
    text = "".join(line + end for line, end in zip([header, *lines], ends))
    if not last_end:
        text = text[:len(text) - len(ends[len(lines)])]
    return text.encode("utf-8").replace(b"\x01", b"\xff")


@pytest.mark.parametrize("bad", [None, (1, "re"), (5, "j"), (7, "im"), (4, "fields")])
@pytest.mark.parametrize("last_end", [True, False])
def test_every_cut_reads_as_serial(tmp_path, bad, last_end):
    # CRLF, lone CR and blank lines, a U+FFFD byte, a spaced header and a
    # bad field (or field count) in either half: at each cut the split read
    # sees the serial reader's columns, lines and error text
    lines = [*_ROWS, "", "4,0.4,0.5,0.0", *_ROWS]
    if bad is not None:
        row, name = bad
        fields = lines[row].split(",")
        if name == "fields":
            fields.append("1")
        else:
            fields[_FIELD.index(name)] = "\x01"
        lines[row] = ",".join(fields)
    ends = ["\r\n", "\n", "\r", "\r\n\r\n", "\n", "\r", "\n\n", "\r\n", "\n", "\r", "\r\n"]
    data = _bytes(" j ,t , re,im", lines, ends, last_end)
    (tmp_path / "u.csv").write_bytes(data)
    cuts = [i + 1 for i in range(len(data)) if data[i:i + 1] == b"\n"]
    for cut in cuts:
        split, serial, forks = _split_and_serial(tmp_path / "u.csv", cut=cut)
        assert split == serial and forks == 1, cut
    faults = [serial] if isinstance(serial, str) else serial[0]
    assert any(isinstance(f, str) for f in faults) == (bad is not None)


@st.composite
def _tables(draw):
    """(names, bytes, cut) of a drawn table: a mode field or samples, cells
    that parse or not, every line end, blank lines, a spaced header."""
    names = draw(st.sampled_from([_FIELD, _FIELD[1:]]))
    good = {"j": st.integers(-5, 2**63 - 1).map(str),
            **dict.fromkeys(_FIELD[1:], st.floats().map(repr))}
    rows = draw(st.lists(st.tuples(*(good[name] for name in names)), max_size=12))
    for k, row in enumerate(rows):    # one row in eight holds a bad cell
        if not draw(st.integers(0, 7)):
            i = draw(st.integers(0, len(names) - 1))
            row = rows[k] = list(row)
            row[i] = draw(st.sampled_from(_BAD[names[i]]))
    rows = list(map(",".join, rows))
    lines = [row if draw(st.integers(0, 15)) else row + ",1" for row in rows]
    lines = [line if draw(st.integers(0, 7)) else "" for line in lines]
    space = st.sampled_from(["", " ", "  "])
    header = ",".join(draw(space) + name + draw(space) for name in names)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\r\n\r\n"]),
                         min_size=len(lines) + 1, max_size=len(lines) + 1))
    data = _bytes(header, lines, ends, draw(st.booleans()))
    cuts = [i + 1 for i in range(len(data)) if data[i:i + 1] == b"\n"]
    return names, data, draw(st.sampled_from(cuts)) if cuts else None


@settings(max_examples=150, deadline=None)
@given(_tables())
def test_split_parse_is_the_serial_parse(table):
    names, data, cut = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        split, serial, forks = _split_and_serial(path, names, cut)
    assert split == serial
    assert forks == (cut is not None)
