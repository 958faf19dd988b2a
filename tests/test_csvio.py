"""The CSV format: writer bytes pinned, and read back by int() and float()."""

import hashlib
import math
import os
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from hypotorus import csvio
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
    assert csvio.rows(["1", "2"], ["x", "y"]) == "1,x\n2,y\n"


@pytest.mark.parametrize("split_cells", [csvio._SPLIT_CELLS, 0],
                         ids=["at-threshold", "split-all"])
def test_distance_csv_pieces_write_the_whole_text(tmp_path, monkeypatch, split_cells):
    # three blocks of rows, the last one short; lambda columns of plain ints,
    # ints beyond 2^64 and a float among ints: the bytes csvio.write stores
    # from the pieces are to_csv's and the whole-text rendering's, also
    # when a forked child renders the last two blocks
    monkeypatch.setattr(csvio, "_SPLIT_CELLS", split_cells)
    J = 2 * csvio._BLOCK_ROWS + 5
    d = np.random.default_rng(8).random(J)
    d[[0, 7, J - 1]] = (-0.0, math.inf, math.nan)
    for lambdas in (tuple(range(1, 2 * J, 2)),
                    tuple(2**70 + j for j in range(J)),
                    tuple(0.5 if j == J - 3 else j for j in range(J))):
        seq = DistanceSequence(kappa=Fraction(1, 3), e=Fraction(1), lambdas=lambdas, d=d,
                               exact=True)
        whole = "j,lambda,d\n" + csvio.rows(*map(csvio.cells, (range(J), lambdas, d)))
        csvio.write(tmp_path / "d.csv", seq.csv_pieces())
        assert (tmp_path / "d.csv").read_bytes().decode("utf-8") == seq.to_csv() == whole
    assert len(list(seq.csv_pieces())) == 4
    _assert_no_child()


def test_distance_cells_are_keyed_on_bit_patterns():
    # an exact table at q = 7 renders each distinct bit pattern of d once:
    # -0.0 and 0.0 compare equal as floats but render apart, and a NaN, also
    # one with a sign or a payload, is "nan"
    J = 3 * csvio._BLOCK_ROWS + 7
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
        csvio.rows(["1", "2"], ["x"])
    assert csvio.pieces(("a",)).cells == 0


# --------------------------------------------------------------------------- #
# the split writer: one forked child renders a large table's second half
# --------------------------------------------------------------------------- #

def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)      # no child or zombie left


def _table(blocks, fail=None, hang=None):
    """A table of ``blocks`` numbered one-line blocks, large enough to split;
    block ``fail`` raises ZeroDivisionError in whichever process renders it,
    block ``hang`` sleeps a minute in the child."""
    parent = os.getpid()

    def render(k):
        if k == fail:
            1 / 0
        if k == hang and os.getpid() != parent:
            time.sleep(60)
        return f"{k},{k / 7!r}\n"
    return csvio.Table("k,x\n", range(blocks), render, csvio._SPLIT_CELLS)


@pytest.mark.parametrize("blocks", [0, 1, 2, 3, 8])
def test_split_table_writes_its_pieces(tmp_path, monkeypatch, blocks):
    # the child is forked only for two blocks or more; either way the bytes
    # are the table's pieces joined
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    table = _table(blocks)
    csvio.write(tmp_path / "t.csv", table)
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "".join(table)
    assert len(forks) == (blocks >= 2)
    assert list(tmp_path.iterdir()) == [tmp_path / "t.csv"]   # the child's file is unnamed
    _assert_no_child()


def test_small_table_is_rendered_in_process(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    table = csvio.Table("k\n", range(4), lambda k: f"{k}\n", csvio._SPLIT_CELLS - 1)
    csvio.write(tmp_path / "t.csv", table)
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "k\n0\n1\n2\n3\n"


def test_failed_child_raises_oserror(tmp_path):
    # a block of the child's half raises: the child exits 1, the parent
    # reaps it and raises OSError
    with pytest.raises(OSError, match="exited with status 1"):
        csvio.write(tmp_path / "t.csv", _table(5, fail=3))
    _assert_no_child()


def test_failed_parent_kills_and_reaps_its_child(tmp_path):
    # a block of the parent's half raises while the child sleeps in its
    # own half: the child is killed and reaped, and the parent's error is
    # the one raised
    t0 = time.monotonic()
    with pytest.raises(ZeroDivisionError):
        csvio.write(tmp_path / "t.csv", _table(4, fail=1, hang=3))
    assert time.monotonic() - t0 < 30
    _assert_no_child()


def test_failed_fork_renders_in_process(tmp_path, monkeypatch):
    def refuse():
        raise OSError(11, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", refuse)
    table = _table(5)
    csvio.write(tmp_path / "t.csv", table)
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "".join(table)
    _assert_no_child()


def test_live_thread_renders_in_process(tmp_path, monkeypatch):
    # a child forked beside another thread would inherit locks that thread
    # holds: the parent renders every block itself
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
    stop = threading.Event()
    helper = threading.Thread(target=stop.wait)
    helper.start()
    try:
        table = _table(5)
        csvio.write(tmp_path / "t.csv", table)
    finally:
        stop.set()
        helper.join()
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "".join(table)


def test_cells_keep_rendered_strings():
    # the rendered d column of DistanceSequence.csv_pieces: an object array of str
    assert csvio.cells(np.array(["0.5", "-0.0", "nan"], dtype=object)) == ["0.5", "-0.0", "nan"]


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
