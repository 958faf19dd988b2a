"""The CSV format: writer bytes pinned, and the rules every reader keeps."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from hypotorus import csvio
from hypotorus.diophantine import DistanceSequence, construct_liouville, distance_sequence
from hypotorus.spectrum import EigenSequence, build_eigensequence
from hypotorus.torusfn import TorusFunction
from hypotorus.witness import constant_witness


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
    eigs = build_eigensequence(kind, 5, values=values)
    assert eigs.to_csv() == text
    back = EigenSequence.from_csv(text)
    assert back.to_csv() == text
    assert back.exact == eigs.exact


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


def test_distance_csv_pieces_write_the_whole_text(tmp_path):
    # three blocks of rows, the last one short; lambda columns of plain ints,
    # ints beyond 2^64 and a float among ints: the bytes csvio.write stores
    # from the pieces are to_csv's and the whole-text rendering's
    J = 2 * csvio._BLOCK_ROWS + 5
    d = np.random.default_rng(8).random(J)
    d[[0, 7, J - 1]] = (-0.0, math.inf, math.nan)
    for lambdas in (tuple(range(1, 2 * J, 2)),
                    tuple(2**70 + j for j in range(J)),
                    tuple(0.5 if j == J - 3 else j for j in range(J))):
        seq = DistanceSequence(kappa=Fraction(1, 3), e=Fraction(1), js=tuple(range(J)),
                               lambdas=lambdas, d=d, exact=True)
        whole = "j,lambda,d\n" + csvio.rows(*map(csvio.cells, (seq.js, lambdas, d)))
        csvio.write(tmp_path / "d.csv", seq.csv_pieces())
        assert (tmp_path / "d.csv").read_bytes().decode("utf-8") == seq.to_csv() == whole
    assert len(list(seq.csv_pieces())) == 4


def test_distance_cells_are_keyed_on_bit_patterns():
    # an exact table at q = 7 renders each distinct bit pattern of d once:
    # -0.0 and 0.0 compare equal as floats but render apart, and a NaN, also
    # one with a sign or a payload, is "nan"
    J = 3 * csvio._BLOCK_ROWS + 7
    pool = np.array([-0.0, 0.0, math.inf, -math.inf, math.nan, 1 / 7, 2 / 7, 5e-324])
    pool = np.r_[pool, -pool[4:5], np.array([0x7FF8000000000001], np.uint64).view(float)]
    d = pool[np.random.default_rng(5).integers(0, pool.size, J)]
    d[:pool.size] = pool
    seq = DistanceSequence(kappa=Fraction(2, 7), e=Fraction(1), js=tuple(range(J)),
                           lambdas=tuple(range(1, 2 * J, 2)), d=d, exact=True)
    assert list(seq.csv_pieces()) == list(csvio.pieces(("j", "lambda", "d"), seq.js,
                                                       seq.lambdas, d))
    assert "\n0,1,-0.0\n1,3,0.0\n2,5,inf\n3,7,-inf\n4,9,nan\n" in seq.to_csv()


def test_cells_keep_rendered_strings():
    # the rendered d column of DistanceSequence.csv_pieces: an object array of str
    assert csvio.cells(np.array(["0.5", "-0.0", "nan"], dtype=object)) == ["0.5", "-0.0", "nan"]


# --------------------------------------------------------------------------- #
# the reader rules on the distance and eigenvalue CSVs
# --------------------------------------------------------------------------- #

def _read_distances(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        return DistanceSequence.from_csv(fh)


_DISTANCES = "j,lambda,d\n0,1,0.25\n1,3,0.5\n2,1e+16,0.0\n"


def test_distance_csv_skips_blank_lines(tmp_path):
    want = _read_distances(tmp_path, _DISTANCES)
    assert want.js == (0, 1, 2) and want.lambdas == (1, 3, 1e16)
    assert [type(v) for v in want.lambdas] == [int, int, float]
    text = "j,lambda,d\n0,1,0.25\n\n1,3,0.5\n2,1e+16,0.0\n\n"
    back = _read_distances(tmp_path, text)
    assert (back.js, back.lambdas) == (want.js, want.lambdas)
    assert back.d.tobytes() == want.d.tobytes()


def test_distance_csv_accepts_a_spaced_header(tmp_path):
    back = _read_distances(tmp_path, _DISTANCES.replace("j,lambda,d", "j, lambda, d"))
    assert back.lambdas == (1, 3, 1e16)


@pytest.mark.parametrize("text, match", [
    ("j,lambda,d\n0,1,0.25\n\n1,3\n", "line 4: 2 fields; distance CSV rows hold 3"),
    ("j,lambda,d\n0,1,0.25\n1,1_0,0.5\n", "line 3: lambda = '1_0' does not parse"),
    ("j,lambda,d\n0,1,0.25\n1,3,x\n", "line 3: d = 'x' does not parse as float64"),
])
def test_distance_csv_names_the_bad_line(tmp_path, text, match):
    with pytest.raises(ValueError, match=match):
        _read_distances(tmp_path, text)


def test_distance_csv_reads_integers_of_any_size():
    eigs = build_eigensequence("table", 3, values=[2**64 + 1, 2**70, 10**300])
    seq = distance_sequence(Fraction(3, 7), eigs)
    huge = DistanceSequence(kappa=Fraction(1, 3), e=Fraction(1),
                            js=(0, 1), lambdas=(2**70, 10**5000), d=np.array([1 / 3, 1 / 3]),
                            exact=True)
    for seq in (seq, huge):
        back = DistanceSequence.from_csv(seq.to_csv())
        assert back.lambdas == seq.lambdas
        assert back.d.tobytes() == seq.d.tobytes()


def test_eigenvalue_csv_skips_blank_lines():
    want = EigenSequence.from_csv("j,lambda\n0,1\n1,3\n2,5\n")
    for text in ("j,lambda\n0,1\n\n1,3\n2,5\n", "j,lambda\n0,1\n1,3\n2,5\n\n\n"):
        assert EigenSequence.from_csv(text).exact == want.exact == (1, 3, 5)


@pytest.mark.parametrize("text, match", [
    ("j,lambda\n0,1\n\n1\n", "line 4: 1 fields; eigenvalue CSV rows hold 2"),
    ("j,lambda\n7,1\n3,3\n", "line 2: j = 7 where 0 is due"),
    ("j,lambda\n0,1\n\n2,3\n", "line 4: j = 2 where 1 is due"),
    ("j,lambda\n0,1\n1,1_0\n", "line 3: lambda = '1_0' does not parse"),
    ("j,lambda\n0,1\n1,3０\n", "line 3: lambda = "),
    ("j,lambda\n", "needs data rows"),
])
def test_eigenvalue_csv_refuses(text, match):
    with pytest.raises(ValueError, match=match):
        EigenSequence.from_csv(text)
