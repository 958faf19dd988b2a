"""Exact parser for the coefficient mini-language.

Every oracle here is hand-computed from the harmonic identities
cos kt = (e^{ikt} + e^{-ikt})/2 and sin kt = (e^{ikt} - e^{-ikt})/(2i);
the parser must reproduce the coefficients as exact Fractions, not floats.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypotorus.formulas import ExactComplex, FormulaError, TrigPolynomial, parse_formula
from hypotorus.torusfn import grid

F = Fraction


def ec(re, im=0):
    return ExactComplex(F(re), F(im))


# --------------------------------------------------------------------------- #
# ExactComplex arithmetic
# --------------------------------------------------------------------------- #

def test_exact_complex_product():
    # (1 + 2i)(3 - i) = 5 + 5i
    assert ec(1, 2) * ec(3, -1) == ec(5, 5)


def test_exact_complex_add_sub_neg():
    a, b = ec(F(1, 2), F(1, 3)), ec(F(1, 3), F(-1, 2))
    assert a + b == ec(F(5, 6), F(-1, 6))
    assert -a == ec(F(-1, 2), F(-1, 3))


def test_exact_complex_conjugate_and_zero():
    assert ec(2, 3).conj() == ec(2, -3)
    assert ec(0, 0).is_zero
    assert not ec(0, 1).is_zero


def test_exact_complex_to_complex():
    assert ec(F(1, 2), F(-3, 4)).to_complex() == 0.5 - 0.75j


# --------------------------------------------------------------------------- #
# literals and constants
# --------------------------------------------------------------------------- #

def test_parse_rational_literal():
    p = parse_formula("1/2")
    assert p.is_constant
    assert p.mean == ec(F(1, 2))


def test_parse_decimal_is_exact():
    # 0.7 must become 7/10, not the binary double
    p = parse_formula("0.7")
    assert p.mean.re == F(7, 10)


def test_parse_imaginary_unit():
    assert parse_formula("i").mean == ec(0, 1)
    assert parse_formula("2i").mean == ec(0, 2)
    assert parse_formula("-i/2").mean == ec(0, F(-1, 2))


def test_parse_complex_constant():
    p = parse_formula("1/2 + 3i/4")
    assert p.is_constant
    assert p.mean == ec(F(1, 2), F(3, 4))


# --------------------------------------------------------------------------- #
# harmonics
# --------------------------------------------------------------------------- #

def test_cos_splits_into_two_harmonics():
    p = parse_formula("cos t")
    assert p.coeff(1) == ec(F(1, 2))
    assert p.coeff(-1) == ec(F(1, 2))
    assert p.coeff(0).is_zero
    assert p.max_freq == 1


def test_sin_splits_with_imaginary_weights():
    # sin 2t = -(i/2) e^{2it} + (i/2) e^{-2it}
    p = parse_formula("sin 2t")
    assert p.coeff(2) == ec(0, F(-1, 2))
    assert p.coeff(-2) == ec(0, F(1, 2))


def test_exp_is_a_single_harmonic():
    assert parse_formula("exp(2it)").coeff(2) == ec(1)
    assert parse_formula("exp(-it)").coeff(-1) == ec(1)
    assert parse_formula("3 exp(it)").coeff(1) == ec(3)
    assert parse_formula("exp(it)").coeff(-1).is_zero


def test_frequency_spellings_agree():
    a = parse_formula("2 cos 3t")
    b = parse_formula("2 cos(3t)")
    c = parse_formula("2*cos 3 t")
    assert a.coeffs == b.coeffs == c.coeffs
    assert a.coeff(3) == ec(1)


def test_sign_change_profile():
    # i(1 - cos t): mean i, flanks -i/2
    p = parse_formula("i(1 - cos t)")
    assert p.mean == ec(0, 1)
    assert p.coeff(1) == ec(0, F(-1, 2))
    assert p.coeff(-1) == ec(0, F(-1, 2))
    assert not p.is_constant


def test_paper_style_mixed_coefficient():
    p = parse_formula("1/2 + i sin t")
    assert p.mean == ec(F(1, 2))
    # i sin t = i[-(i/2)e^{it} + (i/2)e^{-it}] = (1/2)e^{it} - (1/2)e^{-it}
    assert p.coeff(1) == ec(F(1, 2))
    assert p.coeff(-1) == ec(F(-1, 2))


def test_product_convolves_exactly():
    # cos t * cos t = 1/2 + (1/2) cos 2t
    p = parse_formula("cos t * cos t")
    assert p.coeff(0) == ec(F(1, 2))
    assert p.coeff(2) == ec(F(1, 4))
    assert p.coeff(-2) == ec(F(1, 4))
    assert p.coeff(1).is_zero


def test_division_by_numeric_literal():
    p = parse_formula("sin t / 2")
    assert p.coeff(1) == ec(0, F(-1, 4))
    q = parse_formula("3/4/2")  # left-assoc: (3/4)/2
    assert q.mean == ec(F(3, 8))


def test_unary_minus_distributes():
    p = parse_formula("-sin 2t")
    assert p.coeff(2) == ec(0, F(1, 2))
    assert p.coeff(-2) == ec(0, F(-1, 2))


def test_exact_cancellation_drops_terms():
    p = parse_formula("cos t - cos t + 1")
    assert p.is_constant
    assert p.mean == ec(1)
    assert p.freqs == (0,)


# --------------------------------------------------------------------------- #
# structure queries
# --------------------------------------------------------------------------- #

def test_real_valuedness_detection():
    assert parse_formula("1 - cos t").is_real
    assert parse_formula("sin 3t + cos t - 2").is_real
    assert not parse_formula("i sin t").is_real
    assert not parse_formula("exp(it)").is_real


def test_zero_formula():
    p = parse_formula("0")
    assert p.is_constant
    assert p.mean.is_zero
    assert p.freqs == (0,) or p.freqs == ()
    assert p.max_freq == 0


def test_mean_is_the_zero_mode():
    p = parse_formula("3/7 + cos 2t + i sin 5t")
    assert p.mean == ec(F(3, 7))
    assert p.max_freq == 5


# --------------------------------------------------------------------------- #
# synthesis
# --------------------------------------------------------------------------- #

def test_synthesis_matches_closed_form():
    p = parse_formula("i(1 - cos t)")
    f = p.to_torus_function(256)
    t = grid(256)
    want = 1j * (1.0 - np.cos(t))
    assert np.max(np.abs(f.samples - want)) < 1e-14


def test_synthesis_round_trips_coefficients():
    p = parse_formula("1/2 + i sin t + cos 4t")
    f = p.to_torus_function(64)
    for k in p.freqs:
        assert abs(f.coeffs[k % 64] - p.coeff(k).to_complex()) < 1e-15


def test_synthesis_band_limit_enforced():
    p = parse_formula("cos 40t")
    with pytest.raises(ValueError):
        p.to_torus_function(64)
    assert p.to_torus_function(128).n == 128


# --------------------------------------------------------------------------- #
# rejections: the language is total and says no clearly
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("bad", [
    "",                      # nothing
    "t",                     # naked t outside an argument
    "cos",                   # missing argument
    "cos 1.5t",              # non-integer frequency
    "exp(t)",                # exp argument must be imaginary
    "exp(2t)",               # still no i
    "(1 + i) / (2 + i)",     # division only by numeric literals
    "cos t / sin t",         # same
    "i(1 - cos t",           # unbalanced parenthesis
    "1 +",                   # dangling operator
    "foo + 1",               # unknown word
    "cos(t))",               # trailing garbage
    "1 @ 2",                 # unknown character
])
def test_rejected_inputs(bad):
    with pytest.raises(FormulaError):
        parse_formula(bad)


def test_error_reports_position():
    try:
        parse_formula("1 + foo")
        raise AssertionError("expected FormulaError")
    except FormulaError as e:
        assert "position" in str(e) or "foo" in str(e)


# --------------------------------------------------------------------------- #
# properties
# --------------------------------------------------------------------------- #

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@settings(max_examples=60, deadline=None)
@given(a=small_fracs, b=small_fracs, k=st.integers(1, 6))
def test_parse_matches_numpy_synthesis(a, b, k):
    text = f"{a} + {b} sin {k}t"
    p = parse_formula(text)
    f = p.to_torus_function(64)
    t = grid(64)
    want = float(a) + float(b) * np.sin(k * t)
    assert np.max(np.abs(f.samples - want)) < 1e-13


@settings(max_examples=40, deadline=None)
@given(a=small_fracs, b=small_fracs, k=st.integers(1, 5), m=st.integers(1, 5))
def test_addition_is_coefficientwise(a, b, k, m):
    p = parse_formula(f"{a} cos {k}t + {b} sin {m}t")
    q = parse_formula(f"{a} cos {k}t") + parse_formula(f"{b} sin {m}t")
    assert p.coeffs == q.coeffs


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 5))
def test_euler_identity(k):
    lhs = parse_formula(f"exp({k}it)")
    rhs = parse_formula(f"cos {k}t + i sin {k}t")
    assert lhs.coeffs == rhs.coeffs
