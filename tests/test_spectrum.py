import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypotorus.spectrum import HermiteBasis, _phi_matrix, build_eigensequence

# frozen oracle values (30-digit quadrature / closed forms, computed offline)
PHI0_AT_0 = 0.7511255444649425
PHI2_AT_0 = -0.5311259660135985
PHI5_AT_1_3 = -0.3993914628137507
PHI12_AT_2_7 = 0.3761831378705980


# --------------------------------------------------------------------------- #
# eigensequences
# --------------------------------------------------------------------------- #

def test_harmonic1d_values():
    e = build_eigensequence("harmonic1d", 6)
    assert list(e.lambdas) == [1, 3, 5, 7, 9, 11]
    assert (e.m, e.n) == (2, 1)
    assert e.exact_lambda(100) == 201
    assert e.ap_index == (1, 2)


def test_harmonic1d_power_values():
    e = build_eigensequence("harmonic1d_power 2", 3)
    assert list(e.lambdas) == [1, 9, 25]
    assert e.m == 4
    assert e.exact_lambda(3) == 49


def test_harmonic_nd_2_values():
    e = build_eigensequence("harmonic_nd 2", 6)
    assert list(e.lambdas) == [2, 4, 4, 6, 6, 6]
    assert (e.m, e.n) == (2, 2)


def test_harmonic_nd_multiplicities_against_bruteforce():
    # brute force: energies 2(a1+a2)+2 over alpha in N0^2, q <= 20
    J = sum(q + 1 for q in range(21))
    e = build_eigensequence("harmonic_nd 2", J)
    brute = sorted(2 * (a + b) + 2 for a in range(30) for b in range(30))[:J]
    assert list(e.lambdas) == brute
    for q in range(21):
        assert np.count_nonzero(e.lambdas == 2 * q + 2) == q + 1


def test_harmonic_nd_exact_formula_matches_window():
    # exact_lambda reads the stored window, and the closed form beyond it
    for n in (1, 2, 3, 4):
        e = build_eigensequence(f"harmonic_nd {n}", 40)
        wide = build_eigensequence(f"harmonic_nd {n}", 3000)
        for j in range(3000):
            assert e.exact_lambda(j) == wide.exact[j] == int(wide.lambdas[j])


def _whole_levels(n: int, J: int) -> tuple:
    """harmonic_nd built the old way: every energy level whole, then cut to J."""
    vals, q = [], 0
    while len(vals) < J:
        vals.extend([2 * q + n] * math.comb(q + n - 1, n - 1))
        q += 1
    return tuple(vals[:J])


@pytest.mark.parametrize("n", range(1, 7))
def test_harmonic_nd_cut_levels_match_whole_levels(n):
    for J in range(1, 501):
        e = build_eigensequence(f"harmonic_nd {n}", J)
        assert e.exact == _whole_levels(n, J)


def test_harmonic_nd_huge_dimension_builds_only_its_window():
    # level 1 alone holds 10^9 states; building it whole needed ~15 GB
    tracemalloc.start()
    try:
        e = build_eigensequence("harmonic_nd 1000000000", 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.exact == (10**9,) + (10**9 + 2,) * 7
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"


def test_table_validation():
    build_eigensequence("table", 4, values=[1, 2, 3, 10], m=2, n=1)
    with pytest.raises(ValueError):
        build_eigensequence("table", 4, values=[1, 3, 2, 10])
    with pytest.raises(ValueError):  # non-divergent tail
        build_eigensequence("table", 8, values=[1, 2, 3, 4, 5, 5, 5, 5])


def test_integer_table_order_is_checked_exactly():
    # above 2^53 the float view merges neighbouring integers
    with pytest.raises(ValueError, match="nondecreasing"):
        build_eigensequence("table", 8, values=[1, 2, 3, 4, 5, 6, 2**60 + 2, 2**60 + 1])
    big = [72057594037927900 + k for k in range(4)]
    e = build_eigensequence("table", 8, values=[1, 2, 3, 4] + big)
    assert e.exact == (1, 2, 3, 4, *big)
    with pytest.raises(ValueError, match="do not diverge"):
        build_eigensequence("table", 8, values=[1, 2, 3, 4] + [big[0]] * 4)
    with pytest.raises(ValueError):
        build_eigensequence("nonsense", 4)
    with pytest.raises(ValueError):
        build_eigensequence("harmonic1d", 0)


@pytest.mark.parametrize("kind, values", [
    ("harmonic1d_power 400", None),                       # 15^400 > 1.8e308
    ("table", [1, 2, 3, 4, 5, 6, 7, 10**400]),
    ("table", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, math.inf]),
    ("table", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, math.nan]),
])
def test_eigenvalues_beyond_the_float_range_are_refused(kind, values):
    with pytest.raises(ValueError, match="float range"):
        build_eigensequence(kind, 8, values=values)
    # the largest power that still fits is built
    assert build_eigensequence("harmonic1d_power 262", 8).lambdas[-1] == 15.0 ** 262


def test_huge_power_is_refused_before_its_integers_are_built():
    # lambda_7 = 15^k >= 2^(3k): refused from the exponent alone
    with pytest.raises(ValueError, match=r"harmonic1d_power 1000000: lambda_7 = 15\^1000000"):
        build_eigensequence("harmonic1d_power 1000000", 8)


def test_exponent_is_exact_one_over_2_n_mu():
    # n comes from the spectrum: the kind's dimension, or a table's declared n
    h1 = build_eigensequence("harmonic1d", 8)
    assert h1.exponent(Fraction(1, 2)) == 1 and isinstance(h1.exponent(1), Fraction)
    assert h1.exponent(1) == Fraction(1, 2)
    assert h1.exponent(0.7) == Fraction(5, 7)        # a float reads as 7/10
    assert build_eigensequence("harmonic_nd 2", 8).exponent(Fraction(1, 2)) == Fraction(1, 2)
    assert build_eigensequence("harmonic_nd 3", 8).exponent(Fraction(3, 2)) == Fraction(1, 9)
    tab = build_eigensequence("table", 4, values=[1, 2, 3, 4], m=4, n=5)
    assert tab.exponent(Fraction(1, 2)) == Fraction(1, 5)
    with pytest.raises(ValueError):      # so n >= 1 in every exponent
        build_eigensequence("table", 4, values=[1, 2, 3, 4], n=0)


def test_exponent_refuses_mu_below_one_half():
    h1 = build_eigensequence("harmonic1d", 8)
    for mu in (Fraction(1, 4), 0.49, 0, -1, math.nan, math.inf):
        with pytest.raises(ValueError):
            h1.exponent(mu)


def weyl_spread(e) -> float:
    """Relative spread of |lambda_j| / j^{m/2n} over the top half of the
    window: small when the window follows the Weyl law |lambda_j| ~ C j^{m/2n}."""
    j = np.arange(e.J // 2, e.J, dtype=float)
    r = np.abs(e.lambdas[e.J // 2:]) / j ** (e.m / (2.0 * e.n))
    return float((r.max() - r.min()) / np.mean(r))


def test_weyl_spread_harmonic_nd_2():
    e = build_eigensequence("harmonic_nd 2", 4096)
    assert weyl_spread(e) < 0.10


def test_weyl_spread_harmonic1d():
    # lambda_j = 2j+1 ~ 2j: ratio essentially constant over the top half
    e = build_eigensequence("harmonic1d", 4096)
    assert weyl_spread(e) < 0.01


# --------------------------------------------------------------------------- #
# Hermite functions: columns of _phi_matrix
# --------------------------------------------------------------------------- #

def phi(j: int, x) -> np.ndarray:
    """phi_j on the points x, column j of the recurrence matrix."""
    return _phi_matrix(j + 1, np.atleast_1d(np.asarray(x, dtype=np.float64)))[:, j]


def test_hermite_frozen_values():
    assert phi(0, 0.0)[0] == pytest.approx(PHI0_AT_0, abs=1e-14)
    assert phi(1, 0.0)[0] == pytest.approx(0.0, abs=1e-16)
    assert phi(2, 0.0)[0] == pytest.approx(PHI2_AT_0, abs=1e-14)
    assert phi(5, 1.3)[0] == pytest.approx(PHI5_AT_1_3, abs=1e-13)
    assert phi(12, 2.7)[0] == pytest.approx(PHI12_AT_2_7, abs=1e-13)


def test_hermite_high_mode_no_overflow():
    # j = 512 at x = 30: recurrence must stay finite (value is tiny but finite)
    assert np.isfinite(phi(512, 30.0)[0])
    x = np.linspace(-30, 30, 501)
    vals = phi(512, x)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1.0  # normalized functions are bounded by ~0.8


def test_hermite_parity():
    x = np.linspace(0.1, 4.0, 17)
    for j in (0, 1, 4, 7):
        sym = phi(j, -x) - (-1) ** j * phi(j, x)
        assert np.max(np.abs(sym)) < 1e-13


def eigen_defect(j: int, x: np.ndarray, h: float = 1e-3) -> float:
    """Grid max of |(-d^2/dx^2 + x^2 - (2j+1)) phi_j|, the second derivative
    by the 5-point central difference with step h."""
    f = lambda t: phi(j, t)
    d2 = (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x) + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)
    return float(np.max(np.abs(-d2 + (x * x) * f(x) - (2 * j + 1) * f(x))))


def test_eigenrelation_low_modes():
    for j, tol in ((0, 1e-5), (10, 1e-4)):
        half = math.sqrt(2 * j + 1) + 2.0
        assert eigen_defect(j, np.linspace(-half, half, 201)) < tol


def test_eigenrelation_odd_mode_at_origin():
    # phi_1 odd => -phi_1'' + x^2 phi_1 - 3 phi_1 vanishes at x = 0 identically
    assert eigen_defect(1, np.array([0.0])) < 1e-9


# --------------------------------------------------------------------------- #
# quadrature basis
# --------------------------------------------------------------------------- #

def test_gram_identity():
    b = HermiteBasis.build(J=64, Q=128)
    assert b.gram_deviation() < 1e-10


def test_basis_validation():
    with pytest.raises(ValueError):
        HermiteBasis.build(J=64, Q=32)     # Q < J
    with pytest.raises(ValueError):
        HermiteBasis.build(J=8, Q=1000)    # weight underflow region
    with pytest.raises(ValueError):
        HermiteBasis.build(J=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=40))
def test_gauss_quadrature_normalizes_each_mode(j):
    # ||phi_j||^2 = 1 under the modified weights as soon as Q > j
    b = HermiteBasis.build(J=48, Q=96)
    v = b.phi[:, j]
    assert np.dot(b.mod_weights, v * v) == pytest.approx(1.0, abs=1e-10)

