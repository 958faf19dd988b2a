import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypotorus.spectrum import (
    EigenSequence,
    HermiteBasis,
    analyze_x,
    build_eigensequence,
    check_eigenrelation,
    hermite_eval,
    ladder_diff_x,
    ladder_mul_x,
    synthesize_x,
    weyl_ratio_spread,
)

# frozen oracle values (30-digit quadrature / closed forms, computed offline)
PHI0_AT_0 = 0.7511255444649425
PHI2_AT_0 = -0.5311259660135985
PHI5_AT_1_3 = -0.3993914628137507
PHI12_AT_2_7 = 0.3761831378705980
IP_GAUSS_PHI0 = 1.0870307726111885   # <e^{-x^2}, phi_0> = pi^{1/4} sqrt(2/3)
IP_GAUSS_PHI2 = -0.2562156102239411
IP_GAUSS_PHI4 = 0.0739630757666883


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


def test_eigensequence_csv_roundtrip():
    e = build_eigensequence("harmonic1d", 10)
    text = e.to_csv()
    assert text.splitlines()[0] == "j,lambda"
    e2 = EigenSequence.from_csv(text, m=2, n=1)
    assert list(e2.lambdas) == list(e.lambdas)
    assert e2.exact == e.exact


def test_weyl_spread_harmonic_nd_2():
    e = build_eigensequence("harmonic_nd 2", 4096)
    assert weyl_ratio_spread(e) < 0.10


def test_weyl_spread_harmonic1d():
    # lambda_j = 2j+1 ~ 2j: ratio essentially constant over the top half
    e = build_eigensequence("harmonic1d", 4096)
    assert weyl_ratio_spread(e) < 0.01


# --------------------------------------------------------------------------- #
# Hermite evaluation
# --------------------------------------------------------------------------- #

def test_hermite_frozen_values():
    assert hermite_eval(0, 0.0) == pytest.approx(PHI0_AT_0, abs=1e-14)
    assert hermite_eval(1, 0.0) == pytest.approx(0.0, abs=1e-16)
    assert hermite_eval(2, 0.0) == pytest.approx(PHI2_AT_0, abs=1e-14)
    assert hermite_eval(5, 1.3) == pytest.approx(PHI5_AT_1_3, abs=1e-13)
    assert hermite_eval(12, 2.7) == pytest.approx(PHI12_AT_2_7, abs=1e-13)


def test_hermite_high_mode_no_overflow():
    # j = 512 at x = 30: recurrence must stay finite (value is tiny but finite)
    v = hermite_eval(512, 30.0)
    assert np.isfinite(v)
    x = np.linspace(-30, 30, 501)
    vals = hermite_eval(512, x)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1.0  # normalized functions are bounded by ~0.8


def test_hermite_parity():
    x = np.linspace(0.1, 4.0, 17)
    for j in (0, 1, 4, 7):
        sym = hermite_eval(j, -x) - (-1) ** j * hermite_eval(j, x)
        assert np.max(np.abs(sym)) < 1e-13


def test_hermite_rejects_negative_mode():
    with pytest.raises(ValueError):
        hermite_eval(-1, 0.0)


# --------------------------------------------------------------------------- #
# quadrature basis: Gram, analyze, synthesize
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


def test_analyze_picks_out_unit_vectors():
    b = HermiteBasis.build(J=16)
    g = hermite_eval(3, b.nodes)
    c = analyze_x(g, b)
    expect = np.zeros(16)
    expect[3] = 1.0
    assert np.max(np.abs(c - expect)) < 1e-10


def test_analyze_linearity():
    b = HermiteBasis.build(J=8)
    g = hermite_eval(0, b.nodes) + 2.0 * hermite_eval(5, b.nodes)
    c = analyze_x(g, b)
    expect = np.zeros(8)
    expect[0], expect[5] = 1.0, 2.0
    assert np.max(np.abs(c - expect)) < 1e-10


def test_analyze_gaussian_against_independent_quadrature():
    # oracle: 10^4-point composite quadrature on |x| <= 12, plus frozen values.
    # e^{-x^2} is not a finite phi-sum, so analysis is only quadrature-exact in
    # the Q -> inf limit; Q = 64 puts the Gauss-Hermite error near roundoff.
    b = HermiteBasis.build(J=6, Q=64)
    c = analyze_x(np.exp(-b.nodes ** 2), b)
    xs = np.linspace(-12.0, 12.0, 10_000)
    for j, frozen in ((0, IP_GAUSS_PHI0), (2, IP_GAUSS_PHI2), (4, IP_GAUSS_PHI4)):
        oracle = np.trapezoid(np.exp(-xs ** 2) * hermite_eval(j, xs), xs)
        assert oracle == pytest.approx(frozen, abs=1e-12)
        assert c[j] == pytest.approx(frozen, abs=1e-10)
    # closed form for j = 0: pi^{1/4} sqrt(2/3)
    assert c[0] == pytest.approx(np.pi ** 0.25 * math.sqrt(2.0 / 3.0), abs=1e-12)
    # odd coefficients vanish by parity
    assert abs(c[1]) < 1e-12 and abs(c[3]) < 1e-12


def test_analyze_synthesize_projection_identity():
    b = HermiteBasis.build(J=12)
    g = hermite_eval(2, b.nodes) + hermite_eval(4, b.nodes)
    back = synthesize_x(analyze_x(g, b), b)
    assert np.max(np.abs(back - g)) < 1e-9


def test_synthesize_on_arbitrary_grid():
    x = np.linspace(-3, 3, 41)
    c = np.zeros(5)
    c[0] = 1.0
    assert np.max(np.abs(synthesize_x(c, x) - hermite_eval(0, x))) < 1e-13
    assert np.max(np.abs(synthesize_x(np.zeros(5), x))) == 0.0


def test_analyze_shape_mismatch():
    b = HermiteBasis.build(J=4)
    with pytest.raises(ValueError):
        analyze_x(np.zeros(7), b)
    with pytest.raises(ValueError):
        synthesize_x(np.zeros(10), b)


# --------------------------------------------------------------------------- #
# eigenrelation and ladders
# --------------------------------------------------------------------------- #

def test_eigenrelation_low_modes():
    assert check_eigenrelation(0) < 1e-5
    assert check_eigenrelation(10) < 1e-4


def test_eigenrelation_odd_mode_at_origin():
    # phi_1 odd => -phi_1'' + x^2 phi_1 - 3 phi_1 vanishes at x = 0 identically
    assert check_eigenrelation(1, x_grid=np.array([0.0])) < 1e-9


def test_ladder_mul_x_matches_pointwise():
    x = np.linspace(-4, 4, 81)
    c = np.array([0.3, -1.0, 0.0, 2.0])
    lhs = synthesize_x(ladder_mul_x(c), x)
    rhs = x * synthesize_x(c, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_ladder_diff_x_matches_spectral_derivative():
    # derivative of phi_0: phi_0' = -x phi_0 = -(1/sqrt2) phi_1
    d = ladder_diff_x(np.array([1.0]))
    assert d[0] == pytest.approx(0.0)
    assert d[1] == pytest.approx(-1.0 / math.sqrt(2.0))
    # sup |phi_0'| = pi^{-1/4} e^{-1/2} (calculus oracle)
    x = np.linspace(-6, 6, 4001)
    vals = synthesize_x(d, x)
    assert np.max(np.abs(vals)) == pytest.approx(np.pi ** -0.25 * math.exp(-0.5), abs=1e-6)


def test_ladder_eigenrelation_exact():
    # H = -(d/dx)^2 + x^2 acting through ladders: H e_j = (2j+1) e_j
    for j in range(6):
        c = np.zeros(j + 1)
        c[j] = 1.0
        hc = -ladder_diff_x(ladder_diff_x(c)) + ladder_mul_x(ladder_mul_x(c))
        expect = np.zeros(j + 3)
        expect[j] = 2 * j + 1
        assert np.max(np.abs(hc - expect)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=40))
def test_gauss_quadrature_normalizes_each_mode(j):
    # ||phi_j||^2 = 1 under the modified weights as soon as Q > j
    b = HermiteBasis.build(J=48, Q=96)
    v = b.phi[:, j]
    assert np.dot(b.mod_weights, v * v) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=4, max_size=4))
def test_analyze_synthesize_roundtrip_property(coeffs):
    b = HermiteBasis.build(J=8)
    c0 = np.zeros(8)
    c0[: 4] = coeffs
    g = synthesize_x(c0, b)
    c1 = analyze_x(g, b)
    assert np.max(np.abs(c1 - c0)) < 1e-9 * (1 + np.max(np.abs(c0)))
