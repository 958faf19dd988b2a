import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from hypotorus.diagnostics import (
    DecayFit,
    DegenerateData,
    DimensionUnsupported,
    fit_decay,
    lemma25_check,
    ols,
    pm_seminorms,
    regularity_loss_report,
    x_seminorms,
)
from hypotorus.cli import ExperimentConfig
from hypotorus.modes import ModeField, solve_field
from hypotorus.spectrum import HermiteBasis, build_eigensequence
from hypotorus.torusfn import TorusFunction

# ---------------------------------------------------------------------------
# frozen oracle values (closed forms, not this code)
#
# * sup|phi_0| = pi^{-1/4}; sup|phi_0'| = sup |x| pi^{-1/4} e^{-x^2/2} attained
#   at |x| = 1, giving pi^{-1/4} e^{-1/2}; |x phi_0| peaks at the same value.
# * a field u_j = e^{-0.3(j+1)} (constant in t) has -log sup|u_j| exactly
#   linear in (j+1), so OLS recovers epsilon = 0.3 and C = 1 to roundoff.
# * S(0, 0) for u_j = e^{-(j+1)} constant in t is the geometric sum
#   sqrt(sum_j e^{-2(j+1)}).
# * lemma 2.5 at gamma = s = epsilon = 1: max_j j^l e^{-j} sits at j = l, so
#   C(l) = (l^l e^{-l} / l!)^{1/l} <= 1 and -> 1 from below (Stirling).
# ---------------------------------------------------------------------------
SUP_PHI0 = math.pi ** -0.25
SUP_DPHI0 = math.pi ** -0.25 * math.exp(-0.5)


def constant_field(rates, eigs, n=64):
    """u_j = e^{-rates[j]} as a constant function of t."""
    return ModeField([TorusFunction.constant(math.exp(-r), n) for r in rates], eigs)


# --------------------------------------------------------------------------- #
# Gelfand-Shilov parameters: mu on the spectrum, sigma in the config, n >= 1
# --------------------------------------------------------------------------- #

def test_gsparams_validation():
    field = constant_field([0.3 * (j + 1) for j in range(32)],
                           build_eigensequence("harmonic1d", 32))
    with pytest.raises(ValueError):
        fit_decay(field, mu=0.25, k_max=0)           # mu < 1/2
    with pytest.raises(ValueError):
        ExperimentConfig({"params": {"sigma": 1.0}})  # sigma <= 1
    with pytest.raises(ValueError):
        ExperimentConfig({"params": {"sigma": math.inf}})
    with pytest.raises(ValueError):
        build_eigensequence("table", 4, values=[1, 2, 3, 4], n=0)


# --------------------------------------------------------------------------- #
# least squares
# --------------------------------------------------------------------------- #

def exact_ols(y, *xs):
    """(b_1, ..., b_k, c, r^2) from the normal equations in rational arithmetic."""
    n = len(y)
    Y = [Fraction(v) for v in y]
    X = [[Fraction(v) for v in x] for x in xs]
    my, mx = sum(Y) / n, [sum(x) / n for x in X]
    yc = [v - my for v in Y]
    xc = [[v - m for v in x] for x, m in zip(X, mx)]
    A = [[sum(a * b for a, b in zip(p, q)) for q in xc] for p in xc]
    r = [sum(a * b for a, b in zip(p, yc)) for p in xc]
    if len(xs) == 1:
        b = [r[0] / A[0][0]]
    else:
        det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
        b = [(r[0] * A[1][1] - r[1] * A[0][1]) / det,
             (A[0][0] * r[1] - A[1][0] * r[0]) / det]
    res = [v - sum(bi * x[t] for bi, x in zip(b, xc)) for t, v in enumerate(yc)]
    r2 = 1 - sum(v * v for v in res) / sum(v * v for v in yc)
    return [float(v) for v in b] + [float(my - sum(bi * m for bi, m in zip(b, mx))),
                                    float(r2)]


def test_ols_matches_exact_least_squares():
    rng = np.random.default_rng(7)
    k = np.arange(5.0)
    lk = np.array([math.lgamma(v + 1) for v in k])
    cases = [
        (3.0 - 0.7 * (k + 1) ** 0.5 + 0.01 * rng.standard_normal(5), ((k + 1) ** 0.5,)),
        (2.0 + 1e-12 * rng.standard_normal(5), (lk,)),          # near-flat data
        (2.0 + 1e-12 * rng.standard_normal(5), (lk, k)),
        (rng.standard_normal(8), (np.arange(8.0) ** 2, np.arange(8.0))),
        (np.log(np.arange(1.0, 65.0)), ((np.arange(64.0) + 1) ** 0.25,)),
    ]
    for y, xs in cases:
        got, want = ols(y, *xs), exact_ols(y, *xs)
        assert len(got) == len(xs) + 2
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w) + 1e-300


def test_ols_zero_variance_and_constant_data():
    y = np.array([1.0, 2.0, 4.0])
    slope, c, r2 = ols(y, np.full(3, 2.5))
    assert slope == 0.0 and r2 == 1.0 and abs(c - 7.0 / 3.0) < 1e-15
    slope_flat, slope, c, r2 = ols(y, np.zeros(3), np.arange(3.0))
    assert slope_flat == 0.0 and abs(slope - 1.5) < 1e-15 and r2 < 1.0
    # a constant y has slopes of exactly zero, whatever its mean rounds to
    x = (np.arange(64, 128) + 1.0) ** 0.5
    assert ols(np.full(64, 3.7), x) == (0.0, 3.7, 1.0)


def test_fit_decay_k_max_1_reaches_the_zero_variance_case():
    # with k_max = 1 the derivative-growth regressor log k! is (0, 0): the
    # documented zero-variance result, sigma 0 with r^2 1, is what comes out.
    # The other fits regress on strictly increasing abscissae ((j+1)^e,
    # k log k with k >= 3 points, lambda_j) and cannot reach the case.
    eigs = build_eigensequence("harmonic1d", 32)
    field = ModeField([TorusFunction.harmonic(1, 64) * math.exp(-(j + 1))
                       for j in range(32)], eigs)
    fit = fit_decay(field, k_max=1)
    assert fit.sigma_fit == 0.0 and fit.r2_sigma == 1.0
    assert fit.sigma_fit_joint == 0.0


# --------------------------------------------------------------------------- #
# fit_decay
# --------------------------------------------------------------------------- #

def test_fit_decay_recovers_synthetic_exponential():
    eigs = build_eigensequence("harmonic1d", 48)
    field = constant_field([0.3 * (j + 1) for j in range(48)], eigs)
    fit = fit_decay(field, k_max=2)
    assert abs(fit.epsilon - 0.3) < 1e-9
    assert abs(fit.C - 1.0) < 1e-9
    assert fit.r2 > 0.999
    assert fit.reliable
    assert not fit.sub_exponential


def test_fit_decay_flags_polynomial_decay():
    eigs = build_eigensequence("harmonic1d", 256)
    field = ModeField([TorusFunction.constant((j + 1.0) ** -2, 32)
                       for j in range(256)], eigs)
    fit = fit_decay(field, k_max=0)
    assert fit.sub_exponential
    assert fit.epsilon < 0.1


def test_fit_decay_single_mode_is_trivial():
    eigs = build_eigensequence("harmonic1d", 32)
    f0 = TorusFunction.from_callable(np.sin, 64)
    field = ModeField([f0] + [TorusFunction.zero(64) for _ in range(31)], eigs)
    fit = fit_decay(field, k_max=1)
    assert not fit.reliable
    assert "finite support" in fit.note


def test_fit_decay_rejects_empty_and_small():
    eigs = build_eigensequence("harmonic1d", 32)
    dead = ModeField([TorusFunction.zero(32) for _ in range(32)], eigs)
    with pytest.raises(DegenerateData):
        fit_decay(dead, k_max=0)
    small = constant_field([j + 1.0 for j in range(8)],
                           build_eigensequence("harmonic1d", 8))
    with pytest.raises(ValueError):
        fit_decay(small, k_max=0)


def test_fit_decay_sigma_from_harmonic_stack():
    # u_j = e^{-(j+1)} e^{it}: d^k u_j has sup e^{-(j+1)}, so
    # sup_j sup_t |d^k u_j| = e^{-1} for every k and sigma_fit ~ 0
    eigs = build_eigensequence("harmonic1d", 32)
    field = ModeField([TorusFunction.harmonic(1, 64) * math.exp(-(j + 1))
                       for j in range(32)], eigs)
    fit = fit_decay(field, k_max=6)
    assert abs(fit.epsilon - 1.0) < 1e-9
    assert abs(fit.sigma_fit) < 0.05


def test_fit_decay_sigma_sees_factorial_growth():
    # u_j = e^{-(j+1)} cos(5t): sup|d^k| = 5^k e^{-1} -> log-sup grows like
    # k log 5, which against log k! fits a small positive sigma; the joint
    # fit absorbs the 5^k factor into C and drops sigma to ~0
    eigs = build_eigensequence("harmonic1d", 32)
    base = TorusFunction.from_callable(lambda t: np.cos(5 * t), 128)
    field = ModeField([base * math.exp(-(j + 1)) for j in range(32)], eigs)
    fit = fit_decay(field, k_max=6)
    assert fit.sigma_fit > 0.1
    assert abs(fit.sigma_fit_joint) < 0.1


# --------------------------------------------------------------------------- #
# pm_seminorms
# --------------------------------------------------------------------------- #

def test_pm_table_is_all_ones_for_ground_mode_cosine():
    eigs = build_eigensequence("harmonic1d", 8)
    u = ModeField.single_mode(eigs, 0, TorusFunction.from_callable(np.cos, 64), J=8)
    table = pm_seminorms(u, eigs, M_max=5, k_max=3)
    assert table.values.shape == (6, 4)
    assert np.allclose(table.values, 1.0, atol=1e-9)


def test_pm_row_zero_matches_geometric_sum():
    J = 24
    eigs = build_eigensequence("harmonic1d", J)
    field = constant_field([j + 1.0 for j in range(J)], eigs)
    table = pm_seminorms(field, eigs, M_max=2, k_max=2)
    oracle = math.sqrt(sum(math.exp(-2.0 * (j + 1)) for j in range(J)))
    assert abs(table.values[0, 0] - oracle) < 1e-12
    # constants in t: every k >= 1 row vanishes
    assert np.all(table.values[:, 1:] == 0.0)


def test_decay_differentiates_the_field_once():
    # fit_decay then pm_seminorms on one field: the second derivative stack
    # is made of the first one's fields, not of rebuilt copies
    def stack(u):
        out = [u]
        for _ in range(4):
            out.append(out[-1].derivative())
        return out

    eigs = build_eigensequence("harmonic1d", 32)
    u = ModeField([TorusFunction.from_callable(
        lambda t, j=j: np.exp(-0.3 * j) * np.cos((j % 3) * t), 64) for j in range(32)], eigs)
    fit_decay(u, k_max=4)
    first = stack(u)
    pm_seminorms(u, eigs, k_max=4)
    assert all(a is b for a, b in zip(first, stack(u)))


def test_pm_zero_field_is_zero():
    eigs = build_eigensequence("harmonic1d", 8)
    table = pm_seminorms(ModeField.zeros(eigs, 8, 32), eigs, M_max=3, k_max=2)
    assert np.all(table.values == 0.0)


def test_pm_log_space_survives_huge_weights():
    # lambda_J^{2M} overflows doubles long before M = 12; the log-space path
    # must return finite values matching a mpmath-style shifted evaluation
    J = 64
    eigs = build_eigensequence("harmonic1d", J)
    field = constant_field([j + 1.0 for j in range(J)], eigs)
    table = pm_seminorms(field, eigs, M_max=12, k_max=0)
    assert np.all(np.isfinite(table.values))
    # direct shifted oracle at M = 12: factor out the largest term
    lam = np.array([2 * j + 1 for j in range(J)], dtype=float)
    logterms = 24.0 * np.log(lam) - 2.0 * (np.arange(J) + 1.0)
    peak = logterms.max()
    oracle = math.exp(0.5 * (peak + math.log(np.sum(np.exp(logterms - peak)))))
    assert abs(table.values[12, 0] - oracle) < 1e-9 * oracle


def test_pm_slope_tracks_the_weyl_exponent():
    # e^{-(j+1)} on harmonic1d, m = 2, mu = 1/2: the M-slope of log S
    # against M log M should settle near m*mu = 1
    J = 64
    eigs = build_eigensequence("harmonic1d", J)
    field = constant_field([j + 1.0 for j in range(J)], eigs)
    table = pm_seminorms(field, eigs, M_max=12, k_max=0)
    assert table.slope_M == pytest.approx(1.0, abs=0.2)
    assert table.r2_M > 0.99


def test_pm_table_csv_round_trip():
    eigs = build_eigensequence("harmonic1d", 8)
    u = ModeField.single_mode(eigs, 0, TorusFunction.from_callable(np.cos, 64), J=8)
    table = pm_seminorms(u, eigs, M_max=2, k_max=1)
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "M,k,S"
    assert len(lines) == 1 + 3 * 2
    m, k, s = lines[1].split(",")
    assert (int(m), int(k)) == (0, 0)
    assert float(s) == table.values[0, 0]


# --------------------------------------------------------------------------- #
# x_seminorms
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def basis16():
    return HermiteBasis.build(16)


def test_x_seminorm_ground_state_sup(basis16):
    eigs = build_eigensequence("harmonic1d", 16)
    u = ModeField.single_mode(eigs, 0, TorusFunction.constant(1.0, 32), J=16)
    val = x_seminorms(u, basis16, alpha=0, beta=0, k=0)
    assert abs(val - SUP_PHI0) < 1e-6


def test_x_seminorm_ground_state_derivative(basis16):
    eigs = build_eigensequence("harmonic1d", 16)
    u = ModeField.single_mode(eigs, 0, TorusFunction.constant(1.0, 32), J=16)
    assert abs(x_seminorms(u, basis16, alpha=0, beta=1, k=0) - SUP_DPHI0) < 1e-5
    # |x phi_0| peaks at the same closed-form value
    assert abs(x_seminorms(u, basis16, alpha=1, beta=0, k=0) - SUP_DPHI0) < 1e-5


def test_x_seminorm_time_derivative_scales(basis16):
    # u_0(t) = cos t: d_t u has the same x-profile, sup unchanged
    eigs = build_eigensequence("harmonic1d", 16)
    u = ModeField.single_mode(eigs, 0, TorusFunction.from_callable(np.cos, 64), J=16)
    v0 = x_seminorms(u, basis16, alpha=0, beta=0, k=0)
    v1 = x_seminorms(u, basis16, alpha=0, beta=0, k=1)
    assert abs(v0 - SUP_PHI0) < 1e-6
    assert abs(v1 - SUP_PHI0) < 1e-6


def test_x_seminorm_zero_field(basis16):
    eigs = build_eigensequence("harmonic1d", 16)
    assert x_seminorms(ModeField.zeros(eigs, 16, 32), basis16, 0, 0, 0) == 0.0


def test_x_seminorm_guards(basis16):
    eigs2 = build_eigensequence("harmonic_nd 2", 8)
    u2 = ModeField([TorusFunction.constant(1.0, 32) for _ in range(8)], eigs2)
    with pytest.raises(DimensionUnsupported):
        x_seminorms(u2, basis16, 0, 0, 0)
    eigs = build_eigensequence("harmonic1d", 16)
    u = ModeField.single_mode(eigs, 0, TorusFunction.constant(1.0, 32), J=16)
    with pytest.raises(ValueError):
        x_seminorms(u, basis16, alpha=9, beta=0, k=0)
    with pytest.raises(ValueError):
        x_seminorms(u, basis16, alpha=0, beta=-1, k=0)


# --------------------------------------------------------------------------- #
# lemma25_check
# --------------------------------------------------------------------------- #

def test_lemma25_matches_direct_maximization():
    res = lemma25_check(gamma=1.0, s=1.0, epsilon=1.0, ell_max=6, j_max=10 ** 5)
    js = np.arange(1, 10 ** 5 + 1, dtype=np.float64)
    for ell in range(1, 7):
        brute = np.max(ell * np.log(js) - js) - 1.0 * math.lgamma(ell + 1)
        assert abs(res.C_of_ell[ell] - math.exp(brute / ell)) < 1e-12


def test_lemma25_bounded_at_the_spec_point():
    res = lemma25_check(gamma=1.0, s=1.0, epsilon=1.0, ell_max=20, j_max=10 ** 6)
    assert res.C_max <= 1.0 + 1e-12      # Stirling: C(l) = (l^l e^{-l}/l!)^{1/l} < 1
    assert res.bounded
    assert res.C_of_ell[0] == 1.0        # l = 0 convention


def test_lemma25_harmonic_transfer_point():
    # gamma = m/2n = 1, s = 2 n mu = 1 at (m, n, mu) = (2, 1, 1/2)
    res = lemma25_check(gamma=1.0, s=1.0, epsilon=0.5, ell_max=12, j_max=10 ** 6)
    assert res.bounded
    # smaller epsilon -> larger constant, still finite
    assert res.C_max > 1.0


def test_lemma25_validates_inputs():
    with pytest.raises(ValueError):
        lemma25_check(gamma=-1.0, s=1.0, epsilon=1.0)
    with pytest.raises(ValueError):
        lemma25_check(gamma=1.0, s=0.0, epsilon=1.0)
    with pytest.raises(ValueError):
        lemma25_check(gamma=1.0, s=1.0, epsilon=0.0)


@given(ell=st.integers(min_value=1, max_value=12),
       eps=st.floats(min_value=0.2, max_value=3.0),
       s=st.floats(min_value=0.5, max_value=2.5))
@settings(max_examples=30, deadline=None)
def test_lemma25_is_a_true_upper_bound(ell, eps, s):
    res = lemma25_check(gamma=1.0, s=s, epsilon=eps, ell_max=ell, j_max=10 ** 4)
    js = np.arange(1, 10 ** 4 + 1, dtype=np.float64)
    lhs = np.max(js ** ell * np.exp(-eps * js ** (1.0 / s)))
    assert lhs <= res.C_of_ell[ell] ** ell * math.gamma(ell + 1) ** s * (1 + 1e-9)


# --------------------------------------------------------------------------- #
# regularity loss
# --------------------------------------------------------------------------- #

def _field_of_harmonics(eigs, rate, n=64, freq=1):
    return ModeField([TorusFunction.harmonic(freq, n) * math.exp(-rate * (j + 1))
                      for j in range(eigs.J)], eigs)


def test_regularity_no_loss_for_constant_coefficient():
    eigs = build_eigensequence("harmonic1d", 48)
    f = _field_of_harmonics(eigs, 0.5)
    u, _ = solve_field(TorusFunction.constant(0.5, 64), f)
    f_fit = fit_decay(f, k_max=4)
    u_fit = fit_decay(u, k_max=4)
    rep = regularity_loss_report(f_fit, u_fit, eigs, Fraction(1, 2))
    assert rep["bound_sigma"] == max(f_fit.sigma_fit, float(eigs.m) * 0.5)
    assert rep["within_bound"]
    assert abs(u_fit.sigma_fit - f_fit.sigma_fit) < 0.3
    assert not rep["loss_detected"]


def test_regularity_bound_arithmetic():
    m2 = build_eigensequence("harmonic1d", 8)             # order m = 2
    m4 = build_eigensequence("harmonic1d_power 2", 8)     # order m = 4
    fit = DecayFit(epsilon=1.0, C=1.0, sigma_fit=2.0, sigma_fit_joint=2.0,
                   r2=0.99, r2_sigma=0.99, window=(0, 10), n_used=10,
                   sub_exponential=False, note="")
    rep2 = regularity_loss_report(fit, fit, m2)
    rep4 = regularity_loss_report(fit, fit, m4)
    assert rep2["bound_sigma"] == 2.0     # max(2, 2*1/2) = 2
    assert rep4["bound_sigma"] == 2.0     # max(2, 4*1/2) = 2
    lowfit = DecayFit(epsilon=1.0, C=1.0, sigma_fit=1.2, sigma_fit_joint=1.2,
                      r2=0.99, r2_sigma=0.99, window=(0, 10), n_used=10,
                      sub_exponential=False, note="")
    rep = regularity_loss_report(lowfit, lowfit, m4)
    assert rep["bound_sigma"] == 2.0      # mu*m dominates sigma_fit = 1.2


# --------------------------------------------------------------------------- #
# cross-module invariant: GH solves keep at least half the decay rate
# --------------------------------------------------------------------------- #

def test_solved_field_keeps_half_the_input_decay():
    eigs = build_eigensequence("harmonic1d", 48)
    f = _field_of_harmonics(eigs, 0.4)
    u, _ = solve_field(TorusFunction.constant(0.5, 64), f)
    eps_f = fit_decay(f, k_max=0).epsilon
    eps_u = fit_decay(u, k_max=0).epsilon
    assert eps_u >= 0.5 * eps_f
