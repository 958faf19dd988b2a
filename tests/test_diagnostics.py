import math
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from hypotorus import diagnostics as dg
from hypotorus.diagnostics import (
    DecayFit,
    DegenerateData,
    PMColumns,
    fit_decay,
    lemma25_check,
    ols,
    pm_seminorms,
)
from hypotorus.cli import ExperimentConfig
from hypotorus.jsonio import plain
from hypotorus.modes import ModeField, solve_field
from hypotorus.spectrum import build_eigensequence
from hypotorus.torusfn import TorusFunction, grid, wavenumbers

# ---------------------------------------------------------------------------
# frozen oracle values (closed forms, not this code)
#
# * a field u_j = e^{-0.3(j+1)} (constant in t) has -log sup|u_j| exactly
#   linear in (j+1), so OLS recovers epsilon = 0.3 and C = 1 to roundoff.
# * S(0, 0) for u_j = e^{-(j+1)} constant in t is the geometric sum
#   sqrt(sum_j e^{-2(j+1)}).
# * lemma 2.5 at gamma = s = epsilon = 1: max_j j^l e^{-j} sits at j = l, so
#   C(l) = (l^l e^{-l} / l!)^{1/l} <= 1 and -> 1 from below (Stirling).
# ---------------------------------------------------------------------------


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


def test_decay_differentiates_the_field_once(monkeypatch):
    # one pass serves fit_decay and pm_seminorms: each level is derived once,
    # from the level before it, and the results are the two functions' own
    eigs = build_eigensequence("harmonic1d", 32)
    u = ModeField([TorusFunction.from_callable(
        lambda t, j=j: np.exp(-0.3 * j) * np.cos((j % 3) * t), 64) for j in range(32)], eigs)
    calls, derivative = [], ModeField.derivative
    monkeypatch.setattr(ModeField, "derivative",
                        lambda self: calls.append(self) or derivative(self))
    for k_max, pm_k_max in ((4, 4), (7, 4), (0, 0), (2, 5)):
        calls.clear()
        columns = PMColumns(eigs, 32, M_max=3, k_max=pm_k_max)
        fit = fit_decay(u, k_max=k_max, pm=columns)
        assert len(calls) == max(k_max, pm_k_max) and calls[:1] in ([], [u])
        assert len({id(d) for d in calls}) == len(calls)
        assert repr(fit.as_dict()) == repr(fit_decay(u, k_max=k_max).as_dict())
        pm, alone = columns.table(), pm_seminorms(u, eigs, M_max=3, k_max=pm_k_max)
        assert pm.values.tobytes() == alone.values.tobytes()
        assert repr(plain(pm)) == repr(plain(alone))


# fit_decay and pm_seminorms as they were when the derivative stack was a
# list of every level, each derived with the whole-array ifft


def _stack_whole(u, k_max):
    stack = [u]
    for _ in range(k_max):
        d = stack[-1]
        n = d.samples.shape[1]
        if not d.mask.any():
            stack.append(d)
            continue
        coeffs = np.fft.fft(d.samples, axis=1) / n if d._coeffs is None else d._coeffs
        dc = 1j * wavenumbers(n) * coeffs
        stack.append(ModeField._of(np.fft.ifft(dc * n, axis=1), d.mask, d.eigs, dc))
    return stack


def _fit_decay_whole(field, mu, k_max):
    J = field.J
    e = float(field.eigs.exponent(mu))
    sups = [d.sup_norms() for d in _stack_whole(field, k_max)]
    s0 = sups[0]
    usable = [j for j in range(J) if not math.isnan(s0[j]) and s0[j] > dg._FLOOR]
    if not usable:
        raise DegenerateData("floor")
    if len(usable) < 8:
        return DecayFit(epsilon=math.inf, C=float("nan"), sigma_fit=float("nan"),
                        sigma_fit_joint=float("nan"), r2=0.0, r2_sigma=0.0,
                        window=(min(usable), max(usable)), n_used=len(usable),
                        sub_exponential=False,
                        note=(f"finite support: only {len(usable)} usable modes; "
                              "no asymptotic fit"))
    ju = np.array(usable, dtype=np.float64)
    x = (ju + 1.0) ** e
    y = -np.log(s0[usable].astype(np.float64))
    eps, intercept, r2 = ols(y, x)
    C = dg._exp(-intercept)
    half = len(usable) // 2
    eps_lo, _, _ = ols(y[:half], x[:half])
    eps_hi, _, _ = ols(y[half:], x[half:])
    sub_exp = bool(eps_hi < 0.5 * eps_lo) if eps_lo > 1e-12 else bool(eps <= 1e-12)
    cols = np.array(sups)[:, usable]
    tops = np.where(np.isnan(cols), 0.0, cols).max(axis=1).tolist()
    ks = [k for k, top in enumerate(tops) if top > dg._FLOOR]
    note = ""
    if len(ks) >= 2:
        lk = np.array([math.lgamma(k + 1) for k in ks])
        z = np.array([math.log(tops[k]) - math.log(C) for k in ks]) if C > 0 \
            else np.array([math.log(tops[k]) for k in ks])
        sigma, _, r2_sigma = ols(z, lk)
        zz = np.array([math.log(tops[k]) for k in ks])
        sigma_joint, _, _, _ = ols(zz, lk, ks)
    else:
        sigma = sigma_joint = float("nan")
        r2_sigma = 0.0
        note = "derivative stack degenerate (all k >= 1 at floor); sigma undefined"
    return DecayFit(epsilon=float(eps), C=float(C), sigma_fit=float(sigma),
                    sigma_fit_joint=float(sigma_joint), r2=float(r2),
                    r2_sigma=float(r2_sigma), window=(int(min(usable)), int(max(usable))),
                    n_used=len(usable), sub_exponential=sub_exp, note=note)


def _pm_whole(u, eigs, M_max, k_max):
    J = u.J
    lam = np.abs(np.asarray(eigs.lambdas[:J], dtype=np.float64))
    with np.errstate(divide="ignore"):
        loglam = np.log(lam)
    logabs = []
    for d in _stack_whole(u, k_max):
        a = np.abs(d.samples)
        mat = np.full(a.shape, -np.inf)
        np.log(a, where=(a > 0.0) & d.mask[:, None], out=mat)
        logabs.append(mat)
    values = np.zeros((M_max + 1, k_max + 1))
    tail_share = 0.0
    alive = np.flatnonzero(np.isfinite(logabs[0]).any(axis=1))
    j_last = int(alive[-1]) if alive.size else None
    for M in range(M_max + 1):
        w = np.zeros(J) if M == 0 else 2.0 * M * loglam
        for k in range(k_max + 1):
            lt = w[:, None] + 2.0 * logabs[k]
            log_s2 = dg._logsumexp(lt, axis=0)
            peak = float(np.max(log_s2))
            values[M, k] = 0.0 if peak == -np.inf else dg._exp(0.5 * peak)
            if M == M_max and j_last is not None and peak > -np.inf:
                t_star = int(np.argmax(log_s2))
                share = lt[j_last, t_star] - log_s2[t_star]
                if math.isfinite(share):
                    tail_share = max(tail_share, math.exp(share))
    return values, tail_share


def _random_field(J, n, seed, undefined, zero_rows):
    rng = np.random.default_rng(seed)
    rate, freq = rng.uniform(0.0, 0.5), rng.integers(0, n // 2, size=J)
    t = grid(n)
    samples = (np.exp(-rate * np.arange(J))[:, None]
               * (rng.standard_normal((J, 1)) * np.exp(1j * freq[:, None] * t)
                  + 0.1 * rng.standard_normal((J, n))))
    mask = rng.random(J) >= undefined
    samples[rng.random(J) < zero_rows] = 0.0
    samples[~mask] = 0.0
    return ModeField._of(samples, mask, build_eigensequence("harmonic1d", J))


@given(J=st.integers(32, 64), logn=st.integers(3, 6), seed=st.integers(0, 2**32 - 1),
       undefined=st.sampled_from([0.0, 0.2, 0.9, 1.0]), zero_rows=st.sampled_from([0.0, 0.3]),
       k_max=st.integers(0, 6), M_max=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_one_level_at_a_time_keeps_the_bytes(J, logn, seed, undefined, zero_rows,
                                             k_max, M_max):
    u = _random_field(J, 1 << logn, seed, undefined, zero_rows)
    try:
        want = _fit_decay_whole(u, Fraction(1, 2), k_max)
    except DegenerateData:
        with pytest.raises(DegenerateData):
            fit_decay(u, k_max=k_max)
    else:
        assert repr(fit_decay(u, k_max=k_max).as_dict()) == repr(want.as_dict())
        # one pass for both, as decay runs them
        columns = PMColumns(u.eigs, J, M_max, min(k_max, 4))
        assert repr(fit_decay(u, k_max=k_max, pm=columns).as_dict()) == repr(want.as_dict())
        values, tail = _pm_whole(u, u.eigs, M_max, min(k_max, 4))
        pm = columns.table()
        assert (pm.values.tobytes(), repr(pm.tail_share)) == (values.tobytes(), repr(tail))
    values, tail = _pm_whole(u, u.eigs, M_max, k_max)
    table = pm_seminorms(u, u.eigs, M_max=M_max, k_max=k_max)
    assert (table.values.tobytes(), repr(table.tail_share)) == (values.tobytes(), repr(tail))
    ks, Ms = np.arange(k_max + 1), np.arange(M_max + 1)
    for ys, idx, got in ((values[0, :], ks, (table.slope_k, table.slope_k_raw, table.r2_k)),
                         (values[:, 0], Ms, (table.slope_M, table.slope_M_raw, table.r2_M))):
        keep = ys > 0.0
        if keep.sum() < 3:
            assert all(math.isnan(g) for g in got)
            continue
        xi = idx[keep].astype(np.float64)
        x1 = xi * np.log(np.maximum(xi, 1.0))
        raw, _, _ = ols(np.log(ys[keep]), x1)
        joint, _, _, r2 = ols(np.log(ys[keep]), x1, xi)
        assert repr(got) == repr((joint, raw, r2))


def test_decay_pass_holds_about_two_levels():
    # J = 128, N = 1024, k_max = 4: the list of every level (samples and
    # coefficients each) peaked near 14 copies of the field; one level at a
    # time, beside the level it comes from, stays within 8
    eigs = build_eigensequence("harmonic1d", 128)
    rng = np.random.default_rng(9)
    samples = ((rng.standard_normal((128, 1024)) + 1j * rng.standard_normal((128, 1024)))
               * np.exp(-0.2 * np.arange(128))[:, None])
    u = ModeField._of(samples, np.ones(128, dtype=bool), eigs)
    tracemalloc.start()
    try:
        fit_decay(u, k_max=4, pm=PMColumns(eigs, 128, M_max=8, k_max=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * samples.nbytes, f"peak {peak / samples.nbytes:.1f} fields"


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
    # constant coefficients lose no Gevrey order: sigma(u) ~ sigma(f)
    eigs = build_eigensequence("harmonic1d", 48)
    f = _field_of_harmonics(eigs, 0.5)
    u, _ = solve_field(TorusFunction.constant(0.5, 64), f)
    f_fit = fit_decay(f, k_max=4)
    u_fit = fit_decay(u, k_max=4)
    assert abs(u_fit.sigma_fit - f_fit.sigma_fit) < 0.3


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
