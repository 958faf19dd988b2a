import math
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypotorus.modes import (
    DivisorReport,
    ModeField,
    ResonantMode,
    apply_mode,
    apply_operator,
    small_divisor,
    solve_field,
    solve_mode,
    solve_mode_detailed,
)
from hypotorus.modes import (_CHUNK_CELLS, _apply_rows, _band_width, _banded_chunk,
                             _banded_lu_solve, _solve_cyclic_banded, operator_residuals,
                             row_chunks)
from hypotorus import csvio
from hypotorus.spectrum import build_eigensequence
from hypotorus.torusfn import TorusFunction, grid, wavenumbers

# ---------------------------------------------------------------------------
# frozen oracle values (30-digit mpmath quadrature of the closed formulas,
# computed offline against the *integral* definitions, not this code)
#
# instance A: lam = 3, c = 1/2 + (i/4)(1 - cos t)   [b0 > 0 -> second formula]
# instance B: lam = 3, c = 1/2 - (i/4)(1 - cos t)   [b0 < 0 -> first formula]
# instance C: lam = 3, c = 0.3 + 0.2 cos t          [b == 0 -> tie, first]
# f = e^{it} throughout
# ---------------------------------------------------------------------------
UA_0 = 0.0560662326908771 - 0.4343288760037368j
UA_PI2 = 0.3786373631952961 - 0.1588961144472730j
UB_0 = -0.0560662326908771 - 0.4343288760037368j
UB_PI2 = 0.3411363755975455 + 0.1220690504319333j
UC_0 = 0.0 + 0.1603413352564199j


def c_instance(which: str, n: int = 256) -> TorusFunction:
    t = grid(n)
    if which == "A":
        return TorusFunction(0.5 + 0.25j * (1 - np.cos(t)))
    if which == "B":
        return TorusFunction(0.5 - 0.25j * (1 - np.cos(t)))
    if which == "C":
        return TorusFunction(0.3 + 0.2 * np.cos(t) + 0j)
    raise ValueError(which)


def f_harmonic(n: int = 256) -> TorusFunction:
    return TorusFunction.harmonic(1, n)


# --------------------------------------------------------------------------- #
# small divisors
# --------------------------------------------------------------------------- #

def test_small_divisor_examples():
    assert small_divisor(11, 0.5) == pytest.approx(2.0, abs=1e-14)
    assert small_divisor(3, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert small_divisor(1, 0.25) == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_small_divisor_complex():
    # c0 = i, lam = 1: |1 - e^{2 pi}| = e^{2 pi} - 1
    assert small_divisor(1, 1j) == pytest.approx(math.e ** (2 * math.pi) - 1, rel=1e-13)


def test_small_divisor_near_resonance_accuracy():
    # lam*c0 = 7 + 1e-9: divisor = 2|sin(pi*1e-9)| = 2 pi 1e-9 to high accuracy
    d = small_divisor(1.0, 7.0 + 1e-9)
    assert d == pytest.approx(2 * math.pi * 1e-9, rel=1e-6)


# --------------------------------------------------------------------------- #
# closed-form oracles
# --------------------------------------------------------------------------- #

def test_undetermined_coefficients_oracle():
    # c = 1/2, lam = 11, f = e^{it}: u = A e^{it} with A = 1/(i(1 + 11/2))
    c = TorusFunction.constant(0.5)
    u = solve_mode(11.0, c, f_harmonic())
    expect = -1j / 6.5 * np.exp(1j * grid(256))
    assert np.max(np.abs(u.samples - expect)) < 1e-9


def test_constant_data_oracle():
    # lam = 1, c = i, f = 1: u = 1/(i lam c) = -1
    c = TorusFunction.constant(1j)
    u = solve_mode(1.0, c, TorusFunction.constant(1.0))
    assert np.max(np.abs(u.samples - (-1.0))) < 1e-12


def test_resonant_mode_raises():
    c = TorusFunction.constant(1.0)
    with pytest.raises(ResonantMode):
        solve_mode(3.0, c, f_harmonic())


def test_instance_A_against_mpmath_oracle():
    sol = solve_mode_detailed(3.0, c_instance("A"), f_harmonic())
    assert sol.formula == "solu2"
    n = sol.u.n
    assert sol.u.samples[0] == pytest.approx(UA_0, abs=1e-12)
    assert sol.u.samples[n // 4] == pytest.approx(UA_PI2, abs=1e-12)
    assert sol.residual < sol.residual_budget


def test_instance_B_against_mpmath_oracle():
    sol = solve_mode_detailed(3.0, c_instance("B"), f_harmonic())
    assert sol.formula == "solu1"
    n = sol.u.n
    assert sol.u.samples[0] == pytest.approx(UB_0, abs=1e-12)
    assert sol.u.samples[n // 4] == pytest.approx(UB_PI2, abs=1e-12)


def test_instance_C_against_mpmath_oracle():
    sol = solve_mode_detailed(3.0, c_instance("C"), f_harmonic())
    assert sol.formula == "solu1"  # b == 0 is a tie, first formula wins
    assert sol.u.samples[0] == pytest.approx(UC_0, abs=1e-12)


def cotangent_collocation(lam, c, f):
    """Independent oracle: trig collocation via the analytic cotangent
    differentiation matrix (dense, no FFT anywhere)."""
    n = f.n
    t = grid(n)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = 0.5 * (-1.0) ** (i - j) / math.tan((t[i] - t[j]) / 2.0)
    A = D.astype(complex) + 1j * lam * np.diag(c.samples)
    return np.linalg.solve(A, f.samples)


@pytest.mark.parametrize("inst,lam", [("A", 3.0), ("C", 3.0), ("B", 5.0)])
def test_against_cotangent_collocation_oracle(inst, lam):
    n = 128
    c = c_instance(inst, n)
    f = f_harmonic(n)
    u = solve_mode(lam, c, f)
    v = cotangent_collocation(lam, c, f)
    assert np.max(np.abs(u.samples - v)) < 1e-9


# --------------------------------------------------------------------------- #
# formula equivalence and selection
# --------------------------------------------------------------------------- #

def test_forced_formulas_are_one_multiplier():
    # both formulas reduce to the same Fourier multiplier, so on c03's
    # instances forcing 1 or 2 gives the same samples and coefficients, bit
    # for bit; only the divisor and the label follow the forced formula
    rng = np.random.default_rng(31)
    tt = grid(128)
    for _ in range(20):
        lam = float(rng.uniform(2.0, 40.0))
        a0 = float(rng.uniform(0.08, 0.42))
        b0 = float(rng.uniform(0.1, 0.4) * rng.choice([-1.0, 1.0]))
        c = TorusFunction(a0 + 1j * b0 + 0.05 * np.cos(tt) + 0.03j * np.sin(2 * tt))
        band = rng.integers(-6, 7, size=4)
        f = TorusFunction(sum(complex(rng.normal(), rng.normal()) * np.exp(1j * k * tt)
                              for k in band))
        s1 = solve_mode_detailed(lam, c, f, formula=1)
        s2 = solve_mode_detailed(lam, c, f, formula=2)
        assert s1.u.samples.tobytes() == s2.u.samples.tobytes()
        assert s1.u.coeffs.tobytes() == s2.u.coeffs.tobytes()
        assert (s1.formula, s2.formula) == ("solu1", "solu2")
        assert s1.divisor != s2.divisor


def test_forced_formula_on_the_unstable_side_is_the_stable_solve():
    # c = i, lam = 200: the first formula's E-factor is e^{400 pi}, far past
    # the double range, but the multiplier never forms it
    c = TorusFunction.constant(1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forced = solve_mode_detailed(200.0, c, f_harmonic(), formula=1)
        stable = solve_mode_detailed(200.0, c, f_harmonic())
    assert stable.formula == "solu2" and forced.formula == "solu1"
    assert forced.u.samples.tobytes() == stable.u.samples.tobytes()
    assert forced.divisor == math.inf


def test_resonant_mode_names_the_deciding_tolerance():
    # lam*c0 = 1 + 3e-5: the divisor 1.885e-4 is below tol_res = 1e-3 but
    # far above the default TOL_RES, so the message must name 1e-3
    with pytest.raises(ResonantMode) as exc:
        solve_mode(3.0, TorusFunction.constant(1 / 3 + 1e-5, 64),
                   TorusFunction.harmonic(1, 64), tol_res=1e-3)
    assert "divisor=1.885e-04 < tol_res = 0.001" in str(exc.value)
    assert "1e-08" not in str(exc.value)


def test_negative_lambda_selects_other_formula():
    # lam*b0 < 0 with b0 > 0 -> first formula
    sol = solve_mode_detailed(-3.0, c_instance("A"), f_harmonic())
    assert sol.formula == "solu1"
    assert sol.residual < sol.residual_budget


# --------------------------------------------------------------------------- #
# stability fallback
# --------------------------------------------------------------------------- #

def test_large_lambda_uses_collocation():
    # osc(Im C) = 2 for c = i(1 - cos t); lam = 101 blows the integral budget
    t = grid(256)
    c = TorusFunction(1j * (1 - np.cos(t)))
    sol = solve_mode_detailed(101.0, c, f_harmonic())
    assert sol.formula == "fourier"
    assert sol.residual < sol.residual_budget


def test_forced_fourier_matches_integral_in_easy_regime():
    c = c_instance("A")
    f = f_harmonic()
    u1 = solve_mode(3.0, c, f)
    u2 = solve_mode(3.0, c, f, formula="fourier")
    assert np.max(np.abs(u1.samples - u2.samples)) < 1e-11


def test_grid_doubling_stability():
    c = c_instance("A", 256)
    f = f_harmonic(256)
    u256 = solve_mode(3.0, c, f)
    u512 = solve_mode(3.0, c_instance("A", 512), f_harmonic(512))
    assert np.max(np.abs(u512.samples[::2] - u256.samples)) < 1e-9


# --------------------------------------------------------------------------- #
# cyclic-banded collocation against the dense collocation matrix
# --------------------------------------------------------------------------- #

def dense_collocation(lam, c, f):
    """Reference: the full n x n collocation matrix diag(ik) + i lam conv(chat)."""
    n = f.n
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    idx = np.arange(n)
    A = np.diag(1j * k) + 1j * lam * c.coeffs[(idx[:, None] - idx[None, :]) % n]
    return TorusFunction.from_coeffs(np.linalg.solve(A, f.coeffs))


def banded_collocation(lam, c, f, d):
    uhat, singular = _solve_cyclic_banded(np.array([lam]), c.coeffs, f.coeffs[None], d)
    assert not singular[0]
    return TorusFunction.from_coeffs(uhat[0])


def trig_poly(rng, n, d, sign):
    """Random c of degree d whose imaginary part has the given sign."""
    t = grid(n)
    re = rng.normal() + 0 * t + sum(0.3 * rng.normal() * np.cos(k * t + rng.uniform(0, 2 * np.pi))
                            for k in range(1, d + 1))
    amps = 0.3 * np.abs(rng.normal(size=d))
    im = (amps.sum() * rng.uniform(1.0, 2.0) + 0.1 + 0 * t
          + sum(a * np.cos(k * t + rng.uniform(0, 2 * np.pi))
                for k, a in zip(range(1, d + 1), amps)))
    return TorusFunction(re + 1j * sign * im)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.sampled_from([64, 256, 1024]), st.floats(0.0, 1.0),
       st.sampled_from([-1, 1]), st.integers(0, 2 ** 31 - 1))
def test_banded_collocation_matches_dense(d, n, lam_frac, sign, seed):
    rng = np.random.default_rng(seed)
    c = trig_poly(rng, n, d, sign)
    t = grid(n)
    f = TorusFunction(sum(rng.normal() * np.exp(1j * k * t) for k in range(-6, 7)))
    lam = float(max(1, round(lam_frac * n)))
    assert _band_width(c.coeffs) == d
    u = banded_collocation(lam, c, f, d)
    ref = dense_collocation(lam, c, f)
    assert (u - ref).sup_norm() <= 1e-10 * ref.sup_norm()
    budget = solve_mode_detailed(lam, c, f, formula="fourier").residual_budget
    assert (apply_mode(lam, c, u) - f).sup_norm() <= budget


def test_banded_collocation_keeps_the_cyclic_corners():
    # d = 2 at the top of the spectrum: the 2d wrap-around entries couple
    # frequencies near +-n/2, and dropping them is wrong by ~1e-2
    n = 1024
    t = grid(n)
    c = TorusFunction(1j * (1 - np.cos(t)) + 0.3 * np.cos(2 * t))
    f = TorusFunction(np.exp(1j * t) + 0.5 * np.exp(-3j * t))
    u = banded_collocation(1023.0, c, f, 2)
    ref = dense_collocation(1023.0, c, f)
    assert (u - ref).sup_norm() <= 1e-10 * ref.sup_norm()


@pytest.mark.parametrize("n, d, modes", [
    (512, 1, 1024), (512, 2, 614),
    (1024, 1, 512), (1024, 2, 307),
    (4096, 1, 128), (4096, 2, 76),
])
def test_banded_chunk_is_capped_at_chunk_cells(n, d, modes):
    # G and X hold 2 n (2d+1) complex numbers per mode
    assert _banded_chunk(n, d) == modes
    assert modes * 2 * n * (2 * d + 1) <= _CHUNK_CELLS < (modes + 1) * 2 * n * (2 * d + 1)
    assert _CHUNK_CELLS * 16 == 48 << 20


def _banded_lu_solve_mnw(G, X, pivoted=None):
    """The batched band LU on (m, n, .) arrays, as it ran before the kernel
    moved to the (n, ., m) layout: the reference for its bytes.  Appends to
    ``pivoted``, if given, whether any mode swapped rows at each column."""
    m, n, w = G.shape
    d = (w - 1) // 2
    rows = np.arange(m)
    singular = np.zeros(m, dtype=bool)
    W = np.zeros((m, d + 1, w), dtype=np.complex128)   # rows s..s+d, cols s..s+2d
    for i in range(d + 1):
        W[:, i, :i + d + 1] = G[:, i, d - i:]
    Xw = X[:, :d + 1].copy()
    for s in range(n):
        p = np.argmax(np.abs(W[:, :, 0]), axis=1)
        if pivoted is not None:
            pivoted.append(bool(p.any()))
        for win in (W, Xw):
            top = win[rows, p]
            win[rows, p] = win[:, 0]
            win[:, 0] = top
        piv = W[:, 0, 0]
        zero = piv == 0
        singular |= zero
        piv[zero] = 1.0
        l = W[:, 1:, :1] / piv[:, None, None]
        W[:, 1:, 1:] -= l * W[:, :1, 1:]
        Xw[:, 1:] -= l * Xw[:, :1]
        G[:, s] = W[:, 0]
        X[:, s] = Xw[:, 0]
        W[:, :-1, :-1] = W[:, 1:, 1:]
        W[:, :-1, -1] = 0.0
        Xw[:, :-1] = Xw[:, 1:]
        W[:, -1] = G[:, s + d + 1] if s + d + 1 < n else 0.0
        Xw[:, -1] = X[:, s + d + 1] if s + d + 1 < n else 0.0
    for s in range(n - 1, -1, -1):           # column-oriented back substitution
        X[:, s] /= G[:, s, :1]
        t = np.arange(max(0, s - 2 * d), s)
        X[:, t] -= G[:, t, s - t][:, :, None] * X[:, s, None, :]
    return singular


def _random_band_system(d, m, n, r, zero_col, seed):
    """(G, X) of m random complex band systems: columns n/2.. pivot (the
    rows above n/2 are diagonally dominant and do not), row n/2 planted
    with a zero diagonal and a zero lower band so that column n/2 must
    pivot, and optionally one all-zero column in mode 0, whose exactly zero
    pivot is singular."""
    rng = np.random.default_rng(seed)
    w = 2 * d + 1
    G = rng.normal(size=(m, n, w)) + 1j * rng.normal(size=(m, n, w))
    cols = np.arange(n)[:, None] - d + np.arange(w)
    G[:, (cols < 0) | (cols >= n)] = 0.0
    h = n // 2
    G[:, :h, d] += 1e3
    if d:
        G[:, h, :d + 1] = 0.0
    if zero_col:
        j = int(rng.choice(np.delete(np.arange(n), h)))
        rows = np.arange(max(0, j - d), min(n, j + d + 1))
        G[0, rows, j - rows + d] = 0.0
    X = rng.normal(size=(m, n, r)) + 1j * rng.normal(size=(m, n, r))
    return G, X


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.sampled_from([1, 3, 17]), st.sampled_from([8, 16, 64]),
       st.integers(1, 3), st.booleans(), st.integers(0, 2 ** 31 - 1))
@example(d=1, m=1, n=8, r=1, zero_col=False, seed=3192)   # a one-element product
def test_banded_lu_matches_the_mnw_reference_bit_for_bit(d, m, n, r, zero_col, seed):
    G, X = _random_band_system(d, m, n, r, zero_col, seed)
    w, h = 2 * d + 1, n // 2
    GX = np.concatenate([G, X], axis=2).transpose(1, 2, 0).copy()
    pivoted = []
    want = _banded_lu_solve_mnw(G, X, pivoted)
    got = _banded_lu_solve(GX, w)
    assert got.tolist() == want.tolist()
    assert bool(got[0]) == zero_col
    assert not got[1:].any()
    U, x = GX[:, :w].transpose(2, 0, 1), GX[:, w:].transpose(2, 0, 1)
    assert U.copy().view(np.uint64).tolist() == G.view(np.uint64).tolist()
    assert x.copy().view(np.uint64).tolist() == X.view(np.uint64).tolist()
    assert not all(pivoted)                  # the swap is skipped somewhere
    assert pivoted[h] == (d > 0)             # and taken at the planted column


@pytest.mark.parametrize("d, n, r, seed", [(1, 8, 1, 3192), (1, 8, 1, 40), (2, 8, 1, 162),
                                           (1, 16, 1, 203), (2, 16, 3, 5), (0, 8, 1, 1)])
def test_banded_lu_bytes_do_not_depend_on_the_batch(d, n, r, seed):
    # one mode solved alone and as every mode of batches of 2, 3 and 17
    # copies; with r = 1 the last back-substitution product of a lone mode
    # has one element, which numpy once took through another loop
    G, X = _random_band_system(d, 1, n, r, False, seed)
    GX = np.concatenate([G, X], axis=2).transpose(1, 2, 0).copy()
    alone = GX.copy()
    _banded_lu_solve(alone, 2 * d + 1)
    for m in (2, 3, 17):
        batch = np.repeat(GX, m, axis=2)
        _banded_lu_solve(batch, 2 * d + 1)
        for i in range(m):
            assert batch[..., i].tobytes() == alone[..., 0].tobytes(), (m, i)


@pytest.mark.parametrize("formula", ["auto", 1, 2, "fourier"])
@pytest.mark.parametrize("c_of", [
    lambda t: 0.75j * (1 - np.cos(t)) + 0.2 * np.cos(3 * t),   # banded
    lambda t: 1j / (1.2 - np.cos(t)),                         # full spectrum: dense
])
def test_solve_field_is_batch_invariant(c_of, formula):
    n, J = 128, 64
    eigs = build_eigensequence("harmonic1d", J)
    t = grid(n)
    rng = np.random.default_rng(11)
    f = ModeField([TorusFunction(np.exp(1j * t) + 0.1 * rng.normal() * np.cos(3 * t))
                   for _ in range(J)], eigs)
    # read back from CSV the field holds no coefficients: solve_field takes
    # fft(f)/n of its rows itself, solve_mode_detailed that of one row
    f_csv = ModeField.from_csv(f.to_csv(), eigs)
    assert f_csv._coeffs is None
    c = TorusFunction(c_of(t))
    for f in (f, f_csv):
        # the batch reproduces the single-mode solve, NaNs included
        with np.errstate(all="ignore"):
            u, report = solve_field(c, f, formula=formula)
            sols = [solve_mode_detailed(float(eigs.lambdas[j]), c, f[j], formula=formula)
                    for j in range(J)]
        if formula in ("auto", "fourier"):
            assert np.count_nonzero(report.formula == "fourier") > J // 2
        assert report.j.tolist() == list(range(J))
        assert not report.resonant.any() and not report.singular.any()
        # every audit column, row by row, bit for bit
        for j, sol in enumerate(sols):
            assert u[j].samples.tobytes() == sol.u.samples.tobytes()
            assert report.lam[j] == sol.lam
            assert report.formula[j] == sol.formula
            for col in ("divisor", "residual", "residual_budget"):
                got, want = getattr(report, col)[j], np.float64(getattr(sol, col))
                assert got.tobytes() == want.tobytes(), (j, col)
            for col in ("ill_conditioned", "refactored"):
                assert getattr(report, col)[j] == getattr(sol, col), (j, col)
            if formula == "auto":
                assert report.residual[j] <= sol.residual_budget


@pytest.mark.parametrize("c_of, paths", [
    (lambda t: 0.5 + 1j * np.sin(t), {"solu1", "fourier"}),
    (lambda t: 0.5 + 0.3 * np.sign(np.sin(t)), {"refactored"}),   # integral misses
])
def test_solve_field_builds_no_torus_function_per_mode(monkeypatch, c_of, paths):
    # the solver works on (J, n) rows and audit columns: how many
    # TorusFunctions it creates, counted as the benchmark tracer counts
    # them, must not grow with J
    t = grid(256)
    c = TorusFunction(c_of(t))
    init = TorusFunction.__init__
    counts = {}
    for J in (8, 64):
        eigs = build_eigensequence("harmonic1d", J)
        f = ModeField([TorusFunction(np.exp(1j * t))] * J, eigs)
        counts[J] = 0

        def counting(obj, *args, J=J, **kwargs):
            counts[J] += 1
            init(obj, *args, **kwargs)
        monkeypatch.setattr(TorusFunction, "__init__", counting)
        _, report = solve_field(c, f)
        monkeypatch.undo()
        assert paths <= set(np.where(report.refactored, "refactored", report.formula).tolist())
    assert counts[8] == counts[64], counts


@pytest.mark.parametrize("formula", [1, 2])
def test_forced_formula_exact_resonance_raises(formula):
    # tol_res = 0 turns the divisor threshold off, but a forced formula's
    # divisor of exactly 0 is still a resonance: the formula would divide by
    # lam*c0 + k = 0 and return NaN samples
    with np.errstate(all="raise"), pytest.raises(ResonantMode) as exc:
        solve_mode_detailed(3.0, TorusFunction.constant(1.0, 64),
                            TorusFunction.harmonic(1, 64), formula=formula, tol_res=0.0)
    assert exc.value.divisor == 0.0
    # in a batch only the modes with lam*c0 in Z: lam = 2, 4, 4, 6 and c0 = 1/4
    eigs = build_eigensequence("harmonic_nd 2", 4)
    f = ModeField([f_harmonic(64)] * 4, eigs)
    with np.errstate(all="raise"):
        _, report = solve_field(TorusFunction.constant(0.25, 64), f,
                                formula=formula, tol_res=0.0)
    assert report.resonant.tolist() == [False, True, True, False]
    assert report.formula[[0, 3]].tolist() == [f"solu{formula}"] * 2


def test_forced_fourier_resonance_is_singular():
    # the divisor check is off (a zero divisor once divided the budget by
    # zero), so the zero pivot at k = -3 must catch it
    for formula in ("fourier", "auto"):   # auto: the integral path's NaN misses
        with pytest.raises(ResonantMode), np.errstate(divide="ignore", invalid="ignore"):
            solve_mode_detailed(3.0, TorusFunction.constant(1.0), f_harmonic(),
                                formula=formula, tol_res=0.0)
    # in a batch only the singular mode is resonant: lam = 3 with c = 1/3
    eigs = build_eigensequence("harmonic1d", 4)
    f = ModeField([f_harmonic(64)] * 4, eigs)
    _, report = solve_field(TorusFunction.constant(1.0 / 3.0, 64), f,
                            formula="fourier", tol_res=0.0)
    assert report.resonant.tolist() == [False, True, False, False]
    assert report.singular.tolist() == [False, True, False, False]
    assert report.divisor[1] == 0.0


def test_banded_solve_imports_no_scipy():
    code = ("import sys\n"
            "import numpy as np\n"
            "from hypotorus.modes import ModeField, solve_field\n"
            "from hypotorus.spectrum import build_eigensequence\n"
            "from hypotorus.torusfn import TorusFunction, grid\n"
            "t = grid(256)\n"
            "eigs = build_eigensequence('harmonic1d', 16)\n"
            "f = ModeField([TorusFunction(np.exp(1j * t))] * 16, eigs)\n"
            "_, rep = solve_field(TorusFunction(1j * (1 - np.cos(t))), f)\n"
            "assert (rep.formula == 'fourier').sum() >= 10\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# --------------------------------------------------------------------------- #
# prefactor bound (constant coefficients, beta*lam > 0)
# --------------------------------------------------------------------------- #

def test_prefactor_bound_constant_case():
    alpha, beta, lam = 0.37, 0.1, 2.0
    c = TorusFunction.constant(alpha + 1j * beta)
    t = grid(256)
    f = TorusFunction(np.exp(1j * t) + 0.5 * np.cos(3 * t))
    u = solve_mode(lam, c, f)
    gamma = 1.0 / (1.0 - math.exp(-2 * math.pi * beta * lam))
    assert u.sup_norm() <= 2 * math.pi * gamma * f.sup_norm() + 1e-12


# --------------------------------------------------------------------------- #
# resonance tolerance ladder
# --------------------------------------------------------------------------- #

def test_near_resonant_below_tol_raises():
    c = TorusFunction.constant((1 + 1e-12) / 3.0)
    with pytest.raises(ResonantMode):
        solve_mode(3.0, c, f_harmonic())


def test_ill_conditioned_flagged_but_solved():
    # divisor ~ 1e-5 sits in the solvable-but-flagged band
    c0 = (1.0 + 1e-5 / (2 * math.pi)) / 3.0
    sol = solve_mode_detailed(3.0, TorusFunction.constant(c0), f_harmonic())
    assert sol.ill_conditioned
    assert sol.divisor == pytest.approx(1e-5, rel=1e-3)
    assert sol.residual < sol.residual_budget


# --------------------------------------------------------------------------- #
# fields, apply_operator, divisor report
# --------------------------------------------------------------------------- #

def test_solve_field_single_mode():
    eigs = build_eigensequence("harmonic1d", 8)
    f = ModeField.single_mode(eigs, 5, f_harmonic(), J=8)
    c = TorusFunction.constant(0.5)
    u, report = solve_field(c, f)
    expect = -1j / 6.5 * np.exp(1j * grid(256))
    assert np.max(np.abs(u[5].samples - expect)) < 1e-9
    for j in (0, 1, 2, 3, 4, 6, 7):
        assert u[j].sup_norm() == 0.0
    assert report.resonant_indices() == []
    assert report.max_residual() < 1e-7


def test_solve_field_all_resonant():
    # every lambda_j c0 is an integer: the field comes back with no defined
    # mode and a report that is resonant in every row
    eigs = build_eigensequence("harmonic1d", 6)
    f = ModeField([f_harmonic(64)] * 6, eigs)
    u, report = solve_field(TorusFunction.constant(1.0), f)
    assert u.J == 6 and not u.mask.any()
    assert list(u) == [None] * 6
    assert report.j.tolist() == list(range(6))
    assert report.resonant.all()
    assert report.resonant_indices() == list(range(6))
    assert (report.formula == "").all() and np.isnan(report.residual).all()
    assert math.isnan(report.max_residual())


@pytest.mark.parametrize("row", [0, 2, 4])
def test_max_residual_shows_nan(row):
    # one NaN residual of a solved mode makes the maximum NaN, wherever it sits
    n = 5
    residual = np.full(n, 1e-12)
    residual[row] = math.nan
    zeros = np.zeros(n, dtype=bool)
    report = DivisorReport(
        j=np.arange(n), lam=np.arange(n) + 1.0, divisor=np.ones(n), resonant=zeros,
        singular=zeros, formula=np.array(["solu1"] * n), residual=residual,
        residual_budget=np.full(n, 1e-8), ill_conditioned=zeros, refactored=zeros)
    assert math.isnan(report.max_residual())
    residual[row] = 3e-12
    assert report.max_residual() == 3e-12


def test_solve_field_partial_resonance():
    # c0 = 1/3: resonant exactly when 3 | lambda_j, i.e. lambda in {3, 9, 15, ...}
    eigs = build_eigensequence("harmonic1d", 6)  # 1 3 5 7 9 11
    f = ModeField([f_harmonic(64)] * 6, eigs)
    u, report = solve_field(TorusFunction.constant(1.0 / 3.0), f)
    assert report.resonant_indices() == [1, 4]
    assert u[1] is None and u[4] is None
    assert all(u[j] is not None for j in (0, 2, 3, 5))


def test_solve_field_gh_instance_divisors():
    # c = i(1 - cos t): divisor_j >= 1 - e^{-2 pi lambda_j}
    t = grid(256)
    c = TorusFunction(1j * (1 - np.cos(t)))
    eigs = build_eigensequence("harmonic1d", 6)
    entries = [TorusFunction(np.exp(1j * t) / math.factorial(j + 1)) for j in range(6)]
    u, report = solve_field(c, ModeField(entries, eigs))
    assert report.resonant_indices() == []
    assert (report.divisor >= 1 - np.exp(-2 * np.pi * report.lam) - 1e-12).all()
    assert (report.residual < 1e-7).all()


def test_apply_operator_kills_resonant_exponentials():
    # c = alpha in Z, u_j = e^{-i alpha lambda_j t}  =>  L u = 0
    alpha = 2
    eigs = build_eigensequence("harmonic1d", 8)
    entries = [TorusFunction.harmonic(-alpha * (2 * j + 1), 256) for j in range(8)]
    f = apply_operator(TorusFunction.constant(alpha), ModeField(entries, eigs))
    for fj in f:
        assert fj.sup_norm() < 1e-10


def test_apply_operator_inverse_of_solve():
    eigs = build_eigensequence("harmonic1d", 4)
    t = grid(256)
    c = c_instance("A")
    entries = [TorusFunction(np.cos((j + 1) * t) + 0.3j * np.sin(t)) for j in range(4)]
    f = ModeField(entries, eigs)
    u, _ = solve_field(c, f)
    back = apply_operator(c, u)
    for j in range(4):
        num = (back[j] - f[j]).sup_norm()
        assert num < 1e-7 * (1 + f[j].sup_norm())


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 10), st.integers(1, 80), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 31 - 1))
def test_residuals_on_a_column_subset_equal_the_dense_call(log2n, rows, density, seed):
    # f kept on a sorted column subset (none, some or all) gives the residuals
    # of the dense f with +0.0 scattered elsewhere, bit for bit; half the band
    # values sit near the operator's rows, so the subtraction cancels
    n, rng = 1 << log2n, np.random.default_rng(seed)
    c = TorusFunction(rng.normal(size=n) + 1j * rng.normal(size=n))
    u = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
    lam = rng.uniform(-50.0, 50.0, rows)
    cols = np.flatnonzero(rng.random(n) < density)
    near = _apply_rows(lam, c, u, None)[:, cols] * (1.0 + 1e-9 * rng.normal(size=(rows, cols.size)))
    band = np.where(rng.random((rows, cols.size)) < 0.5, near,
                    rng.normal(size=(rows, cols.size)) + 0j)
    dense = np.zeros_like(u)
    dense[:, cols] = band
    got = operator_residuals(lam, c, u, band, cols=cols)
    assert got.tobytes() == operator_residuals(lam, c, u, dense).tobytes()


def _out_of_place_residuals(lam, c, u, f, coeffs, cols):
    """The operator residuals as one out-of-place expression per chunk of rows."""
    n = u.shape[1]
    out = np.empty(u.shape[0])
    for s in row_chunks(*u.shape):
        co = np.fft.fft(u[s], axis=1) / n if coeffs is None else coeffs[s]
        du = np.fft.ifft(1j * wavenumbers(n) * co * n, axis=1)
        r = du + ((1j * lam[s, None]) * c.samples) * u[s]
        r[:, cols] -= f[s]
        out[s] = np.abs(r).max(axis=1)
    return out


def _layout_columns(layout, n, rng):
    """The forcing columns of a layout: every column (a slice), a random
    sorted subset, three runs holding columns 0 and n - 1, or none (K = 0)."""
    if layout == "all":
        return slice(None)
    if layout == "subset":
        return np.flatnonzero(rng.random(n) < 0.5)
    if layout == "runs":
        a, b, c, d = np.sort(rng.choice(np.arange(1, n), 4, replace=False))
        return np.r_[0:a, b:c, d:n]
    return np.empty(0, dtype=np.intp)


# n = 1024 takes 64 rows a chunk: 70 rows end on a short chunk
@example(log2n=10, rows=70, given_coeffs=False, layout="runs", seed=1)
@example(log2n=10, rows=70, given_coeffs=True, layout="none", seed=2)
@example(log2n=10, rows=130, given_coeffs=False, layout="subset", seed=3)
@settings(max_examples=40, deadline=None)
@given(st.integers(4, 10), st.integers(1, 80), st.booleans(),
       st.sampled_from(["all", "subset", "runs", "none"]), st.integers(0, 2 ** 31 - 1))
def test_in_place_residuals_equal_the_out_of_place_expression(log2n, rows, given_coeffs,
                                                              layout, seed):
    # the in-place kernel evaluates the same products and sums in the same
    # operand order, and subtracts f one run of columns at a time, so every
    # residual agrees bit for bit; given coefficients (perturbed off
    # fft(u)/n, so they are really used) are left untouched
    n, rng = 1 << log2n, np.random.default_rng(seed)
    c = TorusFunction(rng.normal(size=n) + 1j * rng.normal(size=n))
    u = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
    lam = rng.uniform(-50.0, 50.0, rows)
    coeffs = None
    if given_coeffs:
        coeffs = np.fft.fft(u, axis=1) / n * (1.0 + 1e-6 * rng.normal(size=(rows, n)))
        kept = coeffs.copy()
    cols = _layout_columns(layout, n, rng)
    k = n if layout == "all" else cols.size
    f = rng.normal(size=(rows, k)) + 1j * rng.normal(size=(rows, k))
    got = operator_residuals(lam, c, u, f, coeffs, cols=cols)
    want = _out_of_place_residuals(lam, c, u, f, coeffs, cols)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    if given_coeffs:
        assert coeffs.view(np.uint64).tobytes() == kept.view(np.uint64).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.lists(st.sampled_from(["random", "+0", "-0", "signed zeros",
                                                     "subnormal", "mixed"]),
                                    min_size=1, max_size=12),
       st.integers(0, 2 ** 31 - 1))
def test_forward_normalised_fft_residuals_on_zeros_and_subnormals(log2n, kinds, seed):
    # the forward-normalised FFT scales by 1/n, exact on a power-of-two
    # grid, where fft(u)/n divides by n: the coefficients agree up to the
    # sign of an exact zero, and so do the residuals after abs()
    n, rng = 1 << log2n, np.random.default_rng(seed)
    tiny = np.finfo(float).smallest_subnormal
    rows = {"random": lambda: rng.normal(size=n) + 1j * rng.normal(size=n),
            "+0": lambda: np.zeros(n, dtype=complex),
            "-0": lambda: np.full(n, complex(-0.0, -0.0)),
            "signed zeros": lambda: (rng.choice([0.0, -0.0], n)
                                     + 1j * rng.choice([0.0, -0.0], n)),
            "subnormal": lambda: tiny * (rng.integers(-9, 10, n) + 1j * rng.integers(-9, 10, n)),
            "mixed": lambda: np.where(rng.random(n) < 0.5, rng.normal(size=n) + 0j,
                                      rng.choice([0.0, -0.0, tiny, -tiny], n) + 0j)}
    u = np.array([rows[k]() for k in kinds])
    c = TorusFunction(rng.normal(size=n) + 1j * rng.normal(size=n))
    lam = rng.uniform(-50.0, 50.0, len(kinds))
    f = np.where(rng.random(u.shape) < 0.5, 0.0, rng.normal(size=u.shape)) + 0j
    got = operator_residuals(lam, c, u, f)
    want = _out_of_place_residuals(lam, c, u, f, None, slice(None))
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_mode_field_validation():
    eigs = build_eigensequence("harmonic1d", 4)
    with pytest.raises(ValueError):
        ModeField([], eigs)
    with pytest.raises(ValueError):
        ModeField([TorusFunction.zero(32), TorusFunction.zero(64)], eigs)
    with pytest.raises(ValueError):
        ModeField([TorusFunction.zero(32)] * 5, eigs)  # more entries than eigenvalues


def test_mode_field_csv_roundtrip():
    eigs = build_eigensequence("harmonic1d", 3)
    mf = ModeField([f_harmonic(32), None, TorusFunction.constant(2j, 32)], eigs)
    text = mf.to_csv()
    assert text.splitlines()[0] == "j,t,re,im"
    back = ModeField.from_csv(text, eigs, J=3)
    assert back[1] is None
    assert back.samples.tobytes() == mf.samples.tobytes()
    assert back.to_csv() == text

    # signed zeros, a subnormal and infinities survive parsing bit for bit
    vals = [(-0.0, 0.0), (5e-324, -0.0), (1.0 / 3.0, -5e-324), (-math.inf, math.inf)]
    text = "j,t,re,im\n" + "".join(f"2,{t!r},{re!r},{im!r}\n"
                                   for t, (re, im) in zip(grid(4).tolist(), vals))
    back = ModeField.from_csv(text, eigs, J=3)
    expect = np.zeros(4, dtype=np.complex128)
    expect.real, expect.imag = zip(*vals)
    assert back.defined() == [2]
    assert back.samples[2].tobytes() == expect.tobytes()
    assert back.to_csv() == text


@pytest.mark.parametrize("j", [-1, 3])
def test_mode_field_csv_rejects_out_of_range_index(j):
    eigs = build_eigensequence("harmonic1d", 3)
    text = "j,t,re,im\n" + "".join(f"{j},0.0,1.0,0.0\n" for _ in range(4))
    with pytest.raises(ValueError, match=f"mode index {j} "):
        ModeField.from_csv(text, eigs, J=3)


def test_mode_field_csv_rejects_rows_out_of_t_order():
    eigs = build_eigensequence("harmonic1d", 3)
    mf = ModeField([f_harmonic(8), None, TorusFunction.constant(2j, 8)], eigs)
    header, *rows = mf.to_csv().splitlines()
    assert ModeField.from_csv("\n".join([header] + rows), eigs, J=3).to_csv() == mf.to_csv()
    # mode 2 written backwards in t: its first row (line 10) holds t = 7*2pi/8
    reversed_2 = rows[:8] + rows[8:][::-1]
    with pytest.raises(ValueError, match="line 10: t = 5.497787143782138 "):
        ModeField.from_csv("\n".join([header] + reversed_2), eigs, J=3)
    # interleaved modes are fine as long as each mode runs forward in t
    interleaved = [r for pair in zip(rows[:8], rows[8:]) for r in pair]
    back = ModeField.from_csv("\n".join([header] + interleaved), eigs, J=3)
    assert back.samples.tobytes() == mf.samples.tobytes()


# --------------------------------------------------------------------------- #
# the sample-CSV parser behind ModeField.from_csv and from_sample_csv
# --------------------------------------------------------------------------- #

def _mode_rows(j=1, n=4):
    return [f"{j},{t!r},{float(k)!r},-0.0" for k, t in enumerate(grid(n).tolist())]


@pytest.mark.parametrize("bad, match", [
    ("1,{t!r},1.0", "line 4: 3 fields; mode-field CSV rows hold 4 "),
    ("1,{t!r},x,0.0", "line 4: re = 'x' does not parse as float64"),
    ("1.0,{t!r},1.0,0.0", "line 4: j = '1.0' does not parse as int64"),
    # int() and float() would take these: no _ separators, ASCII digits only
    ("1_0,{t!r},1.0,0.0", "line 4: j = '1_0' does not parse as int64"),
    ("1,{t!r},2_0,0.0", "line 4: re = '2_0' does not parse as float64"),
    ("\uff11,{t!r},1.0,0.0", "line 4: j = '\uff11' does not parse as int64"),
    ("1,{t!r},1.0,\uff12.0", "line 4: im = '\uff12.0' does not parse as float64"),
])
def test_mode_field_csv_names_the_first_bad_line(bad, match):
    eigs = build_eigensequence("harmonic1d", 3)
    rows, t = _mode_rows(n=8), grid(8).tolist()
    rows[2] = bad.format(t=t[2])
    with pytest.raises(ValueError, match=match):
        ModeField.from_csv("\n".join(["j,t,re,im"] + rows) + "\n", eigs, J=3)
    rows[5] = bad.format(t=t[5])   # the same fault further down is not the one named
    with pytest.raises(ValueError, match=match):
        ModeField.from_csv("\n".join(["j,t,re,im"] + rows) + "\n", eigs, J=3)


@pytest.mark.parametrize("bad, match", [
    ("{t!r},1.0", "line 4: 2 fields; sample CSV rows hold 3 "),
    ("1_5,1.0,0.0", "line 4: t = '1_5' does not parse as float64"),
    ("{t!r},2_0,0.0", "line 4: re = '2_0' does not parse as float64"),
    ("{t!r},1.0,\uff12.0", "line 4: im = '\uff12.0' does not parse as float64"),
])
def test_sample_csv_names_the_first_bad_line(bad, match):
    rows, t = [r.split(",", 1)[1] for r in _mode_rows(n=8)], grid(8).tolist()
    for k in (2, 5):   # the same fault further down is not the one named
        rows[k] = bad.format(t=t[k])
        with pytest.raises(ValueError, match=match):
            TorusFunction.from_sample_csv("\n".join(["t,re,im"] + rows) + "\n")


def test_mode_field_csv_checks_in_order():
    # header, field counts, j, mode range, equal counts, t, then re and im;
    # each text below also holds a fault of a later check
    eigs = build_eigensequence("harmonic1d", 3)
    bad_re = [r.replace(",2.0,", ",x,") for r in _mode_rows()]
    cases = [
        ("j,t,re\n" + "\n".join(bad_re), "header j,t,re,im"),
        ("\n".join(["j,t,re,im", "1,0.0"] + bad_re), "line 2: 2 fields"),
        ("\n".join(["j,t,re,im", "a,0.0,1.0,0.0"] + _mode_rows(j=9) + bad_re), "j = 'a'"),
        ("\n".join(["j,t,re,im"] + _mode_rows(j=9) + bad_re), "mode index 9 "),
        ("\n".join(["j,t,re,im", "2,0.5,x,0.0"] + bad_re), "different numbers of samples"),
        ("\n".join(["j,t,re,im"] + [r.replace(",1.5707963267948966,", ",t,")
                                    for r in bad_re]), "line 3: t = 't'"),
        ("\n".join(["j,t,re,im"] + bad_re[::-1]), "line 2: t = 4.71238898038469 "),
        ("\n".join(["j,t,re,im"] + bad_re), "line 4: re = 'x'"),
    ]
    for text, match in cases:
        with pytest.raises(ValueError, match=match):
            ModeField.from_csv(text, eigs, J=3)


def test_sample_csv_readers_skip_blank_rows_and_keep_file_lines():
    eigs = build_eigensequence("harmonic1d", 3)
    rows = _mode_rows()
    plain = ModeField.from_csv("\n".join(["j,t,re,im"] + rows), eigs, J=3)
    spaced = "\n".join(["j,t,re,im", "", rows[0], "", "", rows[1], "\r"] + rows[2:] + ["", ""])
    back = ModeField.from_csv(spaced, eigs, J=3)
    assert back.samples.tobytes() == plain.samples.tobytes()
    # spaces around a header name are ignored
    back = ModeField.from_csv("\n".join(["j, t, re, im"] + rows), eigs, J=3)
    assert back.samples.tobytes() == plain.samples.tobytes()
    samples = [r.split(",", 1)[1] for r in rows]
    assert (TorusFunction.from_sample_csv("\n".join(["t , re,im "] + samples))
            == TorusFunction.from_sample_csv("\n".join(["t,re,im"] + samples)))
    # a header followed by blank lines only has no data rows
    for tail in ("", "\n", "\n\n\r\n"):
        with pytest.raises(ValueError, match="mode-field CSV needs data rows"):
            ModeField.from_csv("j,t,re,im" + tail, eigs, J=3)
        with pytest.raises(ValueError, match="sample CSV needs data rows"):
            TorusFunction.from_sample_csv("t,re,im" + tail)
    # after skipped blank lines, errors give the file line of the bad row
    swapped = ["j,t,re,im", "", rows[0], "", rows[2], rows[1], rows[3]]
    with pytest.raises(ValueError, match="line 5: t = 3.141592653589793 "):
        ModeField.from_csv("\n".join(swapped), eigs, J=3)
    with pytest.raises(ValueError, match="line 6: im = '-0.0y' "):
        ModeField.from_csv("\n".join(["j,t,re,im", "", rows[0], "", rows[1], rows[2] + "y",
                                      rows[3]]), eigs, J=3)
    with pytest.raises(ValueError, match="line 5: t = 3.141592653589793 "):
        TorusFunction.from_sample_csv("\n".join(
            ["t,re,im"] + [r.split(",", 1)[1] if r else "" for r in swapped[1:]]))
    # a row of spaces or of empty fields is not blank
    with pytest.raises(ValueError, match="line 3: 1 fields"):
        ModeField.from_csv("\n".join(["j,t,re,im", rows[0], "  "] + rows[1:]), eigs, J=3)


def test_sample_csv_readers_take_a_file_handle(tmp_path):
    eigs = build_eigensequence("harmonic1d", 3)
    mf = ModeField([f_harmonic(8), None, TorusFunction.constant(2j, 8)], eigs)
    path = tmp_path / "u.csv"
    path.write_text(mf.to_csv(), encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        assert ModeField.from_csv(fh, eigs, J=3).samples.tobytes() == mf.samples.tobytes()
    path.write_text(mf[2].to_sample_csv(), encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        assert TorusFunction.from_sample_csv(fh) == mf[2]


def test_sample_csv_text_reads_like_its_file(tmp_path):
    # a text of many 64k-character pieces, with blank lines and CRLF ends
    # that straddle piece boundaries, reads and fails as its file does
    eigs = build_eigensequence("harmonic1d", 3)
    rows = _mode_rows(n=4096)
    path = tmp_path / "u.csv"

    def read_both(rows):
        text = "j,t,re,im\r\n" + "".join(r + ("\r\n\n" if k % 7 == 0 else "\r\n")
                                         for k, r in enumerate(rows))
        path.write_text(text, encoding="utf-8", newline="")
        yield lambda: ModeField.from_csv(text, eigs, J=3)
        with open(path, encoding="utf-8", newline="") as fh:
            yield lambda: ModeField.from_csv(fh, eigs, J=3)

    a, b = (read() for read in read_both(rows))
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.samples[1].real.tolist() == [float(k) for k in range(4096)]
    k = 3000
    rows[k] = rows[k].replace(f",{float(k)!r},", ",x,")
    for read in read_both(rows):
        with pytest.raises(ValueError, match=f"line {2 + k + (k + 6) // 7}: re = 'x' "):
            read()


_SPECIAL_BITS = [0, 1 << 63, 1,(1 << 52) - 1, (1 << 63) | 1, 0x7FF0 << 48, 0xFFF0 << 48,
                 0x7FF8 << 48, 0xFFF8 << 48, 0x7FF0_0000_0000_0001, 0xFFFF_FFFF_FFFF_FFFF]
_float_bits = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(_SPECIAL_BITS))


def _floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64).tolist()


def _parsed_bits(values):
    # repr writes every NaN as "nan", so a NaN's sign and payload are not kept
    return np.array([float(repr(x)) for x in values]).view(np.uint64)


@given(j=st.integers(0, 2), bits=st.lists(_float_bits, min_size=16, max_size=16))
@settings(max_examples=200, deadline=None)
def test_mode_field_csv_parses_every_float_bit_for_bit(j, bits):
    eigs = build_eigensequence("harmonic1d", 3)
    re, im = _floats(bits[:8]), _floats(bits[8:])
    text = "j,t,re,im\n" + "".join(f"{j},{t!r},{r!r},{i!r}\n"
                                   for t, r, i in zip(grid(8).tolist(), re, im))
    back = ModeField.from_csv(text, eigs, J=3)
    assert back.defined() == [j]
    assert back.samples[j].real.view(np.uint64).tolist() == _parsed_bits(re).tolist()
    assert back.samples[j].imag.view(np.uint64).tolist() == _parsed_bits(im).tolist()
    assert back.to_csv() == text


@given(bits=st.lists(_float_bits, min_size=8, max_size=8))
@settings(max_examples=200, deadline=None)
def test_sample_csv_parses_every_float_bit_for_bit(bits):
    re, im = _floats(bits[:4]), _floats(bits[4:])
    text = "t,re,im\n" + "".join(f"{t!r},{r!r},{i!r}\n"
                                 for t, r, i in zip(grid(4).tolist(), re, im))
    back = TorusFunction.from_sample_csv(text)
    assert back.samples.real.view(np.uint64).tolist() == _parsed_bits(re).tolist()
    assert back.samples.imag.view(np.uint64).tolist() == _parsed_bits(im).tolist()
    assert back.to_sample_csv() == text


def test_mode_field_csv_reads_a_file_in_bounded_memory(tmp_path):
    # J = 128, N = 1024: neither the 8.8 MB text nor one Python list per row
    # is copied whole, from a file or from the text itself; the traced peak
    # stays within 8 copies of the field
    eigs = build_eigensequence("harmonic1d", 128)
    rng = np.random.default_rng(6)
    samples = rng.standard_normal((128, 1024)) + 1j * rng.standard_normal((128, 1024))
    mf = ModeField._of(samples, np.ones(128, dtype=bool), eigs)
    text = mf.to_csv()
    path = tmp_path / "u.csv"
    path.write_text(text, encoding="utf-8")
    for source in ("file", "str"):
        tracemalloc.start()
        try:
            if source == "file":
                with open(path, encoding="utf-8") as fh:
                    back = ModeField.from_csv(fh, eigs, J=128)
            else:
                back = ModeField.from_csv(text, eigs, J=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.samples.tobytes() == samples.tobytes(), source
        assert peak <= 8 * samples.nbytes, f"{source}: peak {peak / 1e6:.1f} MB"


def _to_csv_whole(mf):
    # ModeField.to_csv as it was before the CSV was streamed: the whole text,
    # one repr or str a cell
    lines = ["j,t,re,im\n"]
    if mf.mask.any():
        ts = csvio.cells(grid(mf.n))
        lines += [f"{j},{t},{r},{i}\n" for j in mf.defined()
                  for t, r, i in zip(ts, csvio.cells(mf.samples[j].real),
                                     csvio.cells(mf.samples[j].imag))]
    return "".join(lines)


@pytest.mark.parametrize("kernel_min", [csvio._KERNEL_MIN, 0],
                         ids=["at-threshold", "kernel-all"])
@given(mask=st.lists(st.booleans(), min_size=1, max_size=6),
       logn=st.integers(2, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_streamed_field_csv_writes_the_whole_text(tmp_path_factory, kernel_min, mask, logn,
                                                  data):
    # interleaved undefined modes, none defined (header only), signed zeros,
    # infinities and NaNs: the pieces csvio.write stores are to_csv's bytes,
    # and the bytes of the whole-text writer; at kernel_min 0 every float
    # column, however short, takes the float kernel
    J, n = len(mask), 1 << logn
    bits = data.draw(st.lists(_float_bits, min_size=2 * J * n, max_size=2 * J * n))
    samples = np.zeros((J, n if any(mask) else 0), dtype=np.complex128)
    if any(mask):
        vals = np.array(_floats(bits)).reshape(2, J, n)
        samples.real, samples.imag = vals[0], vals[1]
        samples[~np.array(mask)] = 0.0
    mf = ModeField._of(samples, np.array(mask), build_eigensequence("harmonic1d", J))
    path = tmp_path_factory.mktemp("csv") / "u.csv"
    with mock.patch.object(csvio, "_KERNEL_MIN", kernel_min):
        csvio.write(path, mf.csv_pieces())
        text = path.read_bytes().decode("utf-8")
        assert text == mf.to_csv() == _to_csv_whole(mf)
    assert (text == "j,t,re,im\n") == (not any(mask))


@pytest.mark.parametrize("defined", [0, 1, 2, 3, 5])
def test_split_field_csv_keeps_mode_order(tmp_path, monkeypatch, defined):
    # 0, 1, 2 and odd numbers of defined modes among undefined ones, with
    # -0.0, +-inf and NaN in every mode, split into blocks of one mode and
    # of two: the blocks are taken over the defined modes in order, and the
    # bytes are those of the whole-text writer
    J, n = 2 * defined + 1, 64
    mask = np.arange(J) % 2 == 1
    rng = np.random.default_rng(defined)
    samples = rng.standard_normal((J, n)) + 1j * rng.standard_normal((J, n))
    samples[:, :4] = (complex(-0.0, math.inf), complex(-math.inf, math.nan),
                      complex(math.nan, -0.0), 5e-324)
    samples[~mask] = 0.0
    mf = ModeField._of(samples, mask, build_eigensequence("harmonic1d", J))
    for modes in (1, 2):
        monkeypatch.setattr(csvio, "_BLOCK_CELLS", 4 * n * modes)
        assert len(mf.csv_pieces().keys) == -(-defined // modes)
        csvio.write(tmp_path / "u.csv", mf.csv_pieces())
        assert (tmp_path / "u.csv").read_bytes() == _to_csv_whole(mf).encode("utf-8")


def test_streamed_field_csv_writes_in_bounded_memory(tmp_path):
    # J = 128, N = 1024: the whole-text writer peaked near 12 copies of the
    # field (the text, then its join); one mode block at a time stays within 2
    eigs = build_eigensequence("harmonic1d", 128)
    rng = np.random.default_rng(7)
    samples = rng.standard_normal((128, 1024)) + 1j * rng.standard_normal((128, 1024))
    mf = ModeField._of(samples, np.ones(128, dtype=bool), eigs)
    tracemalloc.start()
    try:
        csvio.write(tmp_path / "u.csv", mf.csv_pieces())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * samples.nbytes, f"peak {peak / 1e6:.1f} MB"
    assert (tmp_path / "u.csv").read_bytes() == _to_csv_whole(mf).encode("utf-8")


def test_field_operations_match_per_mode_reference():
    # the whole-array operations reproduce the per-mode ones bit for bit
    eigs = build_eigensequence("harmonic1d", 6)
    rng = np.random.default_rng(3)
    entries = [TorusFunction(rng.standard_normal(64) + 1j * rng.standard_normal(64))
               for _ in range(6)]
    entries[2] = None
    u = ModeField(entries, eigs)
    c = c_instance("A", 64)
    du, fu, sups = u.derivative(), apply_operator(c, u), u.sup_norms()
    d2u = du.derivative()
    for j, e in enumerate(entries):
        if e is None:
            assert du[j] is None and fu[j] is None and math.isnan(sups[j])
            continue
        assert du[j].samples.tobytes() == e.derivative().samples.tobytes()
        assert d2u[j].samples.tobytes() == e.derivative().derivative().samples.tobytes()
        ref = apply_mode(float(eigs.lambdas[j]), c, e)
        assert fu[j].samples.tobytes() == ref.samples.tobytes()
        assert sups[j] == e.sup_norm()


def test_divisor_report_csv():
    eigs = build_eigensequence("harmonic1d", 4)
    f = ModeField([f_harmonic(64)] * 4, eigs)
    _, report = solve_field(TorusFunction.constant(1.0 / 3.0), f)
    text = report.to_csv()
    lines = text.splitlines()
    assert lines[0] == "j,lambda,divisor,resonant"
    assert len(lines) == 5
    assert lines[2].endswith("true")  # lambda = 3 resonant at c0 = 1/3


# --------------------------------------------------------------------------- #
# property tests
# --------------------------------------------------------------------------- #

@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=-10, max_value=10),
    lam=st.integers(min_value=1, max_value=30),
    num=st.integers(min_value=-20, max_value=20),
)
def test_constant_real_c_single_harmonic_property(k, lam, num):
    # c = num/8, f = e^{ikt}: u = f / (i(k + lam c)) unless resonant
    c0 = num / 8.0
    assume(abs(lam * c0 - round(lam * c0)) > 1e-6)
    c = TorusFunction.constant(c0, 64)
    f = TorusFunction.harmonic(k, 64)
    u = solve_mode(float(lam), c, f)
    expect = f.samples / (1j * (k + lam * c0))
    assert np.max(np.abs(u.samples - expect)) < 1e-8 * (1 + np.max(np.abs(expect)))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_random_bandlimited_inverse_property(seed):
    rng = np.random.default_rng(seed)
    n = 128
    t = grid(n)
    b0 = rng.choice([-0.4, 0.3, 0.7])
    c = TorusFunction(
        rng.normal() + 1j * b0
        + 0.2 * (rng.normal() * np.cos(t) + rng.normal() * np.sin(t))
        + 0.1j * rng.normal() * np.cos(2 * t))
    f = TorusFunction(sum(rng.normal() * np.exp(1j * k * t) for k in range(-4, 5)))
    lam = float(rng.integers(1, 6))
    sol = solve_mode_detailed(lam, c, f)
    resid = (apply_mode(lam, c, sol.u) - f).sup_norm()
    assert resid < 1e-7 * (1 + f.sup_norm() / sol.divisor)
