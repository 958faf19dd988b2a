"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test is self-contained and prints a single summary line with the measured
quantity next to its bound, so a ``pytest -v`` run reads as the acceptance
checklist.  Tolerances and runtime budgets are asserted, never logged-only.
Shared heavy objects (eigensequences, the J=128 solve) are module fixtures.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypotorus.classify import (
    BRANCH_DIOPHANTINE,
    BRANCH_NONREAL,
    BRANCH_RESONANCE,
    classify_constant,
)
from hypotorus.diagnostics import fit_decay, lemma25_check, pm_seminorms
from hypotorus.diophantine import construct_liouville, divisor_sandwich
from hypotorus.modes import ModeField, apply_operator, solve_field, solve_mode
from hypotorus.spectrum import HermiteBasis, _phi_matrix, build_eigensequence
from hypotorus.torusfn import TorusFunction, grid
from hypotorus.witness import constant_witness, sign_change_witness

N = 256
COOKBOOK = Path(__file__).resolve().parents[1] / "cookbook"


@pytest.fixture(scope="module")
def eigs64():
    return build_eigensequence("harmonic1d", 64)


@pytest.fixture(scope="module")
def eigs128():
    return build_eigensequence("harmonic1d", 128)


@pytest.fixture(scope="module")
def gh_solve(eigs128):
    """J=128 solve with planted forcing decay 0.5 and c = i(1 - cos t)."""
    c = TorusFunction(1j * (1.0 - np.cos(grid(N))))
    f = ModeField(
        [TorusFunction.harmonic(1, N) * float(np.exp(-0.5 * (j + 1))) for j in range(128)],
        eigs128,
    )
    u, report = solve_field(c, f)
    assert not report.resonant_indices()
    return u


def _random_forcing(rng, band=4):
    coeffs = {k: (rng.normal() + 1j * rng.normal()) * math.exp(-abs(k))
              for k in range(-band, band + 1)}
    return TorusFunction.from_coeff_dict(coeffs, N)


# --------------------------------------------------------------------------- #
# 1. closed-form mode solution for constant real coefficient
# --------------------------------------------------------------------------- #

def test_c01_constant_mode_matches_undetermined_coefficients():
    # u' + i*lam*c*u = e^{it} with c = 1/2, lam = 11: try u = A e^{it},
    # then iA + 5.5iA = 1, so A = -i/6.5.
    t0 = time.monotonic()
    u = solve_mode(11.0, TorusFunction.constant(0.5, N), TorusFunction.harmonic(1, N))
    target = TorusFunction.harmonic(1, N) * complex(-1j / 6.5)
    err = (u - target).sup_norm()
    elapsed = time.monotonic() - t0
    assert err < 1e-9
    assert elapsed < 1.0
    print(f"criterion 1 PASS: sup|u + i e^(it)/6.5| = {err:.3e} < 1e-9 in {elapsed:.3f}s")


# --------------------------------------------------------------------------- #
# 2. apply_operator inverts solve_field on random bandlimited data
# --------------------------------------------------------------------------- #

def test_c02_operator_inverts_field_solver(eigs64):
    t0 = time.monotonic()
    rng = np.random.default_rng(20260818)
    tt = grid(N)
    worst = 0.0
    for inst in range(20):
        if inst % 2 == 0:
            # family with nonvanishing imaginary mean
            b0 = float(rng.uniform(0.25, 0.6) * rng.choice([-1.0, 1.0]))
            a0 = float(rng.uniform(-0.5, 0.5))
            c = TorusFunction(a0 + 1j * b0 + 0.02 * np.cos(tt) + 0.015j * np.sin(tt))
        else:
            # real family whose mean 1/2 keeps every divisor at distance 1/2
            c = TorusFunction(0.5 + 0.05 * float(rng.normal()) * np.cos(tt))
        f = ModeField([_random_forcing(rng) for _ in range(64)], eigs64)
        u, _ = solve_field(c, f)
        back = apply_operator(c, u)
        for j in range(64):
            assert u[j] is not None, f"instance {inst}: mode {j} unexpectedly resonant"
            rel = (back[j] - f[j]).sup_norm() / max(f[j].sup_norm(), 1e-30)
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    assert worst < 1e-7
    assert elapsed < 10.0
    print(f"criterion 2 PASS: worst relative residual {worst:.3e} < 1e-7 "
          f"over 20 instances in {elapsed:.2f}s")


# --------------------------------------------------------------------------- #
# 3. the two closed-form mode solutions agree off resonance
# --------------------------------------------------------------------------- #

def test_c03_both_integral_formulas_agree():
    rng = np.random.default_rng(31)
    tt = grid(N)
    worst = 0.0
    for _ in range(20):
        lam = float(rng.uniform(2.0, 40.0))
        a0 = float(rng.uniform(0.08, 0.42))
        b0 = float(rng.uniform(0.1, 0.4) * rng.choice([-1.0, 1.0]))
        c = TorusFunction(a0 + 1j * b0 + 0.05 * np.cos(tt) + 0.03j * np.sin(2 * tt))
        f = _random_forcing(rng, band=6)
        u1 = solve_mode(lam, c, f, formula=1)
        u2 = solve_mode(lam, c, f, formula=2)
        worst = max(worst, (u1 - u2).sup_norm())
    assert worst < 1e-8
    print(f"criterion 3 PASS: formulas 1 and 2 differ by {worst:.3e} < 1e-8 "
          f"on 20 non-resonant instances")


# --------------------------------------------------------------------------- #
# 4. divisor modulus sandwiched by the nearest-integer distance
# --------------------------------------------------------------------------- #

def test_c04_divisor_sandwich_holds_exactly():
    rng = np.random.default_rng(40)
    xs = rng.uniform(-50.0, 50.0, size=100_000)
    failures = 0
    for x in xs:
        lo, mid, hi = divisor_sandwich(float(x))
        if not (lo <= mid <= hi):
            failures += 1
    assert failures == 0
    # the middle member really is |1 - e^{2 pi i x}| (direct complex evaluation)
    sub = xs[:2000]
    direct = np.abs(1.0 - np.exp(2j * np.pi * sub))
    via = np.array([divisor_sandwich(float(x))[1] for x in sub])
    np.testing.assert_allclose(via, direct, atol=5e-13)
    print("criterion 4 PASS: 4d <= |1 - e^(2 pi i x)| <= 2 pi d on 100000 draws, "
          "0 failures")


# --------------------------------------------------------------------------- #
# 5. constant-coefficient classification: resonance, exact floor, branch (a)
# --------------------------------------------------------------------------- #

def test_c05_constant_coefficient_classification(eigs64):
    for alpha in (-3, 0, 1, 5):
        v = classify_constant(Fraction(alpha), 0.0, eigs64)
        assert v.decision == "notGH"
        assert v.branch == BRANCH_RESONANCE
        rat = v.evidence["rational"]
        # period 1 with residue class {0} resonant: every mode resonates
        assert rat["period"] == 1
        assert list(rat["resonant_classes"]) == [0]

    v_half = classify_constant(Fraction(1, 2), 0.0, eigs64)
    assert v_half.decision == "GH"
    assert v_half.branch == BRANCH_DIOPHANTINE
    assert v_half.evidence["rational"]["floor"] == Fraction(1, 2)

    v_im = classify_constant(0.7, 1.0, eigs64)
    assert v_im.decision == "GH"
    assert v_im.branch == BRANCH_NONREAL
    print("criterion 5 PASS: integers fully resonant (notGH), 1/2 has exact "
          "divisor floor 1/2 (GH), nonreal mean takes the nonreal branch (GH)")


# --------------------------------------------------------------------------- #
# 6. four-level certificate: exact gap bounds and a verified witness
# --------------------------------------------------------------------------- #

def test_c06_liouville_certificate_and_constant_witness():
    t0 = time.monotonic()
    eigs = build_eigensequence("harmonic1d", 40)
    cert = construct_liouville(eigs, 4, j_cap=None)
    assert len(cert.levels) == 4
    assert cert.verify() is True

    # independent exact check gap <= e^{-(j+1)} using a rational R > e:
    # gap <= R^{-(j+1)} implies the bound, and the comparison is pure integers
    R = Fraction(271829, 100000)
    for lev in cert.levels:
        if lev.gap == 0:
            continue  # 0 <= e^{-(j+1)} holds trivially and exactly
        assert lev.j.bit_length() < 64, "non-terminal level index overflow"
        assert lev.gap * R ** (lev.j + 1) <= 1

    bundle = constant_witness(cert, eigs, mu=Fraction(1, 2))
    rep = bundle.verify()
    assert rep["ok"] is True
    for lv in bundle.levels:
        assert abs(lv.sup_u - 1.0) <= 1e-12
        if lv.sampled:
            assert abs(float(np.max(np.abs(bundle.u_rows(lv.row)))) - 1.0) <= 1e-9
    assert bundle.decay.eps_f > 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 6 PASS: 4 exact gap bounds, sup|u| = 1 on every level, "
          f"eps_f = {bundle.decay.eps_f:.3f} > 0 in {elapsed:.2f}s")


# --------------------------------------------------------------------------- #
# 7. sign-change witness: residuals, unit peak at t*, exponential forcing decay
# --------------------------------------------------------------------------- #

def test_c07_sign_change_witness_quality(eigs64):
    Nw = 1024
    c = TorusFunction(1j * np.sin(grid(Nw)))
    bundle = sign_change_witness(c, eigs64, N=Nw)
    rep = bundle.verify()
    assert rep["ok"] is True
    assert rep["max_residual"] < 1e-7

    t_star = bundle.meta["t_star"]
    idx = int(round(t_star / (2 * math.pi / Nw))) % Nw
    for lv in bundle.levels:
        assert lv.sampled
        assert abs(abs(bundle.u_rows(lv.row)[idx]) - 1.0) <= 1e-6

    dec = bundle.decay
    assert dec.rate_lambda > 0.0
    assert dec.r2_lambda > 0.95
    print(f"criterion 7 PASS: max residual {rep['max_residual']:.3e} < 1e-7, "
          f"|u(t*)| = 1 on all {len(bundle.levels)} levels, "
          f"lambda-decay r2 = {dec.r2_lambda:.4f} > 0.95")


# --------------------------------------------------------------------------- #
# 8. sign-definite imaginary part preserves planted decay
# --------------------------------------------------------------------------- #

def test_c08_decay_preserved_under_gh_coefficient(gh_solve):
    fit = fit_decay(gh_solve, mu=Fraction(1, 2), k_max=0)
    assert fit.epsilon >= 0.25
    assert fit.r2 > 0.9
    print(f"criterion 8 PASS: planted eps_f = 0.5 comes out as eps_u = "
          f"{fit.epsilon:.3f} >= 0.25 with r2 = {fit.r2:.4f} > 0.9")


# --------------------------------------------------------------------------- #
# 9. Hermite layer: orthonormality, eigenrelation, Weyl growth
# --------------------------------------------------------------------------- #

def test_c09_hermite_quadrature_eigenrelation_weyl():
    dev = HermiteBasis.build(64, Q=128).gram_deviation()
    assert dev < 1e-10

    # eigenrelation -phi'' + x^2 phi = (2j+1) phi checked with finite
    # differences on the recurrence-evaluated functions (independent of any
    # ladder identities used elsewhere)
    xs = np.linspace(-7.0, 7.0, 28001)
    h = xs[1] - xs[0]
    phi = _phi_matrix(11, xs)
    worst = 0.0
    for j in range(11):
        p = phi[:, j]
        d2 = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / h ** 2
        resid = -d2 + xs[1:-1] ** 2 * p[1:-1] - (2 * j + 1) * p[1:-1]
        worst = max(worst, float(np.max(np.abs(resid))))
    assert worst < 1e-4

    nd = build_eigensequence("harmonic_nd 2", 4096)
    lam = np.asarray(nd.lambdas, dtype=np.float64)
    tail = np.arange(2048, 4096)
    ratio = lam[tail] / np.sqrt(8.0 * (tail + 1))
    spread = float((ratio.max() - ratio.min()) / ratio.mean())
    assert spread < 0.10
    print(f"criterion 9 PASS: gram deviation {dev:.2e} < 1e-10, eigenrelation "
          f"residual {worst:.2e} < 1e-4 (j <= 10), Weyl ratio spread "
          f"{spread:.3f} < 0.10")


# --------------------------------------------------------------------------- #
# 10. envelope constants bounded and equal to direct maximization
# --------------------------------------------------------------------------- #

def test_c10_envelope_constants_match_direct_maximization():
    res = lemma25_check(1.0, 1.0, 1.0, ell_max=20, j_max=10 ** 6)
    assert res.bounded is True

    js = np.arange(1, 10 ** 6 + 1, dtype=np.float64)
    worst = 0.0
    for ell in range(1, 21):
        h_vals = ell * np.log(js) - js
        direct = math.exp((float(np.max(h_vals)) - math.lgamma(ell + 1)) / ell)
        worst = max(worst, abs(direct - res.C_of_ell[ell]))
    assert worst <= 1e-12
    print(f"criterion 10 PASS: C(l) bounded (max {res.C_max:.6f}) and matches "
          f"brute-force maximization to {worst:.1e} <= 1e-12")


# --------------------------------------------------------------------------- #
# 11. seminorm growth in the weight order stays within the predicted slope
# --------------------------------------------------------------------------- #

def test_c11_seminorm_slope_bounded(gh_solve, eigs128):
    bound = 2 * 0.5 + 0.2  # m*mu + 0.2 for m = 2, mu = 1/2
    tab = pm_seminorms(gh_solve, eigs128, M_max=12, k_max=2)
    assert tab.slope_M <= bound

    f = ModeField(
        [TorusFunction.harmonic(1, N) * float(np.exp(-0.5 * (j + 1))) for j in range(128)],
        eigs128,
    )
    u_const, _ = solve_field(TorusFunction.constant(0.5, N), f)
    tab2 = pm_seminorms(u_const, eigs128, M_max=12, k_max=2)
    assert tab2.slope_M <= bound
    print(f"criterion 11 PASS: M-slopes {tab.slope_M:.3f} and {tab2.slope_M:.3f} "
          f"<= {bound} in two sign-definite configurations (M <= 12)")


# --------------------------------------------------------------------------- #
# 12. every cookbook config is byte-deterministic across two CLI processes
# --------------------------------------------------------------------------- #

def _run_cli(args):
    code = "import sys; from hypotorus.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)
    assert proc.returncode in (0, 2), (
        f"cli {' '.join(args[:1])} exited {proc.returncode}: {proc.stderr}")


def test_c12_cookbook_outputs_are_deterministic(tmp_path):
    configs = sorted(COOKBOOK.glob("*.json"))
    assert configs, "cookbook directory is empty"

    solve_cfg = next(p for p in configs if p.name.startswith("solve"))
    seed = tmp_path / "seed"
    _run_cli(["solve", "--config", str(solve_cfg), "--out", str(seed)])

    for cfg in configs:
        command = cfg.name.split("_", 1)[0]
        snapshots = []
        for tag in ("first", "second"):
            out = tmp_path / f"{cfg.stem}_{tag}"
            args = [command, "--config", str(cfg), "--out", str(out)]
            if command == "decay":
                args += ["--input", str(seed / "u_field.csv")]
            _run_cli(args)
            snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert snapshots[0].keys() == snapshots[1].keys(), f"{cfg.name}: file sets differ"
        assert snapshots[0] == snapshots[1], f"{cfg.name}: outputs differ between runs"
    print(f"criterion 12 PASS: {len(configs)} cookbook configs byte-identical "
          f"across two separate CLI processes each")
